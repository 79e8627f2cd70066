"""Proper divergences: the compiler's input and the verifier's ground truth.

A :class:`PolyDivergence` is a sparse sum of monomials in the model vector
``p`` and the target vector ``q``.  The log family (cross-entropy, KL,
Shannon entropy) is represented separately by :class:`SeriesDivergence`
because it is not polynomial and may evaluate to ``+inf``.

Properness -- ``div(q, q) <= div(p, q)`` for every fixed ``q`` -- is audited
on a simplex grid, never assumed: compilation does not require it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .domain import Distribution, compositions, over_common_denominator
from .errors import DimensionMismatchError, DomainTooLargeError, OddExponentError
from .estimators import ExponentVector


def _probs(x) -> Sequence:
    return x.probs if isinstance(x, Distribution) else tuple(x)


@dataclass(frozen=True)
class Monomial:
    """coeff * prod_x p_x**p_exps[x] * prod_x q_x**q_exps[x]"""

    coeff: object
    p_exps: ExponentVector
    q_exps: ExponentVector

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("monomial coefficients must be nonzero")
        if self.p_exps.dim != self.q_exps.dim:
            raise DimensionMismatchError("p and q exponent vectors must have the same dimension")


def _power_product(values: Sequence, exps: ExponentVector):
    out = 1
    for x, e in exps.pairs:
        out = out * values[x] ** e
        if out == 0:
            break
    return out


@dataclass(frozen=True)
class PolyDivergence:
    """A finite sum of monomials with pairwise-distinct exponent pairs.

    Degree metadata is recomputed from the monomials on construction and
    never trusted from input.
    """

    monomials: tuple[Monomial, ...]
    deg_p: int = field(init=False)
    deg_q: int = field(init=False)
    _coeffs: Optional[tuple] = field(init=False, repr=False, compare=False)  # the coefficients over one denominator

    def __post_init__(self):
        monomials = tuple(self.monomials)
        if len(monomials) == 0:
            raise ValueError("a polynomial divergence needs at least one monomial")
        dims = {m.p_exps.dim for m in monomials}
        if len(dims) != 1:
            raise DimensionMismatchError("all monomials must share one domain dimension")
        keys = {(m.p_exps, m.q_exps) for m in monomials}
        if len(keys) != len(monomials):
            raise ValueError("monomial exponent pairs must be pairwise distinct")
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "deg_p", max(m.p_exps.degree for m in monomials))
        object.__setattr__(self, "deg_q", max(m.q_exps.degree for m in monomials))
        object.__setattr__(self, "_coeffs", over_common_denominator([m.coeff for m in monomials]))

    @property
    def dim(self) -> int:
        return self.monomials[0].p_exps.dim

    def evaluate(self, p, q):
        """The sum of the monomials at ``(p, q)``.

        When every entry and coefficient is rational, the sum runs in integers: coefficients and entries
        become numerators over common denominators ``C``, ``Dp`` and ``Dq``, each monomial is scaled up to
        degrees ``(deg_p, deg_q)``, and one Fraction over ``C * Dp**deg_p * Dq**deg_q`` is returned.
        Otherwise the same loop runs on the values themselves over 1, with the float arithmetic of a plain
        monomial sum.
        """
        pv, qv = _probs(p), _probs(q)
        if len(pv) != self.dim or len(qv) != self.dim:
            raise DimensionMismatchError(
                f"divergence over dimension {self.dim} evaluated at dimensions {len(pv)}, {len(qv)}"
            )
        scaled = (self._coeffs, over_common_denominator(pv), over_common_denominator(qv))
        exact = None not in scaled
        if exact:
            (coeffs, cden), (pv, dp), (qv, dq) = scaled
        else:
            coeffs, cden, dp, dq = [m.coeff for m in self.monomials], 1, 1, 1
        acc = 0
        for c, m in zip(coeffs, self.monomials):
            acc = acc + (
                c * _power_product(pv, m.p_exps) * dp ** (self.deg_p - m.p_exps.degree)
                * _power_product(qv, m.q_exps) * dq ** (self.deg_q - m.q_exps.degree)
            )
        return Fraction(acc, cden * dp**self.deg_p * dq**self.deg_q) if exact else acc

    def partial_q(self, q) -> dict[ExponentVector, object]:
        """Substitute a known target, leaving a polynomial in ``p`` alone.

        Returns a map from p-exponent vectors to collected coefficients;
        exactly cancelled terms are dropped.
        """
        qv = _probs(q)
        if len(qv) != self.dim:
            raise DimensionMismatchError(f"target has dimension {len(qv)}, divergence needs {self.dim}")
        grouped: dict[ExponentVector, object] = {}
        for m in self.monomials:
            factor = _power_product(qv, m.q_exps)
            if factor == 0:
                continue
            grouped[m.p_exps] = grouped.get(m.p_exps, 0) + m.coeff * factor
        return {j: c for j, c in grouped.items() if c != 0}


class SeriesKind(Enum):
    CROSS_ENTROPY = "cross-entropy"
    KL = "kl"
    SHANNON_ENTROPY = "entropy"


@dataclass(frozen=True)
class SeriesDivergence:
    """Log-family divergences; evaluation may return +inf on support mismatch."""

    kind: SeriesKind

    def evaluate(self, p, q) -> float:
        pv, qv = _probs(p), _probs(q)
        if len(pv) != len(qv):
            raise DimensionMismatchError(f"dimensions {len(pv)} and {len(qv)} differ")
        if self.kind is SeriesKind.SHANNON_ENTROPY:
            return -sum(float(b) * math.log(float(b)) for b in qv if b > 0)
        acc = 0.0
        for a, b in zip(pv, qv):
            if b <= 0:
                continue
            if a <= 0:
                return math.inf
            if self.kind is SeriesKind.CROSS_ENTROPY:
                acc -= float(b) * math.log(float(a))
            else:
                acc += float(b) * math.log(float(b) / float(a))
        return acc


def _coordinatewise(d: int, terms) -> PolyDivergence:
    """sum over x of ``coeff * p_x**i * q_x**j`` for each ``(coeff, i, j)`` in ``terms``."""
    if d < 1:
        raise ValueError("domain size must be >= 1")
    unit = ExponentVector.unit
    return PolyDivergence(tuple(Monomial(c, unit(d, x, i), unit(d, x, j)) for x in range(d) for c, i, j in terms))


def builtin_l2(d: int) -> PolyDivergence:
    """Squared distance sum_x (p_x - q_x)^2, expanded per coordinate."""
    return _coordinatewise(d, ((1, 2, 0), (-2, 1, 1), (1, 0, 2)))


def builtin_lk_even(d: int, k: int) -> PolyDivergence:
    """Coordinate-wise power distance sum_x (p_x - q_x)^k for even k >= 2.

    Odd k is rejected: sum_x (p_x - q_x)^k is not a proper divergence in that
    form (it is unbounded below in p for fixed q).
    """
    if k % 2 != 0:
        raise OddExponentError(f"exponent {k} is odd; only even powers give a proper divergence")
    if k < 2:
        raise ValueError("exponent must be >= 2")
    return _coordinatewise(d, [(math.comb(k, i) * (-1) ** (k - i), i, k - i) for i in range(k + 1)])


def builtin_brier(d: int) -> PolyDivergence:
    """sum_x p_x^2 - 2 p_x q_x: same minimizer as the squared distance but
    only degree 1 in the target, so one target draw suffices."""
    return _coordinatewise(d, ((1, 2, 0), (-2, 1, 1)))


def squared_norm_polynomial(d: int) -> PolyDivergence:
    """G(p) = sum_x p_x^2 as a p-only polynomial (a convex potential)."""
    return _coordinatewise(d, ((1, 2, 0),))


def squared_norm_gradient(d: int) -> tuple[PolyDivergence, ...]:
    """Coordinate-wise derivative polynomials of G(p) = sum_x p_x^2."""
    return tuple(
        PolyDivergence((Monomial(2, ExponentVector.unit(d, x), ExponentVector.zero(d)),))
        for x in range(d)
    )


def eval_divergence(divergence, p, q):
    """Direct evaluation of a polynomial or series divergence at (p, q)."""
    return divergence.evaluate(p, q)


def simplex_grid(d: int, denominator: int) -> list[Distribution]:
    """All exact distributions with entries in {0, 1/denominator, ..., 1}."""
    if d < 1 or denominator < 1:
        raise ValueError("need d >= 1 and denominator >= 1")
    return [
        Distribution.exact([Fraction(c, denominator) for c in comp])
        for comp in compositions(denominator, d)
    ]


@dataclass(frozen=True)
class PropernessAudit:
    """Grid-search evidence about the minimizer of div(., q)."""

    argmin: tuple
    minimum: object
    reference: object  # div(q, q)
    gap: object  # minimum - reference; >= 0 on the grid for a proper divergence


def properness_audit(divergence, q: Distribution, grid_step) -> PropernessAudit:
    """Exhaustively minimize ``div(p, q)`` over a simplex grid of the given step.

    For a proper divergence the reported minimum is at least ``div(q, q)``,
    and for a strictly proper one the argmin lies within one grid step of
    ``q``.  Enumeration is only feasible for small domains.
    """
    if not 0 < float(grid_step) <= 0.5:
        raise ValueError("grid step must lie in (0, 1/2]")
    d = q.dim
    if d > 4:
        raise DomainTooLargeError(f"grid audit supports d <= 4, got {d}")
    denominator = int(round(1 / float(grid_step)))
    reference = eval_divergence(divergence, q, q)
    best_p = None
    best_val = None
    for p in simplex_grid(d, denominator):
        val = eval_divergence(divergence, p, q)
        if best_val is None or val < best_val:
            best_val = val
            best_p = p.probs
    return PropernessAudit(argmin=best_p, minimum=best_val, reference=reference, gap=best_val - reference)
