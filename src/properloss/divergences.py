"""Proper divergences: the compiler's input and the verifier's ground truth.

A :class:`PolyDivergence` is a sparse sum of monomials in the model vector
``p`` and the target vector ``q``, written out or, for the separable builtins
(l2, lk:K, brier, the squared norm), held as one :class:`Separable` template
of terms applied to every coordinate.  The log family (cross-entropy, KL,
Shannon entropy) is represented separately by :class:`SeriesDivergence`
because it is not polynomial and may evaluate to ``+inf``.

Properness -- ``div(q, q) <= div(p, q)`` for every fixed ``q`` -- is never
assumed: compilation does not require it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .domain import ENUMERATION_CAP, Distribution, compositions, over_common_denominator
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


class Separable(Sequence):
    """The monomials of ``sum_x sum_(coeff, i, j) coeff * p_x**i * q_x**j``: one template of terms, every coordinate.

    A sequence of :class:`Monomial` in coordinate-major, then term order, the order of the written-out sum.
    Its length is known at once; monomials are built only when iterated or indexed, so a builtin over a
    large domain costs its few terms, not ``d`` times them.  Equality and hashing are a tuple's.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        terms = tuple((c, int(i), int(j)) for c, i, j in terms)
        if dim < 1:
            raise ValueError("domain size must be >= 1")
        if not terms:
            raise ValueError("a polynomial divergence needs at least one monomial")
        if any(c == 0 for c, _, _ in terms):
            raise ValueError("monomial coefficients must be nonzero")
        if any(i < 0 or j < 0 or i + j == 0 for _, i, j in terms):
            raise ValueError("a separable term needs non-negative powers, at least one of them positive")
        if len({(i, j) for _, i, j in terms}) != len(terms):
            raise ValueError("monomial exponent pairs must be pairwise distinct")
        self.dim, self.terms = dim, terms

    def __len__(self) -> int:
        return self.dim * len(self.terms)

    def _monomial(self, x: int, term: tuple) -> Monomial:
        c, i, j = term
        return Monomial(c, ExponentVector.unit(self.dim, x, i), ExponentVector.unit(self.dim, x, j))

    def __iter__(self):
        return (self._monomial(x, term) for x in range(self.dim) for term in self.terms)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        if not -len(self) <= k < len(self):
            raise IndexError("monomial index out of range")
        x, t = divmod(k % len(self), len(self.terms))
        return self._monomial(x, self.terms[t])

    def __eq__(self, other):
        if isinstance(other, Separable):
            return (self.dim, self.terms) == (other.dim, other.terms)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Separable(dim={self.dim}, terms={self.terms!r})"


@dataclass(frozen=True)
class PolyDivergence:
    """A finite sum of monomials with pairwise-distinct exponent pairs.

    ``monomials`` is a tuple of :class:`Monomial`, or a :class:`Separable` template applied to every
    coordinate; ``template`` is that template or ``None``.  Evaluation and the compiler read a template's terms
    directly, so they never build its monomials.  Degree metadata is recomputed from the monomials or the
    template on construction and never trusted from input.
    """

    monomials: Sequence[Monomial]
    deg_p: int = field(init=False)
    deg_q: int = field(init=False)
    template: Optional[Separable] = field(init=False, repr=False, compare=False)
    _coeffs: Optional[tuple] = field(init=False, repr=False, compare=False)  # the coefficients over one denominator

    def __post_init__(self):
        if isinstance(self.monomials, Separable):
            template = self.monomials
            coeffs = [c for c, _, _ in template.terms]
            object.__setattr__(self, "deg_p", max(i for _, i, _ in template.terms))
            object.__setattr__(self, "deg_q", max(j for _, _, j in template.terms))
        else:
            template = None
            monomials = tuple(self.monomials)
            if len(monomials) == 0:
                raise ValueError("a polynomial divergence needs at least one monomial")
            dims = {m.p_exps.dim for m in monomials}
            if len(dims) != 1:
                raise DimensionMismatchError("all monomials must share one domain dimension")
            keys = {(m.p_exps, m.q_exps) for m in monomials}
            if len(keys) != len(monomials):
                raise ValueError("monomial exponent pairs must be pairwise distinct")
            coeffs = [m.coeff for m in monomials]
            object.__setattr__(self, "monomials", monomials)
            object.__setattr__(self, "deg_p", max(m.p_exps.degree for m in monomials))
            object.__setattr__(self, "deg_q", max(m.q_exps.degree for m in monomials))
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "_coeffs", over_common_denominator(coeffs))

    @property
    def dim(self) -> int:
        return self.template.dim if self.template is not None else self.monomials[0].p_exps.dim

    def evaluate(self, p, q, unreduced: bool = False):
        """The sum of the monomials at ``(p, q)``.

        When every entry and coefficient is rational, the sum runs in integers: coefficients and entries
        become numerators over common denominators ``C``, ``Dp`` and ``Dq`` (a :class:`Distribution` keeps
        its own), each monomial is scaled up to degrees ``(deg_p, deg_q)``, and one Fraction over
        ``C * Dp**deg_p * Dq**deg_q`` is returned, or with ``unreduced`` that numerator and denominator as a
        pair, no Fraction built.  Otherwise the same loop runs on the values themselves over 1, with the float
        arithmetic of a plain monomial sum, and its sum is returned either way.  A template is summed
        coordinate by coordinate, term by term, in the order and with the products of its written-out monomials.
        """
        pv, qv = _probs(p), _probs(q)
        if len(pv) != self.dim or len(qv) != self.dim:
            raise DimensionMismatchError(
                f"divergence over dimension {self.dim} evaluated at dimensions {len(pv)}, {len(qv)}"
            )
        scaled = (
            self._coeffs,
            over_common_denominator(p if isinstance(p, Distribution) else pv),
            over_common_denominator(q if isinstance(q, Distribution) else qv),
        )
        exact = None not in scaled
        if exact:
            (coeffs, cden), (pv, dp), (qv, dq) = scaled
        else:
            cden, dp, dq = 1, 1, 1
            if self.template is not None:
                coeffs = [c for c, _, _ in self.template.terms]
            else:
                coeffs = [m.coeff for m in self.monomials]
        acc = 0
        if self.template is not None:
            terms = [
                (c, i, dp ** (self.deg_p - i), j, dq ** (self.deg_q - j))
                for c, (_, i, j) in zip(coeffs, self.template.terms)
            ]
            for a, b in zip(pv, qv):
                for c, i, sp, j, sq in terms:
                    acc = acc + c * (a**i if i else 1) * sp * (b**j if j else 1) * sq
        else:
            for c, m in zip(coeffs, self.monomials):
                acc = acc + (
                    c * _power_product(pv, m.p_exps) * dp ** (self.deg_p - m.p_exps.degree)
                    * _power_product(qv, m.q_exps) * dq ** (self.deg_q - m.q_exps.degree)
                )
        if not exact:
            return acc
        den = cden * dp**self.deg_p * dq**self.deg_q
        return (acc, den) if unreduced else Fraction(acc, den)

    def gradient(self) -> tuple[Optional[PolyDivergence], ...]:
        """The exact partials ``dG/dp_x`` of a p-only polynomial ``G``, one per coordinate, each a p-only polynomial
        with coefficients ``coeff * e`` in ``G``'s monomial order.  A vanishing partial (no monomial holds ``p_x``)
        is ``None``, since a divergence needs a monomial.  A target factor raises ``ValueError``."""
        if self.deg_q != 0:
            raise ValueError("only a polynomial in the model argument alone has a gradient")
        partials: list[list[Monomial]] = [[] for _ in range(self.dim)]
        for m in self.monomials:
            for k, (x, e) in enumerate(m.p_exps.pairs):
                partials[x].append(Monomial(m.coeff * e, _lowered(m.p_exps, k), m.q_exps))
        return tuple(PolyDivergence(tuple(ms)) if ms else None for ms in partials)


def _lowered(exps: ExponentVector, k: int) -> ExponentVector:
    """``exps`` with the power of its ``k``-th factor one lower."""
    x, e = exps.pairs[k]
    return ExponentVector.sparse(exps.dim, exps.pairs[:k] + ((x, e - 1),) + exps.pairs[k + 1:])


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
    """sum over x of ``coeff * p_x**i * q_x**j`` for each ``(coeff, i, j)`` in ``terms``, as a template."""
    return PolyDivergence(Separable(d, terms))


def builtin_l2(d: int) -> PolyDivergence:
    """Squared distance sum_x (p_x - q_x)^2, as a template of three terms per coordinate."""
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
    """Coordinate-wise derivative polynomials 2 p_x of G(p) = sum_x p_x^2."""
    return squared_norm_polynomial(d).gradient()


def bregman_divergence(potential: PolyDivergence) -> PolyDivergence:
    """``G(p) - G(q) - <grad G(q), p - q>``, the Bregman divergence of a p-only polynomial ``G``, as a polynomial.

    A monomial ``c m`` of degree ``k`` gives ``c m(p)``, ``-c e p_x m_x(q)`` for each factor ``p_x**e`` (``m_x``
    is ``m`` with that power one lower) and ``c (k - 1) m(q)`` (Euler: ``<q, grad m(q)> = k m(q)``); like terms
    are merged and zero terms dropped.  A template gives a template: ``squared_norm_polynomial(d)`` gives
    ``builtin_l2(d)``.  Convexity is not checked here.  An affine ``G``, whose divergence is 0, raises
    ``ValueError``, as does a target factor.
    """
    if potential.deg_q != 0:
        raise ValueError("a Bregman potential must be a polynomial in the model argument alone")
    if potential.template is not None:  # one coordinate's divergence is the template of every coordinate
        one = bregman_divergence(PolyDivergence(tuple(Separable(1, potential.template.terms))))
        return _coordinatewise(potential.dim, [(m.coeff, m.p_exps.degree, m.q_exps.degree) for m in one.monomials])
    d, merged, zero = potential.dim, {}, ExponentVector.zero(potential.dim)

    def add(c, a, b):
        merged[a, b] = merged.get((a, b), 0) + c

    for m in potential.monomials:
        add(m.coeff, m.p_exps, zero)
        for k, (x, e) in enumerate(m.p_exps.pairs):
            add(-m.coeff * e, ExponentVector.unit(d, x), _lowered(m.p_exps, k))
        add(m.coeff * (m.p_exps.degree - 1), zero, m.p_exps)
    monomials = tuple(Monomial(c, a, b) for (a, b), c in merged.items() if c != 0)
    if not monomials:
        raise ValueError("the potential is affine, so its Bregman divergence is 0")
    return PolyDivergence(monomials)


#: How many grids :func:`simplex_grid` keeps for the life of the process, the least recently used dropped first.
_GRIDS = 16


def simplex_grid(d: int, denominator: int) -> list[Distribution]:
    """All exact distributions with entries in {0, 1/denominator, ..., 1}.

    Each call returns a new list, of points built once per process and shared: a distribution is immutable, and
    a shared point keeps the hash and common-denominator form it caches, which the exact oracles read.  A grid of
    more than ``ENUMERATION_CAP`` points is refused (:class:`DomainTooLargeError`) before any point is built.
    """
    if d < 1 or denominator < 1:
        raise ValueError("need d >= 1 and denominator >= 1")
    if (count := math.comb(denominator + d - 1, d - 1)) > ENUMERATION_CAP:
        raise DomainTooLargeError(f"a grid of {count} points over {d} outcomes exceeds the cap of {ENUMERATION_CAP}")
    return list(_simplex_points(d, denominator))


@functools.lru_cache(maxsize=_GRIDS)
def _simplex_points(d: int, denominator: int) -> tuple[Distribution, ...]:
    return tuple(
        Distribution.exact([Fraction(c, denominator) for c in comp])
        for comp in compositions(denominator, d)
    )

