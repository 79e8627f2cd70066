"""Constructors that turn divergences into sample-only losses.

The central move is estimator substitution: write the divergence as a sum of
monomials, replace every monomial by its minimum-variance unbiased estimator
evaluated on the sample histogram, and the resulting loss has the divergence
as its exact expectation under the declared sampling scheme.

Two loss shapes exist.  A :class:`KnownTargetLoss` scores a model-sample
histogram against a fully known target distribution; a :class:`CompiledLoss`
scores a pair of histograms, one drawn from the model and one from the
target.  Fixed-size schemes admit polynomial divergences up to the sample
sizes' degrees; Poisson-size schemes additionally admit power series, which
is how the log family (cross-entropy, KL, Shannon entropy) becomes
implementable.  Every polynomial loss, the squared distance included, is
compiled: there is no separate closed form to keep in step.

Compilation refuses sample sizes below the divergence's degrees
(:class:`~properloss.errors.DegreeGateError`): that boundary is tight, not a
convenience check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import perm  # perm(c, e) is the falling factorial ff(c, e), 0 when c < e
from typing import Callable, Optional, Sequence

import numpy as np

from .divergences import PolyDivergence, simplex_grid
from .domain import (
    Distribution,
    FixedSize,
    Histogram,
    Mode,
    Poisson,
    SamplingScheme,
    empirical,
    over_common_denominator,
)
from .errors import (
    DegreeGateError,
    DimensionMismatchError,
    DomainTooLargeError,
    TotalMismatchError,
)
from .estimators import falling_factorial, poisson_power_series


@dataclass(frozen=True)
class KnownTargetLoss:
    """A loss L(h, q): model-sample histogram against a known target distribution."""

    evaluator: Callable[[Histogram, Distribution], object]
    scheme: FixedSize
    provenance: str

    def evaluate(self, h: Histogram, q: Distribution):
        return self.evaluator(h, q)


@dataclass(frozen=True)
class CompiledLoss:
    """A loss L(h_p, h_q) over a pair of sample histograms.

    ``scheme_p`` is ``None`` for target-only losses (the evaluator ignores its
    first argument).  ``batch_evaluator`` maps two (R, d) count matrices to R
    float loss values in any mode; Monte Carlo estimation uses it.  Evaluators
    are pure apart from internal memoization and safe to call concurrently.
    """

    evaluator: Callable[[Optional[Histogram], Histogram], object]
    scheme_p: Optional[SamplingScheme]
    scheme_q: SamplingScheme
    provenance: str
    batch_evaluator: Callable[[Optional[np.ndarray], np.ndarray], np.ndarray]

    def evaluate(self, h_p: Optional[Histogram], h_q: Histogram):
        return self.evaluator(h_p, h_q)


def _check_fixed_total(h: Histogram, n: int, side: str) -> None:
    if h.total != n:
        raise TotalMismatchError(f"{side} histogram has total {h.total}, scheme requires exactly {n}")


class _Estimator:
    """Estimator substitution for a divergence's terms ``coeff * p**a * q**b`` on a model histogram and a target side.

    The target side is a sample of ``m``, where ``q**b`` becomes ``ff(h_q; b) / ff(m, |b|)``, or a known target,
    where ``q**b`` stays.  A term vanishes unless every count reaches its power, so terms are filed under their first
    model coordinate (or, with no model factor, their first target coordinate) and only observed coordinates are
    visited; a known target's target-only terms are summed here, once, over the target's support.  A template's
    ``(coeff, i, j)`` terms are read at every observed coordinate, so building costs O(1) whatever d.  Exact mode
    with rational coefficients sums integer weights over one denominator ``C ff(n, deg_a) ff(m, deg_b)``, or
    ``C ff(n, deg_a) D**deg_b`` against a target of numerators over ``D``, and divides once; otherwise the weights
    are the quotients, and a known target's values (floats in float mode) are used over 1.
    """

    def __init__(self, divergence: PolyDivergence, n: int, mode: Mode, m: int = 0, target: Optional[tuple] = None):
        self.separable = separable = divergence.template is not None
        monomials = divergence.monomials
        terms = divergence.template.terms if separable else [(t.coeff, t.p_exps, t.q_exps) for t in monomials]
        degrees = terms if separable else [(c, a.degree, b.degree) for c, a, b in terms]  # (coeff, |a|, |b|)
        deg_a, deg_b = divergence.deg_p, divergence.deg_q
        scaled = divergence._coeffs if mode is Mode.EXACT else None
        self.target = target
        if target is not None:
            known = over_common_denominator(target) if scaled is not None else None
            if known is None:
                scaled, self.target = None, tuple(map(float, target)) if mode is Mode.FLOAT else target
            else:
                self.target, tden = known
        if scaled is not None:  # the target side's share of each weight, by degree j
            nums, cden = scaled
            if target is None:
                share = [falling_factorial(m - j, deg_b - j) for j in range(deg_b + 1)]
            else:
                share = [tden ** (deg_b - j) for j in range(deg_b + 1)]
            den, self.constant = cden * falling_factorial(n, deg_a) * share[0], 0
            weights = [c * falling_factorial(n - i, deg_a - i) * share[j] for c, (_, i, j) in zip(nums, degrees)]
        else:
            den, self.constant = None, 0.0 if mode is Mode.FLOAT else Fraction(0)
            weights, memo = [], {}
            for c, i, j in degrees:
                key = (type(c), c, i, j)  # 1 and 1.0 differ: a float coefficient keeps a float weight
                if key not in memo:
                    w = c * Fraction(1, falling_factorial(n, i) * (falling_factorial(m, j) if target is None else 1))
                    memo[key] = float(w) if mode is Mode.FLOAT else w
                weights.append(memo[key])
        self.files: tuple = ([], []) if separable else ({}, {})
        for w, (_, a, b) in zip(weights, terms):
            if separable:
                self.files[0 if a else 1].append((w, a, b))
            elif a.pairs or b.pairs:
                side = 0 if a.pairs else 1
                self.files[side].setdefault((a.pairs or b.pairs)[0][0], []).append((w, a.pairs, b.pairs))
            else:
                self.constant += w
        self.den = None  # unset while a known target's constant is summed, so that it stays a numerator
        if target is not None:
            self.constant = self.scalar((), (), self.target, [x for x, v in enumerate(self.target) if v])
        self.den = den

    def scalar(self, counts_p, support_p, counts_q=None, support_q=()):
        """The estimate at a model and a target histogram, or, with ``counts_q`` left ``None``, at the known target."""
        acc, power = self.constant, perm if self.target is None else pow  # a j = 0 factor stays the integer 1
        if counts_q is None:
            counts_q = self.target
        for side, support in ((0, support_p), (1, support_q)):
            file = self.files[side]
            if self.separable:  # each (weight, i, j) at every x; a target-only term has i = 0, and perm(0, 0) = 1
                for x in support:
                    c, v = counts_p[x] if side == 0 else 0, counts_q[x]
                    for w, i, j in file:
                        num = perm(c, i) * (power(v, j) if j else 1)
                        if num:
                            acc = acc + w * num
                continue
            for x in support:
                for w, a, b in file.get(x, ()):
                    num = 1
                    for y, e in a:
                        num *= perm(counts_p[y], e)
                    for y, e in b:
                        num *= power(counts_q[y], e)
                    if num:
                        acc = acc + w * num
        return acc if self.den is None else Fraction(acc, self.den)

    def batch(self, hp: np.ndarray, hq: np.ndarray) -> np.ndarray:
        """Row-wise float estimates over two (R, d) count matrices, from a float-mode two-sample estimator.

        Only the terms of coordinates observed in some row are visited.
        Falling-factorial columns are kept only while one coordinate's terms
        are summed, so memory stays at a few columns whatever d and the degrees.
        """
        sides = (np.asarray(hp), np.asarray(hq))
        files: dict[int, list] = {}
        for side, counts in enumerate(sides):
            for x in np.flatnonzero(counts.any(axis=0)).tolist():
                if self.separable:
                    file = [(w, ((x, i),) if i else (), ((x, j),) if j else ()) for w, i, j in self.files[side]]
                else:
                    file = self.files[side].get(x, ())
                if file:
                    files.setdefault(x, []).extend(file)
        out = np.full(len(sides[0]), float(self.constant))
        for x in sorted(files):
            columns: dict[tuple, np.ndarray] = {}
            for w, a, b in files[x]:
                factors = [_ff_column(sides, side, y, e, columns) for side, pairs in ((0, a), (1, b)) for y, e in pairs]
                out += w * reduce(operator.mul, factors)
        return out


def _ff_column(sides, side: int, y: int, e: int, columns: dict) -> np.ndarray:
    """Float column ff(counts[:, y], e) of one side, memoized in ``columns`` with the lower powers it builds on."""
    key = (side, y, e)
    if key not in columns:
        if e == 1:
            columns[key] = sides[side][:, y].astype(float)
        else:
            columns[key] = _ff_column(sides, side, y, e - 1, columns) * (_ff_column(sides, side, y, 1, columns) - (e - 1))
    return columns[key]


def compile_known_target(divergence: PolyDivergence, n: int, mode: Mode = Mode.EXACT) -> KnownTargetLoss:
    """Loss against a known target whose expectation over model samples equals
    the divergence.

    At call time the known target takes the place of the target sample in estimator substitution: each term's
    target factor is ``q**b`` itself, and each model monomial is replaced by its unbiased estimator
    (:class:`_Estimator`).  The first call on a target reads its entries once and sums its target-only terms over
    its support; each later one costs O(observed coordinates).  That state is cached per target, a
    ``Distribution`` by its cached hash and a sequence by its values and their types.  Requires ``n >= deg_p``;
    below that no unbiased loss exists.
    """
    if n < divergence.deg_p:
        raise DegreeGateError(divergence.deg_p)
    if n < 1:
        raise ValueError("sample size must be >= 1")
    d = divergence.dim

    @lru_cache(maxsize=64)
    def by_values(qv: tuple, kinds: tuple):
        # ``kinds`` keeps 1/2 and 0.5 apart: they hash alike but give exact and float weights
        if len(qv) != d:
            raise DimensionMismatchError(f"target has dimension {len(qv)}, divergence needs {d}")
        return _Estimator(divergence, n, mode, target=qv)

    @lru_cache(maxsize=64)
    def by_distribution(q: Distribution):
        return by_values(q.probs, tuple(map(type, q.probs)))  # so a Distribution and its tuple share one state

    def evaluator(h: Histogram, q) -> object:
        if h.dim != d:
            raise DimensionMismatchError(f"histogram dimension {h.dim}, divergence needs {d}")
        _check_fixed_total(h, n, "model")
        if isinstance(q, Distribution):
            return by_distribution(q).scalar(h.counts, h.support)
        qv = tuple(q)
        return by_values(qv, tuple(map(type, qv))).scalar(h.counts, h.support)

    return KnownTargetLoss(
        evaluator=evaluator,
        scheme=FixedSize(n),
        provenance=f"estimator substitution, known target, degree {divergence.deg_p}, n={n}",
    )


def compile_two_sample(divergence: PolyDivergence, n: int, m: int, mode: Mode = Mode.EXACT) -> CompiledLoss:
    """Loss over (model, target) histogram pairs implementing the divergence.

    ``L(h_p, h_q) = sum_k a_k * t(h_p; i_k) * t(h_q; j_k)`` where each ``t``
    is the unbiased monomial estimator for its side.  Unbiasedness of each
    factor plus independence of the two samples gives ``E L = divergence``.
    Requires ``n >= deg_p`` and ``m >= deg_q`` (both gates are tight).
    Evaluation visits only monomials filed under observed coordinates, so its
    cost follows the samples' support, not the domain size.
    """
    if n < divergence.deg_p or m < divergence.deg_q:
        raise DegreeGateError(divergence.deg_p, divergence.deg_q)
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be >= 1")
    d = divergence.dim
    scalar = _Estimator(divergence, n, mode, m)
    batch = scalar if mode is Mode.FLOAT else _Estimator(divergence, n, Mode.FLOAT, m)

    def evaluator(h_p: Histogram, h_q: Histogram) -> object:
        if h_p.dim != d or h_q.dim != d:
            raise DimensionMismatchError(f"histogram dimensions ({h_p.dim}, {h_q.dim}), divergence needs {d}")
        _check_fixed_total(h_p, n, "model")
        _check_fixed_total(h_q, m, "target")
        return scalar.scalar(h_p.counts, h_p.support, h_q.counts, h_q.support)

    return CompiledLoss(
        evaluator=evaluator,
        scheme_p=FixedSize(n),
        scheme_q=FixedSize(m),
        provenance=(
            f"estimator substitution, two samples, degrees ({divergence.deg_p}, {divergence.deg_q}), "
            f"n={n}, m={m}"
        ),
        batch_evaluator=batch.batch,
    )


def _log_series(rate, mode: Mode) -> Callable[[int], object]:
    """Memoized S(t) = sum_{k=1..t} (1/k) rate**-k ff(t, k).

    This is the unbiased estimator of ``-ln(theta / rate)``'s Taylor series
    evaluated on a Poisson(theta) count: ``E S(T) = -ln(1 - theta/rate)``
    whenever ``theta < rate``, extended by the estimator's own convergence.
    """
    if not rate > 0:
        raise ValueError("rate must be > 0")
    if mode is Mode.EXACT:
        r = Fraction(rate)
        coeffs = lambda k: Fraction(1, k)
    else:
        r = float(rate)
        coeffs = lambda k: 1.0 / k
    return cache(lambda t: poisson_power_series(t, coeffs, r))


def _series_loss(series, scale, weights: Histogram, h: Histogram):
    """sum over x observed in ``weights`` of (weights[x] / scale) * series(count of h outside x)."""
    acc = 0
    for x in weights.support:
        acc = acc + (weights.counts[x] / scale) * series(h.complement(x))
    return acc


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Row totals of a 2-d matrix, adding its columns left to right.

    These are the adds of ``np.cumsum(a, axis=1)[:, -1]``, so the result equals
    it bit for bit, NaN, inf and -0.0 included (``a.sum(axis=1)`` adds pairwise
    and may differ).  A matrix with at least as many rows as columns loops
    over its columns, a few vectorized adds in place of cumsum's fixed cost; a
    wide one keeps cumsum, since the loop costs one Python iteration per
    column.  Cumsum also keeps bools and narrow integers, which it widens.
    """
    rows, cols = a.shape
    if rows < cols or cols < 2 or (a.dtype.kind in "biu" and a.dtype.itemsize < 8):
        return np.cumsum(a, axis=1)[:, -1]
    acc = a[:, 0] + a[:, 1]
    for j in range(2, cols):
        acc += a[:, j]
    return acc


def _series_batch(series, scale, weights: np.ndarray, h: np.ndarray) -> np.ndarray:
    """:func:`_series_loss` in float over (R, d) count matrices, equal to the float scalar row by row.

    ``series`` is a float-mode :func:`_log_series`, whose memo carries over
    from call to call.  Complements at observed coordinates index a dense
    table of S(0), ..., S(largest such complement); every other coordinate
    looks up S(0) = 0, so it adds exactly 0 even where its own S would
    overflow to inf.  Each row adds its terms column by column in index
    order (:func:`_row_sums`), the scalar's order."""
    complements = np.where(weights > 0, _row_sums(h)[:, None] - h, 0)
    table = np.array([series(t) for t in range(int(complements.max(initial=0)) + 1)], dtype=float)
    return _row_sums(weights / float(scale) * table[complements])


def _series_compiled(rate, scale, mode: Mode, provenance: str, fixed: bool = False,
                     target_only: bool = False) -> CompiledLoss:
    """The Poisson series loss ``sum_x (h_q[x] / scale) * S_rate(count of h_p outside x)``.

    Its target sample has Poisson(scale) size, or exactly ``scale`` draws when ``fixed``; a ``target_only`` loss
    reads ``h_q`` in place of ``h_p`` and has no model scheme.  The float series of the batch evaluator is built
    once per loss.
    """
    series = _log_series(rate, mode)
    float_series = series if mode is Mode.FLOAT else _log_series(rate, Mode.FLOAT)
    scale_val = Fraction(scale) if mode is Mode.EXACT else float(scale)

    def evaluator(h_p: Histogram, h_q: Histogram) -> object:
        if target_only:
            h_p = h_q
        elif h_p.dim != h_q.dim:
            raise DimensionMismatchError(f"histogram dimensions {h_p.dim} != {h_q.dim}")
        if fixed:
            _check_fixed_total(h_q, scale, "target")
        return _series_loss(series, scale_val, h_q, h_p)

    return CompiledLoss(
        evaluator=evaluator,
        scheme_p=None if target_only else Poisson(float(rate)),
        scheme_q=FixedSize(scale) if fixed else Poisson(float(scale)),
        provenance=provenance,
        batch_evaluator=lambda hp, hq: _series_batch(float_series, scale, hq, hq if target_only else hp),
    )


def cross_entropy_poisson(alpha: float, beta: float, mode: Mode = Mode.FLOAT) -> CompiledLoss:
    """Poisson-size loss whose expectation is the cross-entropy -sum_x q_x ln p_x.

    ``L(h_p, h_q) = sum_x (h_q[x]/beta) * S_alpha(h_p minus x)``, where
    ``S_alpha`` is the log power-series estimator evaluated on the count of
    everything except ``x``.  The inner sum self-truncates, so the loss is
    finite on every histogram pair even when the divergence itself is +inf.
    """
    return _series_compiled(alpha, beta, mode, f"cross-entropy power-series loss, rates ({alpha}, {beta})")


def cross_entropy_poisson_fixed_target(alpha: float, m: int, mode: Mode = Mode.FLOAT) -> CompiledLoss:
    """Cross-entropy loss with a Poisson model sample but a fixed-size target sample.

    The target side only needs the empirical frequency, so any ``m >= 1``
    works: ``L = sum_x qhat_x * S_alpha(h_p minus x)``.
    """
    if m < 1:
        raise ValueError("target sample size must be >= 1")
    return _series_compiled(alpha, m, mode, f"cross-entropy power-series loss, rate {alpha}, fixed target size {m}",
                            fixed=True)


def entropy_poisson(beta: float, mode: Mode = Mode.FLOAT) -> CompiledLoss:
    """Target-only Poisson loss whose expectation is the Shannon entropy -sum_x q_x ln q_x.

    Uses that under Poisson sampling the count at ``x`` and the count of
    everything else are independent: ``L(h_q) = sum_x (h_q[x]/beta) *
    S_beta(h_q minus x)`` has expectation ``sum_x q_x * (-ln q_x) >= 0``.
    The model histogram is ignored (``scheme_p`` is ``None``).
    """
    return _series_compiled(beta, beta, mode, f"Shannon-entropy power-series loss, rate {beta}", target_only=True)


def kl_poisson(alpha: float, beta: float, mode: Mode = Mode.FLOAT) -> CompiledLoss:
    """Poisson-size loss whose expectation is sum_x q_x ln(q_x / p_x).

    KL decomposes as cross-entropy minus Shannon entropy of the target, and
    both parts are implementable under Poisson sampling, so the loss is the
    difference of the two estimators on the same histogram pair.
    """
    ce = cross_entropy_poisson(alpha, beta, mode)
    ent = entropy_poisson(beta, mode)

    def evaluator(h_p: Histogram, h_q: Histogram) -> object:
        return ce.evaluator(h_p, h_q) - ent.evaluator(None, h_q)

    return CompiledLoss(
        evaluator=evaluator,
        scheme_p=Poisson(float(alpha)),
        scheme_q=Poisson(float(beta)),
        provenance=f"KL power-series loss, rates ({alpha}, {beta})",
        batch_evaluator=lambda hp, hq: ce.batch_evaluator(hp, hq) - ent.batch_evaluator(None, hq),
    )


def convexity_audit(potential: PolyDivergence, denominator: int = 8) -> bool:
    """Midpoint-inequality check of a p-only polynomial on a simplex grid.

    Numerical evidence only, not a proof; exact arithmetic on grid midpoints.
    """
    d = potential.dim
    if d > 4:
        raise DomainTooLargeError(f"convexity audit supports d <= 4, got {d}")
    points = simplex_grid(d, denominator)
    values = [potential.evaluate(a, a) for a in points]  # each grid point once, not once per pair
    for i, a in enumerate(points):
        for j in range(i + 1, len(points)):
            mid = tuple((u + v) / 2 for u, v in zip(a.probs, points[j].probs))
            if potential.evaluate(mid, mid) * 2 > values[i] + values[j]:
                return False
    return True


def bregman_known_target(
    potential: PolyDivergence,
    gradient: Sequence[PolyDivergence],
    n: int,
    mode: Mode = Mode.EXACT,
    audit_denominator: int | None = 8,
) -> KnownTargetLoss:
    """Known-target loss implementing the Bregman divergence of a convex polynomial.

    Given a potential ``G`` and its coordinate-wise derivative polynomials,
    the loss replaces ``G(p)`` by its unbiased estimate from the histogram and
    keeps the tangent part exact in the known target:

        ``L(h, q) = est_G(h) - [G(q) + <grad G(q), phat - q>]``

    Its expectation is ``G(p) - G(q) - <grad G(q), p - q>``.  Convexity of the
    potential is the caller's assertion; it is audited on a grid unless
    ``audit_denominator`` is ``None``.
    """
    d = potential.dim
    if potential.deg_q != 0:
        raise ValueError("the potential must be a polynomial in the model argument only")
    if len(gradient) != d:
        raise DimensionMismatchError(f"need {d} gradient polynomials, got {len(gradient)}")
    for g in gradient:
        if g.dim != d or g.deg_q != 0:
            raise ValueError("gradient entries must be p-only polynomials over the same domain")
    estimate = compile_known_target(potential, n, mode).evaluator  # applies the degree gate
    if audit_denominator is not None and not convexity_audit(potential, audit_denominator):
        raise ValueError("potential failed the convexity audit; Bregman construction needs a convex potential")

    def evaluator(h: Histogram, q) -> object:
        qv = q.probs if isinstance(q, Distribution) else tuple(q)
        if h.dim != d or len(qv) != d:
            raise DimensionMismatchError(f"dimensions ({h.dim}, {len(qv)}), potential needs {d}")
        est = estimate(h, qv)
        phat = empirical(h, mode).probs
        tangent = potential.evaluate(qv, qv)
        for x in range(d):
            tangent = tangent + gradient[x].evaluate(qv, qv) * (phat[x] - qv[x])
        return est - tangent

    return KnownTargetLoss(
        evaluator=evaluator,
        scheme=FixedSize(n),
        provenance=f"Bregman construction, potential degree {potential.deg_p}, n={n}",
    )
