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
    CountRows,
    Distribution,
    FixedSize,
    Histogram,
    Mode,
    Poisson,
    SamplingScheme,
    empirical,
    over_common_denominator,
    run_starts,
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
    first argument).  ``batch_evaluator`` maps two sides' :class:`CountRows`
    (the model side ``None`` for a target-only loss) to R float loss values in
    any mode; Monte Carlo estimation and the Poisson oracle use it.  It scores
    rows over a domain small against their draws as dense count columns and
    other rows over each row's observed coordinates only
    (:meth:`CountRows.dense_scoring`), with the same bits either way.
    ``pair_evaluator`` scores every pair of a left (model) and a right
    (target) int64 count matrix at once, as a ``(len(left), len(right))``
    float matrix whose entry ``[i, j]`` equals the batch evaluator's value on
    the row pair ``(left[i], right[j])`` bit for bit; ``left`` is ``None``
    for a target-only loss, which gives one row.  The Poisson oracle uses it.
    The series losses score the grid straight from their series table; other
    losses score repeated left and tiled right rows with their batch
    evaluator.  Evaluators are pure apart from internal memoization and safe
    to call concurrently.
    """

    evaluator: Callable[[Optional[Histogram], Histogram], object]
    scheme_p: Optional[SamplingScheme]
    scheme_q: SamplingScheme
    provenance: str
    batch_evaluator: Callable[[Optional[CountRows], CountRows], np.ndarray]
    pair_evaluator: Callable[[Optional[np.ndarray], np.ndarray], np.ndarray]

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
                scaled, self.target = None, tuple(map(float, target)) if mode is Mode.FLOAT else tuple(target)
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
            files, support = self.files, [x for x, v in enumerate(self.target) if v]
            if den is None and mode is Mode.EXACT and all(type(self.target[x]) is float for x in support):
                # a Fraction weight times a float entry is float(weight) times it, so convert each weight once
                self.files = (files[0], _float_weights(files[1]))
            self.constant = self.scalar((), (), self.target, support)
            self.files = files
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

    def batch(self, hp: CountRows, hq: CountRows) -> np.ndarray:
        """Row-wise float estimates over two sides' count rows, from a float-mode two-sample estimator.

        Each row adds the constant, then its terms coordinate by coordinate ascending and in file order within
        one, as the scalar does.  Rows over a domain small against their draws (:meth:`CountRows.dense_scoring`)
        are scored as dense count columns, one coordinate observed in some row at a time; falling-factorial
        columns are kept only while one coordinate's terms are summed.  Other rows are scored over each row's
        own observed coordinates.  Both give the same bits: a term at a coordinate that a row did not observe
        adds a signed zero there, which leaves every sum as it was.
        """
        if hq.dense_scoring(hp):
            return self._dense_batch(hp, hq)
        return self._sparse_batch(hp, hq)

    def _dense_batch(self, hp: CountRows, hq: CountRows) -> np.ndarray:
        files: dict[int, list] = {}
        for side, rows in enumerate((hp, hq)):
            for x in rows.observed().tolist():
                if self.separable:
                    file = [(w, ((x, i),) if i else (), ((x, j),) if j else ()) for w, i, j in self.files[side]]
                else:
                    file = self.files[side].get(x, ())
                if file:
                    files.setdefault(x, []).extend(file)
        sides = (hp.dense(), hq.dense())
        out = np.full(hp.shape[0], float(self.constant))
        column = lambda side, y: sides[side][:, y]
        for x in sorted(files):
            for w, factors in _term_factors(files[x], column):
                out += w * reduce(operator.mul, factors)
        return out

    def _sparse_batch(self, hp: CountRows, hq: CountRows) -> np.ndarray:
        """The (row, coordinate) pairs observed on either side, each scored over the terms filed under its coordinate.

        A template's terms are read at every pair at once, their factors being the pair's own counts; written-out
        terms are read one observed coordinate at a time, their factors looked up in the pairs' rows.  A pair
        with fewer terms than another is padded with zeros."""
        d = hq.shape[1]
        sides = (hp.entries(), hq.entries())
        keys, own = _merged(sides)
        if self.separable:
            template = [(w, ((0, i),) if i else (), ((0, j),) if j else ()) for w, i, j in self.files[0] + self.files[1]]
            values = np.column_stack([w * reduce(operator.mul, factors)
                                      for w, factors in _term_factors(template, lambda side, _: own[side])])
        else:
            cols = keys % d
            order = np.argsort(cols, kind="stable")
            coords, starts = np.unique(cols[order], return_index=True)
            files = [self.files[0].get(x, []) + self.files[1].get(x, []) for x in coords.tolist()]
            values = np.zeros((len(keys), max(map(len, files), default=0)))
            for file, at in zip(files, np.split(order, starts[1:])):
                row_keys = keys[at] - cols[at]
                column = lambda side, y: _lookup(*sides[side], row_keys + y)
                for t, (w, factors) in enumerate(_term_factors(file, column)):
                    values[at, t] = w * reduce(operator.mul, factors)
        return _fold(hq.shape[0], float(self.constant), keys // d, values)


def _term_factors(file, column):
    """Each ``(w, model pairs, target pairs)`` term as ``w`` and its float factor columns ``ff(count, e)``, model first.

    ``column(side, y)`` gives the counts of coordinate ``y`` on one side.  A term's value is ``w`` times the
    factors' product, multiplied left to right."""
    columns: dict[tuple, np.ndarray] = {}
    for w, a, b in file:
        yield w, [_ff_column(column, side, y, e, columns) for side, pairs in ((0, a), (1, b)) for y, e in pairs]


def _ff_column(column, side: int, y: int, e: int, columns: dict) -> np.ndarray:
    """Float column ff(column(side, y), e), memoized in ``columns`` with the lower powers it builds on."""
    key = (side, y, e)
    if key not in columns:
        if e == 1:
            columns[key] = column(side, y).astype(float)
        else:
            columns[key] = _ff_column(column, side, y, e - 1, columns) * (_ff_column(column, side, y, 1, columns) - (e - 1))
    return columns[key]


def _float_weights(file):
    """A file of ``(weight, ...)`` terms, a list or a dict of lists by coordinate, with float weights."""
    if isinstance(file, dict):
        return {x: _float_weights(terms) for x, terms in file.items()}
    return [(float(w), *rest) for w, *rest in file]


def _merged(sides) -> tuple[np.ndarray, list]:
    """The keys observed on either side, ascending, and each side's counts at them (0 where it did not observe one).

    Each side's keys are tagged with the side in their lowest bit and all are sorted at once: a side's keys are
    ascending, so they come out in their own order and their counts follow them without a search."""
    tagged = np.sort(np.concatenate([keys * 2 + side for side, (keys, _) in enumerate(sides)]))
    new = run_starts(tagged >> 1)
    entry = np.cumsum(new) - 1
    own = []
    for side, (_, counts) in enumerate(sides):
        at = np.zeros(np.count_nonzero(new), dtype=np.int64)
        at[entry[(tagged & 1) == side]] = counts
        own.append(at)
    return tagged[new] >> 1, own


def _lookup(keys: np.ndarray, counts: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The counts at the ``query`` keys, 0 at a key absent from the ascending ``keys``."""
    if not len(keys):
        return np.zeros(len(query), dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[at] == query, counts[at], 0)


def _fold(rows: int, start: float, row: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``start`` plus each row's values, added left to right.

    ``values`` holds one line of values per entry, entries grouped by their ascending ``row``; the lines of one
    row are laid side by side, padded with zeros, and summed by :func:`_row_sums`."""
    first = np.flatnonzero(run_starts(row))
    rank = np.arange(len(row)) - np.repeat(first, np.diff(first, append=len(row)))  # an entry's place in its row
    width = values.shape[1]
    table = np.zeros((rows, 1 + width * (1 + int(rank.max(initial=-1)))))
    table[:, 0] = start
    table.reshape(-1)[(row * table.shape[1] + 1 + rank * width)[:, None] + np.arange(width)] = values
    return _row_sums(table)


def compile_known_target(divergence: PolyDivergence, n: int, mode: Mode = Mode.EXACT) -> KnownTargetLoss:
    """Loss against a known target whose expectation over model samples equals
    the divergence.

    At call time the known target takes the place of the target sample in estimator substitution: each term's
    target factor is ``q**b`` itself, and each model monomial is replaced by its unbiased estimator
    (:class:`_Estimator`).  The first call on a target reads its entries once and sums its target-only terms over
    its support; each later one costs O(observed coordinates).  That state is cached per target, a
    ``Distribution`` by its cached hash (its state built from its cached numerators) and a sequence by its values
    and their types, so a ``Distribution`` and its ``probs`` tuple are two targets.  Requires ``n >= deg_p``;
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
        # keyed by the cached hash, and built from the cached numerators: the d entries are read once, not hashed
        if q.dim != d:
            raise DimensionMismatchError(f"target has dimension {q.dim}, divergence needs {d}")
        return _Estimator(divergence, n, mode, target=q)

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
        pair_evaluator=_tiled_pairs(batch.batch),
    )


def _tiled_pairs(batch_evaluator) -> Callable[[Optional[np.ndarray], np.ndarray], np.ndarray]:
    """A pair evaluator that scores every (left row, right row) pair with ``batch_evaluator``, on the left rows
    each repeated ``len(right)`` times against the right rows tiled once per left row."""

    def pair_evaluator(left: Optional[np.ndarray], right: np.ndarray) -> np.ndarray:
        rows = 1 if left is None else len(left)
        hp = None if left is None else CountRows.from_counts(np.repeat(left, len(right), axis=0))
        return batch_evaluator(hp, CountRows.from_counts(np.tile(right, (rows, 1)))).reshape(rows, len(right))

    return pair_evaluator


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


def _series_table(series, complements: np.ndarray) -> np.ndarray:
    """S(0), ..., S(largest of ``complements``) as a float array, from a float-mode :func:`_log_series`."""
    return np.array([series(t) for t in range(int(complements.max(initial=0)) + 1)], dtype=float)


def _series_terms(counts: np.ndarray, scale, values: np.ndarray) -> np.ndarray:
    """The terms ``(counts / scale) * values``, broadcast, as :func:`_series_loss` weighs them; a term is exactly
    0 where its count is 0, even where its series value overflowed to inf (where 0 * inf would be NaN).  A term
    past float range is inf, without a warning: the estimate's report names the non-finite mean."""
    with np.errstate(over="ignore"):
        if not np.isinf(values).any():
            return counts / float(scale) * values
        with np.errstate(invalid="ignore"):  # the masked 0 * inf
            return np.where(counts > 0, counts / float(scale) * values, 0.0)


def _series_batch(series, scale, weights: CountRows, h: CountRows) -> np.ndarray:
    """:func:`_series_loss` in float over count rows, equal to the float scalar row by row.

    ``series`` is a float-mode :func:`_log_series`, whose memo carries over
    from call to call.  Complements at observed coordinates index a dense
    table of S(0), ..., S(largest such complement).  Each row adds its terms
    in ascending coordinate order, the scalar's order: as dense columns
    (:func:`_row_sums`) when the domain is small against the draws per row
    (:meth:`CountRows.dense_scoring`), where every unobserved coordinate adds
    exactly 0; otherwise over each row's observed coordinates only
    (:func:`_fold`)."""
    rows, d = weights.shape
    if weights.dense_scoring(*(() if h is weights else (h,))):
        counts, totals = weights.dense(), _row_sums(h.dense())
        complements = np.where(counts > 0, totals[:, None] - h.dense(), 0)
        sums = _row_sums
    else:
        keys, counts = weights.entries()
        row = keys // d
        complements = h.sizes[row] - (counts if h is weights else _lookup(*h.entries(), keys))
        sums = lambda terms: _fold(rows, 0.0, row, terms[:, None])
    return sums(_series_terms(counts, scale, _series_table(series, complements)[complements]))


def _series_pairs(series, scale, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """:func:`_series_batch` at every (left row, right row) pair, as a ``(len(left), len(right))`` matrix.

    The series values ``S(|left[i]| - left[i, x])`` come from the left rows alone and the weights
    ``right[j, x] / scale`` from the right rows alone, so each coordinate's terms are one outer product of the
    two.  Coordinates are added in ascending order, the batch's order, and one that no right row observed is
    skipped: its terms are all exactly 0, and adding 0 to the nonnegative terms changes no bit."""
    complements = left.sum(axis=1)[:, None] - left
    values = _series_table(series, complements)[complements]
    out = np.zeros((len(left), len(right)))
    for x in np.flatnonzero(right.any(axis=0)).tolist():
        out += _series_terms(right[:, x], scale, values[:, x, None])
    return out


def _series_compiled(rate, scale, mode: Mode, provenance: str, fixed: bool = False,
                     target_only: bool = False) -> CompiledLoss:
    """The Poisson series loss ``sum_x (h_q[x] / scale) * S_rate(count of h_p outside x)``.

    Its target sample has Poisson(scale) size, or exactly ``scale`` draws when ``fixed``; a ``target_only`` loss
    reads ``h_q`` in place of ``h_p`` and has no model scheme, and its pair evaluator gives the one row of the
    right rows' losses.  The float series of the batch and pair evaluators is built once per loss.
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

    def pair_evaluator(left: Optional[np.ndarray], right: np.ndarray) -> np.ndarray:
        if target_only:
            rows = CountRows.from_counts(right)
            return _series_batch(float_series, scale, rows, rows)[None, :]
        return _series_pairs(float_series, scale, left, right)

    return CompiledLoss(
        evaluator=evaluator,
        scheme_p=None if target_only else Poisson(float(rate)),
        scheme_q=FixedSize(scale) if fixed else Poisson(float(scale)),
        provenance=provenance,
        batch_evaluator=lambda hp, hq: _series_batch(float_series, scale, hq, hq if target_only else hp),
        pair_evaluator=pair_evaluator,
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

    # The Poisson oracle scores one right side against many blocks of left rows and never writes into it, so the
    # entropy row is built once per right side.  The last side is held, so that its identity is not reused, with
    # its row in one tuple, so that threads sharing the loss read a side and its row together.
    last = [(None, None)]

    def pair_evaluator(left: Optional[np.ndarray], right: np.ndarray) -> np.ndarray:
        side, row = last[0]
        if side is not right:
            side, row = last[0] = right, ent.pair_evaluator(None, right)
        return ce.pair_evaluator(left, right) - row

    return CompiledLoss(
        evaluator=evaluator,
        scheme_p=Poisson(float(alpha)),
        scheme_q=Poisson(float(beta)),
        provenance=f"KL power-series loss, rates ({alpha}, {beta})",
        batch_evaluator=lambda hp, hq: ce.batch_evaluator(hp, hq) - ent.batch_evaluator(None, hq),
        pair_evaluator=pair_evaluator,
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

    @lru_cache(maxsize=64)
    def tangent_at(q, kinds: tuple) -> tuple:
        # G(q) and grad G(q), once per target: a Distribution by its cached hash, a tuple by its values and their
        # types, as in compile_known_target
        return potential.evaluate(q, q), [g.evaluate(q, q) for g in gradient]

    def evaluator(h: Histogram, q) -> object:
        is_dist = isinstance(q, Distribution)
        qv = q.probs if is_dist else tuple(q)
        if h.dim != d or len(qv) != d:
            raise DimensionMismatchError(f"dimensions ({h.dim}, {len(qv)}), potential needs {d}")
        target = q if is_dist else qv
        est = estimate(h, target)
        phat = empirical(h, mode).probs
        tangent, slopes = tangent_at(target, () if is_dist else tuple(map(type, qv)))
        for x in range(d):
            tangent = tangent + slopes[x] * (phat[x] - qv[x])
        return est - tangent

    return KnownTargetLoss(
        evaluator=evaluator,
        scheme=FixedSize(n),
        provenance=f"Bregman construction, potential degree {potential.deg_p}, n={n}",
    )
