"""Empirical-CDF losses on the real line, and a random-projection reduction.

The squared difference of two empirical CDFs, integrated over the line, is a
biased estimate of the integrated squared difference of the true CDFs; as in
the discrete case, subtracting an unbiased per-point variance estimate makes
it exactly unbiased.  All integrands here are piecewise constant between the
merged order statistics and vanish outside their hull, so every integral is
a finite closed-form sum over breakpoint gaps.

``cramer_loss`` and ``crps`` take one of two paths, on whole sorted samples:

* exact, when every value is rational (ints and Fractions): the ECDF counts
  come from bisecting the sorted samples and the sum runs in integer
  numerators over one denominator; the result is one Fraction;
* float, when any value is a float: every value becomes a float64, so a
  sample that mixes floats with rationals is scored in floats.  The ECDF
  columns come from ``np.searchsorted``, and the terms are summed left to
  right from 0.0, so the result is bit for bit the sum of the same terms
  taken one breakpoint at a time in Python floats.

``energy_loss`` and ``projected_cramer_loss`` read the same arrays.  On two
N=1000 normal float samples (2 vCPUs, Python 3.11, numpy 2.4, best call over
six processes) ``cramer_loss`` takes 0.34 ms, ``crps`` 0.12 ms and
``energy_loss`` 0.64 ms, and on two 1000-point 8-d samples
``projected_cramer_loss`` takes 2.0 ms; one breakpoint at a time in Python
numbers they took 4.6, 1.3, 4.8 and 8.3 ms.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Optional, Sequence

import numpy as np

from .domain import is_rational, over_common_denominator
from .errors import DimensionMismatchError, SampleTooSmallError
from .sampling import not_utf8


def _check_finite(v) -> None:
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"sample values must be finite, got {v!r}")


def _finite_floats(values) -> np.ndarray:
    """``values`` as a float64 array, or a ValueError naming the first value that is not finite."""
    array = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"sample values must be finite, got {float(array.flat[np.argmin(finite)])!r}")
    return array


@dataclass(frozen=True)
class RealSample:
    """A non-empty sample of reals, kept as given.

    When any value is a float the sample also holds its values sorted as one float64 array, which the
    float paths read; an all-rational sample holds none.
    """

    values: tuple

    _floats: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(self.values)
        if len(values) == 0:
            raise ValueError("sample must be non-empty")
        floats = None if all(map(is_rational, values)) else np.sort(_finite_floats(values))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_floats", floats)

    @functools.cached_property
    def _sorted(self) -> tuple:
        """The values as given, sorted: exact comparisons for :func:`ecdf`, the exact path and the energy statistic."""
        return tuple(sorted(self.values))

    def _as_floats(self) -> np.ndarray:
        """The values sorted as float64: the array a float sample holds, or the rationals rounded."""
        return self._floats if self._floats is not None else np.array(self._sorted, dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self.values)

    def shifted(self, c) -> "RealSample":
        return RealSample(tuple(v + c for v in self.values))


class VectorSample:
    """A non-empty sample of real vectors of one common dimension, held as one float64 ``(size, dim)`` array."""

    def __init__(self, points: Sequence):
        if len(points) == 0:
            raise ValueError("sample must be non-empty")
        dims = {len(p) for p in points}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed point dimensions {sorted(dims)}")
        self._array = _finite_floats(points)

    @property
    def points(self) -> tuple:
        """The points as tuples of floats."""
        return tuple(map(tuple, self._array.tolist()))

    @property
    def size(self) -> int:
        return self._array.shape[0]

    @property
    def dim(self) -> int:
        return self._array.shape[1]


def ecdf(s: RealSample, x) -> object:
    """Right-continuous empirical CDF: the fraction of sample values <= x.

    A float when ``x`` or any sample value is a float, else a Fraction; the count compares exactly."""
    count = bisect_right(s._sorted, x)
    if isinstance(x, float) or s._floats is not None:
        return count / s.size
    return Fraction(count, s.size)


def _breakpoints(*value_sets) -> list:
    merged = set()
    for vs in value_sets:
        merged.update(vs)
    return sorted(merged)


def _exact_integral(xs: Sequence, ys: Sequence):
    """``integral (F_xs - F_ys)^2 - s2_n(F_xs) - s2_m(F_ys) dx`` over sorted rational samples, as one Fraction.

    ``s2_n(c/n) = c(n-c) / (n^2 (n-1))`` exactly, so each gap's term is an integer over
    ``n^2 m^2 (n-1)(m-1)``, and each gap an integer over the breakpoints' common denominator.
    A one-draw ``ys`` has no variance term: ``c(m-c)`` is 0 at ``m = 1``.
    """
    n, m = len(xs), len(ys)
    breaks = _breakpoints(xs, ys)
    numerators, den = over_common_denominator(breaks)
    lower = breaks[:-1]
    ks, ku = n - 1, max(m - 1, 1)
    # the squared difference and the two variance terms, each over n^2 m^2 ks ku
    w_diff, w_s, w_u = ks * ku, m * m * ku, n * n * ks
    total = sum(
        (b1 - b0) * ((a * m - c * n) ** 2 * w_diff - a * (n - a) * w_s - c * (m - c) * w_u)
        for b0, b1, a, c in zip(
            numerators, numerators[1:], map(bisect_right, repeat(xs), lower), map(bisect_right, repeat(ys), lower)
        )
    )
    return Fraction(total, den * n * n * m * m * ks * ku)


def _variance(f: np.ndarray, n: int) -> np.ndarray:
    """:func:`~properloss.estimators.variance_mvue` of each float frequency, in its operation order."""
    one_less = 1.0 - f
    return (f * np.float_power(one_less, 2) + one_less * np.float_power(f, 2)) / (n - 1)


def _float_integral(xs: np.ndarray, ys: np.ndarray) -> float:
    """:func:`_exact_integral` over sorted float64 samples, each term as Python floats would round it.

    ``np.float_power`` calls the C library's ``pow``, as Python's ``**`` does; ``np.square`` rounds
    ``x * x`` and differs from ``pow(x, 2)`` in about one value in a thousand.  ``np.add.accumulate``
    adds the terms left to right, where ``np.sum`` would add them pairwise.  A gap past float range
    gives an inf or nan term, as in Python floats.
    """
    n, m = len(xs), len(ys)
    breaks = np.unique(np.concatenate((xs, ys)))
    lower = breaks[:-1]
    fs = np.searchsorted(xs, lower, side="right") / n
    fu = np.searchsorted(ys, lower, side="right") / m
    with np.errstate(over="ignore", invalid="ignore"):
        term = np.float_power(fs - fu, 2) - _variance(fs, n)
        if m > 1:
            term -= _variance(fu, m)
        terms = (breaks[1:] - lower) * term
        return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def cramer_loss(s: RealSample, u: RealSample):
    """Unbiased two-sample loss for the integrated squared CDF difference.

    ``integral (F_s - F_u)^2 - s2_{|s|}(F_s) - s2_{|u|}(F_u) dx`` evaluated in
    closed form over the merged breakpoints.  Outside the hull of the union
    both ECDFs sit at 0 or 1, where every term vanishes, so the sum over
    interior gaps is the whole integral.  Expectation over independent
    samples equals the integrated squared difference of the true CDFs.
    A Fraction for rational samples, a float when either holds a float.
    """
    if s.size < 2 or u.size < 2:
        raise SampleTooSmallError("the variance corrections need at least 2 draws per sample")
    if s._floats is None and u._floats is None:
        return _exact_integral(s._sorted, u._sorted)
    return _float_integral(s._as_floats(), u._as_floats())


def cramer_distance_oracle(p_support: Sequence, p_weights: Sequence, q_support: Sequence, q_weights: Sequence):
    """Integrated squared CDF difference between two finite-support distributions.

    Ground truth for the unbiasedness checks: exact piecewise integration of
    ``(F_p - F_q)^2`` with no sampling involved.
    """
    if len(p_support) != len(p_weights) or len(q_support) != len(q_weights):
        raise ValueError("support and weight lists must align")
    p_pairs = sorted(zip(p_support, p_weights))
    q_pairs = sorted(zip(q_support, q_weights))

    def cdf(pairs, x):
        acc = 0
        for point, w in pairs:
            if point <= x:
                acc = acc + w
        return acc

    breaks = _breakpoints([a for a, _ in p_pairs], [a for a, _ in q_pairs])
    acc = 0
    for b0, b1 in zip(breaks, breaks[1:]):
        diff = cdf(p_pairs, b0) - cdf(q_pairs, b0)
        acc = acc + (b1 - b0) * diff**2
    return acc


def crps(s: RealSample, y):
    """Loss of a model sample against a single target draw.

    ``integral (F_s - 1{x >= y})^2 - s2_{|s|}(F_s) dx``: the squared distance
    between the model ECDF and the one-draw target ECDF, with the model-side
    variance correction.  One target draw contributes no correctable variance
    term of its own (an indicator equals its square), which is exactly why a
    single draw suffices on that side.  A Fraction when ``s`` and ``y`` are
    rational, else a float.
    """
    if s.size < 2:
        raise SampleTooSmallError("the model-side variance correction needs at least 2 draws")
    _check_finite(y)
    if s._floats is None and is_rational(y):
        return _exact_integral(s._sorted, (y,))
    return _float_integral(s._as_floats(), np.array([y], dtype=np.float64))


def _pair_sum(z: Sequence[int]) -> int:
    """``sum_{i<j} |z_i - z_j|`` of an ascending sequence: ``sum_i z_(i) (2i - n + 1)``, 0-based.

    ``sum_i i z_(i)`` is the sum of the suffix sums past the first, so the whole is
    ``2 * (sum of all suffix sums) - (n + 1) * total``: additions only.
    """
    suffix = list(accumulate(reversed(z)))
    return 2 * sum(suffix) - (len(z) + 1) * suffix[-1]


def _dyadic(values: np.ndarray) -> tuple[list, int]:
    """Finite float64 ``values`` as ``(numerators, D)``: ``values[i] == numerators[i] / D``, ``D`` a power of two."""
    mantissas, exponents = np.frexp(values)  # |mantissa| in [0.5, 1), or 0
    shifts = exponents - 53  # each value is an integer mantissa times 2**shift
    low = min(int(shifts.min()), 0)
    ints = (mantissas * 2.0**53).astype(np.int64)
    return list(map(operator.lshift, ints.tolist(), (shifts - low).tolist())), 1 << -low


def energy_loss(s: RealSample, u: RealSample):
    """Unbiased two-sample energy-distance statistic in one dimension.

    ``2 * mean|x - y| - mean|x - x'| - mean|y - y'|`` with the within-sample
    means over ordered distinct pairs.  Its expectation is the energy
    distance, which equals twice the integrated squared CDF difference.

    Cost O((n + m) log(n + m)), from the sorted-sample identities of Székely
    and Rizzo: every value goes over one common denominator, the
    within-sample sums are ``sum_i x_(i) (2i - n + 1)`` over each sorted
    sample in integers, and the cross sum is the same sum over the merged
    sample less the two within-sample sums.  One Fraction is built at the
    end.  Int and Fraction samples return it exactly; if either sample holds
    a float the result is that Fraction rounded once to a float, so it does
    not depend on the order of either sample, and a value beyond float range
    raises OverflowError.  When every value is a float, ``np.frexp`` reads
    the numerators from the float64 arrays.
    """
    if s.size < 2 or u.size < 2:
        raise SampleTooSmallError("the within-sample means need at least 2 draws per sample")
    if all(map(isinstance, s.values + u.values, repeat(float))):
        numerators, den = _dyadic(np.concatenate((s._floats, u._floats)))
    else:
        scaled = over_common_denominator([Fraction(v) if isinstance(v, float) else v for v in s._sorted + u._sorted])
        if scaled is None:
            raise TypeError("sample values must be ints, Fractions or floats")
        numerators, den = scaled
    n, m = s.size, u.size
    within_s, within_u = _pair_sum(numerators[:n]), _pair_sum(numerators[n:])
    cross = _pair_sum(sorted(numerators)) - within_s - within_u
    # ordered distinct pairs double the one-triangle sums
    value = Fraction(
        2 * (cross * (n - 1) * (m - 1) - within_s * m * (m - 1) - within_u * n * (n - 1)),
        n * m * (n - 1) * (m - 1) * den,
    )
    return value if s._floats is None and u._floats is None else float(value)


def _random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def _projected(v: np.ndarray, s: VectorSample) -> np.ndarray:
    """Each point's ``np.dot`` with ``v``, sorted; ``points @ v`` sums in another order and differs in the last bits."""
    with np.errstate(over="ignore"):  # a projection past float range is an inf, which the finiteness check names
        values = np.fromiter(map(np.dot, repeat(v), s._array), dtype=np.float64, count=s.size)
    return np.sort(_finite_floats(values))


def projected_cramer_loss(s: VectorSample, u: VectorSample, seed: int) -> float:
    """Project both vector samples onto a seeded random direction, then score in 1-D.

    The direction is uniform on the unit sphere (normalized Gaussian).
    Averaged over directions and samples, the expectation is the
    sphere-integrated squared difference of directional CDFs, which vanishes
    exactly when the two distributions coincide.
    """
    if s.dim != u.dim:
        raise DimensionMismatchError(f"sample dimensions {s.dim} != {u.dim}")
    if s.size < 2 or u.size < 2:
        raise SampleTooSmallError("need at least 2 draws per sample")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    v = _random_unit_vector(s.dim, rng)
    return _float_integral(_projected(v, s), _projected(v, u))


def _parse_lines(path: str, parse) -> list:
    """``parse(line)`` of each non-blank line of the UTF-8 file ``path``, split as text mode splits lines.

    A byte that is not UTF-8 raises a ValueError, and a line that ``parse`` refuses with a ValueError
    raises one of the same type; both name the file and the line.
    """
    with open(path, "rb") as handle:
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        number = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"sample file {path!r} line {number}: {not_utf8(exc)}") from None
    parsed = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                parsed.append(parse(line))
            except ValueError as exc:
                raise type(exc)(f"sample file {path!r} line {number}: {exc}") from None
    return parsed


def load_real_sample(path: str) -> RealSample:
    """One decimal real per line."""
    return RealSample(_parse_lines(path, float))


def load_vector_sample(path: str) -> VectorSample:
    """Comma-separated reals per line, one vector per line."""
    width = None

    def point(line: str) -> list:
        nonlocal width
        values = list(map(float, line.split(",")))
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DimensionMismatchError(f"mixed point dimensions {sorted({width, len(values)})}")
        return values

    return VectorSample(_parse_lines(path, point))
