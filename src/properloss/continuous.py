"""Empirical-CDF losses on the real line, and a random-projection reduction.

The squared difference of two empirical CDFs, integrated over the line, is a
biased estimate of the integrated squared difference of the true CDFs; as in
the discrete case, subtracting an unbiased per-point variance estimate makes
it exactly unbiased.  All integrands here are piecewise constant between the
merged order statistics and vanish outside their hull, so every integral is
a finite closed-form sum over breakpoint gaps.  Arithmetic follows the input
types: rational samples give exact rational losses.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .domain import over_common_denominator
from .errors import DimensionMismatchError, SampleTooSmallError
from .estimators import variance_mvue


def _check_finite(v) -> None:
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"sample values must be finite, got {v!r}")


@dataclass(frozen=True)
class RealSample:
    """A non-empty sample of reals; kept as given, sorted lazily for CDF queries."""

    values: tuple

    _sorted: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(self.values)
        if len(values) == 0:
            raise ValueError("sample must be non-empty")
        for v in values:
            _check_finite(v)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_sorted", tuple(sorted(values)))

    @property
    def size(self) -> int:
        return len(self.values)

    def shifted(self, c) -> "RealSample":
        return RealSample(tuple(v + c for v in self.values))


@dataclass(frozen=True)
class VectorSample:
    """A non-empty sample of real vectors of one common dimension."""

    points: tuple

    def __post_init__(self):
        points = tuple(tuple(p) for p in self.points)
        if len(points) == 0:
            raise ValueError("sample must be non-empty")
        dims = {len(p) for p in points}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed point dimensions {sorted(dims)}")
        for p in points:
            for v in p:
                _check_finite(v)
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])


def ecdf(s: RealSample, x) -> object:
    """Right-continuous empirical CDF: the fraction of sample values <= x."""
    count = bisect_right(s._sorted, x)
    if isinstance(x, float) or isinstance(s._sorted[0], float):
        return count / s.size
    return Fraction(count, s.size)


def _breakpoints(*value_sets) -> list:
    merged = set()
    for vs in value_sets:
        merged.update(vs)
    return sorted(merged)


def cramer_loss(s: RealSample, u: RealSample):
    """Unbiased two-sample loss for the integrated squared CDF difference.

    ``integral (F_s - F_u)^2 - s2_{|s|}(F_s) - s2_{|u|}(F_u) dx`` evaluated in
    closed form over the merged breakpoints.  Outside the hull of the union
    both ECDFs sit at 0 or 1, where every term vanishes, so the sum over
    interior gaps is the whole integral.  Expectation over independent
    samples equals the integrated squared difference of the true CDFs.
    """
    if s.size < 2 or u.size < 2:
        raise SampleTooSmallError("the variance corrections need at least 2 draws per sample")
    breaks = _breakpoints(s.values, u.values)
    acc = 0
    for b0, b1 in zip(breaks, breaks[1:]):
        fs = ecdf(s, b0)
        fu = ecdf(u, b0)
        acc = acc + (b1 - b0) * ((fs - fu) ** 2 - variance_mvue(fs, s.size) - variance_mvue(fu, u.size))
    return acc


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
    single draw suffices on that side.
    """
    if s.size < 2:
        raise SampleTooSmallError("the model-side variance correction needs at least 2 draws")
    _check_finite(y)
    breaks = _breakpoints(s.values, [y])
    acc = 0
    for b0, b1 in zip(breaks, breaks[1:]):
        fs = ecdf(s, b0)
        ind = 1 if b0 >= y else 0
        acc = acc + (b1 - b0) * ((fs - ind) ** 2 - variance_mvue(fs, s.size))
    return acc


def _pair_sum(z: Sequence[int]) -> int:
    """``sum_{i<j} |z_i - z_j|`` of an ascending sequence: ``sum_i z_(i) (2i - n + 1)``, 0-based."""
    n = len(z)
    return sum(v * (2 * i - n + 1) for i, v in enumerate(z))


def energy_loss(s: RealSample, u: RealSample):
    """Unbiased two-sample energy-distance statistic in one dimension.

    ``2 * mean|x - y| - mean|x - x'| - mean|y - y'|`` with the within-sample
    means over ordered distinct pairs.  Its expectation is the energy
    distance, which equals twice the integrated squared CDF difference.

    Cost O((n + m) log(n + m)), from the sorted-sample identities of Székely
    and Rizzo: every value goes over one common denominator (a float is the
    dyadic rational it stores), the within-sample sums are
    ``sum_i x_(i) (2i - n + 1)`` over each sorted sample in integers, and
    the cross sum is the same sum over the merged sample less the two
    within-sample sums.  One Fraction is built at the end.  Int and Fraction
    samples return it exactly; if either sample holds a float the result is
    that Fraction rounded once to a float, so it does not depend on the order
    of either sample, and a value beyond float range raises OverflowError.
    """
    if s.size < 2 or u.size < 2:
        raise SampleTooSmallError("the within-sample means need at least 2 draws per sample")
    values = s._sorted + u._sorted
    scaled = over_common_denominator([Fraction(v) if isinstance(v, float) else v for v in values])
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
    return float(value) if any(isinstance(v, float) for v in values) else value


def _random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


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
    proj_s = RealSample(tuple(float(np.dot(v, point)) for point in s.points))
    proj_u = RealSample(tuple(float(np.dot(v, point)) for point in u.points))
    return float(cramer_loss(proj_s, proj_u))


def load_real_sample(path: str) -> RealSample:
    """One decimal real per line."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                values.append(float(line))
    return RealSample(tuple(values))


def load_vector_sample(path: str) -> VectorSample:
    """Comma-separated reals per line, one vector per line."""
    points = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                points.append(tuple(float(tok) for tok in line.split(",")))
    return VectorSample(tuple(points))
