"""Minimum-variance unbiased building blocks for sample-only losses.

The package's losses are built from these four estimators:

* ``binom_mvue(t, m, k)``  -- unbiased for ``alpha**k`` when ``T ~ Binomial(m, alpha)``,
* ``multinomial_monomial_mvue(h, n, j)`` -- unbiased for ``prod_x p_x**j_x`` when
  ``H ~ Multinomial(n, p)``,
* ``poisson_factorial(t, k)`` -- unbiased for ``theta**k`` when ``T ~ Poisson(theta)``,
* ``variance_mvue(alpha_hat, n)`` -- unbiased for the variance of a Binomial
  frequency ``alpha_hat = T/n``.

All are falling-factorial ratios, computed with integer arithmetic before the
final division so exact mode stays exact and float mode rounds only once.
The compiler inlines the monomial estimators: it multiplies falling factorials
(``math.perm``) by precomputed weights, integer numerators over one denominator
in exact mode.  The continuous losses inline ``variance_mvue`` the same way: at
``alpha_hat = c/n`` it is ``c(n-c) / (n^2 (n-1))`` in integers, and its own
expression on float64 columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .domain import Histogram, Mode
from .errors import (
    DegreeExceedsSampleError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    SampleTooSmallError,
    TotalMismatchError,
)


def falling_factorial(t: int, k: int) -> int:
    """t(t-1)...(t-k+1); 1 when k == 0, and 0 whenever 0 <= t < k."""
    if k < 0:
        raise ValueError("falling factorial needs k >= 0")
    out = 1
    for i in range(k):
        out *= t - i
    return out


@dataclass(frozen=True, init=False)
class ExponentVector:
    """Non-negative integer exponents of one monomial over a domain of size ``dim``.

    Stored as sorted ``(index, power)`` pairs with power > 0, so a monomial
    costs its number of factors, not the domain size.  The constructor takes
    the dense tuple and :attr:`exps` gives it back; both exist for the
    boundary (spec files, tests), and equality and hashing follow the pairs.
    """

    dim: int
    pairs: tuple[tuple[int, int], ...]
    degree: int = field(compare=False, repr=False)

    def __init__(self, exps: Iterable[int]):
        exps = tuple(exps)
        self._fill(len(exps), enumerate(exps))

    def _fill(self, dim: int, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = tuple((int(i), int(e)) for i, e in pairs if e)
        if any(e < 0 for _, e in pairs):
            raise ValueError("exponents must be non-negative")
        if any(not 0 <= i < dim for i, _ in pairs) or any(i >= j for (i, _), (j, _) in zip(pairs, pairs[1:])):
            raise IndexOutOfRangeError(f"indices of {pairs} must increase strictly within 0..{dim - 1}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "degree", sum(e for _, e in pairs))

    @classmethod
    def sparse(cls, d: int, pairs: Iterable[tuple[int, int]]) -> "ExponentVector":
        """From ``(index, power)`` pairs in increasing index order; zero powers are dropped."""
        out = cls.__new__(cls)
        out._fill(d, pairs)
        return out

    @classmethod
    def zero(cls, d: int) -> "ExponentVector":
        return cls.sparse(d, ())

    @classmethod
    def unit(cls, d: int, x: int, power: int = 1) -> "ExponentVector":
        return cls.sparse(d, ((x, power),))

    @property
    def exps(self) -> tuple[int, ...]:
        """The dense d-tuple of exponents."""
        powers = dict(self.pairs)
        return tuple(powers.get(i, 0) for i in range(self.dim))


def binom_mvue(t: int, m: int, k: int, mode: Mode = Mode.EXACT):
    """Unbiased estimate of ``alpha**k`` from a single Binomial(m, alpha) count.

    Returns ``ff(t, k) / ff(m, k)``: zero when ``t < k`` and one when ``k == 0``.
    """
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    if k > m:
        raise DegreeExceedsSampleError(f"power {k} is not estimable from {m} draws")
    if not 0 <= t <= m:
        raise ValueError(f"count t={t} outside 0..{m}")
    num = falling_factorial(t, k)
    den = falling_factorial(m, k)
    if mode is Mode.EXACT:
        return Fraction(num, den)
    return num / den


def multinomial_monomial_mvue(h: Histogram, n: int, j: ExponentVector, mode: Mode = Mode.EXACT):
    """Unbiased estimate of ``prod_x p_x**j_x`` from one Multinomial(n, p) histogram.

    The estimator is ``prod_x ff(h_x, j_x) / ff(n, deg(j))``.  It vanishes as
    soon as any coordinate count is below its exponent.
    """
    if h.dim != j.dim:
        raise DimensionMismatchError(f"histogram dimension {h.dim} != exponent dimension {j.dim}")
    if h.total != n:
        raise TotalMismatchError(f"histogram total {h.total} != declared sample size {n}")
    if j.degree > n:
        raise DegreeExceedsSampleError(f"monomial degree {j.degree} is not estimable from {n} draws")
    num = math.prod(falling_factorial(h.counts[x], e) for x, e in j.pairs)
    den = falling_factorial(n, j.degree)
    if mode is Mode.EXACT:
        return Fraction(num, den)
    return num / den


def poisson_factorial(t: int, k: int) -> int:
    """t(t-1)...(t-k+1): unbiased for ``theta**k`` under ``T ~ Poisson(theta)``."""
    if t < 0:
        raise ValueError("count t must be >= 0")
    return falling_factorial(t, k)


def variance_mvue(alpha_hat, n: int):
    """Unbiased variance estimate for a Binomial frequency, from the frequency itself.

    ``s2_n(a) = [a(1-a)^2 + (1-a)a^2] / (n-1)`` satisfies
    ``E s2_n(T/n) = a(1-a)/n`` for ``T ~ Binomial(n, a)``.  Works on Fractions
    and floats alike.
    """
    if n < 2:
        raise SampleTooSmallError("variance estimation needs n >= 2")
    if not 0 <= alpha_hat <= 1:
        raise ValueError(f"frequency {alpha_hat!r} outside [0, 1]")
    one = alpha_hat - alpha_hat + 1  # 1 in the operand's arithmetic
    return (alpha_hat * (one - alpha_hat) ** 2 + (one - alpha_hat) * alpha_hat**2) / (n - 1)


def poisson_power_series(t: int, coeffs: Callable[[int], object], rate):
    """Evaluate ``sum_{k=1..t} coeffs(k) * rate**-k * ff(t, k)``.

    This is the generic unbiased estimator of a power series in a Poisson
    parameter: substituting the falling factorial for ``theta**k`` term by
    term.  The sum self-truncates at ``k = t`` because the falling factorial
    kills every later term, so any series -- even one with infinitely many
    coefficients -- is finite on a finite count.

    Arithmetic follows the operand types: pass a Fraction rate and Fraction
    coefficients for an exact result, floats for speed.  The running term
    ``ff(t, k) / rate**k`` keeps a float series clear of huge integers.
    """
    if t < 0:
        raise ValueError("count t must be >= 0")
    if not rate > 0:
        raise ValueError("rate must be > 0")
    acc = 0
    term = 1
    for k in range(1, t + 1):
        term = term * (t - k + 1) / rate  # == ff(t, k) / rate**k
        acc = acc + coeffs(k) * term
    return acc
