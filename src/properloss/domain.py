"""Finite domains, distributions, histograms, and sampling-scheme descriptors.

All values here are immutable after construction and safe to share across
threads.  Probability math is index-based throughout the package; string
labels exist only at the boundary (sample files, subprocess tokens) and are
mapped to indices by :class:`Domain` at ingestion.

Two numeric modes are supported.  ``Mode.EXACT`` keeps every probability as
an arbitrary-precision rational so that expectation identities can be
asserted with zero tolerance; ``Mode.FLOAT`` uses 64-bit floats for Monte
Carlo throughput.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    EmptyHistogramError,
    IndexOutOfRangeError,
    TokenUnknownError,
)

#: Float-mode tolerance on |sum(probs) - 1| before construction fails.
#: In-tolerance vectors are renormalized so downstream code sees an exact unit sum.
FLOAT_SIMPLEX_TOL = 1e-12


class Mode(Enum):
    EXACT = "exact"
    FLOAT = "float"


@dataclass(frozen=True)
class Domain:
    """An ordered finite outcome space with pairwise-distinct string labels."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(labels) == 0:
            raise ValueError("domain must have at least one label")
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("domain labels must be pairwise distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)

    @classmethod
    def of_size(cls, d: int) -> "Domain":
        """Anonymous domain with labels x0..x{d-1}."""
        if d < 1:
            raise ValueError("domain size must be >= 1")
        return cls(tuple(f"x{i}" for i in range(d)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise TokenUnknownError(f"token {label!r} is not a label of this domain") from None

    def label(self, i: int) -> str:
        if not 0 <= i < self.size:
            raise IndexOutOfRangeError(f"index {i} outside 0..{self.size - 1}")
        return self.labels[i]


def _as_exact(value) -> Fraction:
    if isinstance(value, float):
        # Floats convert to their exact binary value; callers that want a
        # decimal-looking rational should pass a string or Fraction.
        return Fraction(value)
    return Fraction(value)


@dataclass(frozen=True)
class Distribution:
    """A probability vector over a finite domain of size ``len(probs)``.

    Entries are Fractions in exact mode and floats in float mode.  Float
    vectors within :data:`FLOAT_SIMPLEX_TOL` of a unit sum are renormalized
    on construction; anything further off is rejected.
    """

    probs: tuple
    mode: Mode = Mode.EXACT

    def __post_init__(self):
        probs = tuple(self.probs)
        if len(probs) == 0:
            raise ValueError("distribution must have at least one entry")
        if self.mode is Mode.EXACT:
            probs = tuple(_as_exact(v) for v in probs)
            if any(v < 0 for v in probs):
                raise ValueError("probabilities must be non-negative")
            if sum(probs) != 1:
                raise ValueError(f"exact probabilities must sum to 1, got {sum(probs)}")
        else:
            probs = tuple(float(v) for v in probs)
            if any(not math.isfinite(v) for v in probs):
                raise ValueError("probabilities must be finite")
            if any(v < 0.0 for v in probs):
                raise ValueError("probabilities must be non-negative")
            # the check reads the correctly rounded total, whose error does not grow with d; the entries are still
            # divided by the plainly added one, so that every vector accepted before is stored as before
            total = math.fsum(probs)
            if abs(total - 1.0) > FLOAT_SIMPLEX_TOL:
                raise ValueError(f"float probabilities must sum to 1 within {FLOAT_SIMPLEX_TOL}, got {total!r}")
            total = sum(probs)
            probs = tuple(v / total for v in probs)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def exact(cls, values: Iterable) -> "Distribution":
        return cls(tuple(values), Mode.EXACT)

    @classmethod
    def floating(cls, values: Iterable) -> "Distribution":
        return cls(tuple(values), Mode.FLOAT)

    @classmethod
    def uniform(cls, d: int, mode: Mode = Mode.EXACT) -> "Distribution":
        if mode is Mode.EXACT:
            return cls.exact([Fraction(1, d)] * d)
        return cls.floating([1.0 / d] * d)

    def __hash__(self) -> int:
        # Computed once: the oracles key their memos on distributions, and Fraction entries are slow to hash.
        # Equal distributions have equal entries, so the mode may stay out; numeric hashes are the same in
        # every process, so the cached value survives a pickle.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(self.probs)
        return cached

    def over_common_denominator(self) -> Optional[tuple[tuple[int, ...], int]]:
        """:func:`over_common_denominator` of the entries, computed once like the hash; ``None`` in float mode.

        The exact paths read it for the same grid points over and over."""
        if "_scaled" not in self.__dict__:
            self.__dict__["_scaled"] = over_common_denominator(self.probs)
        return self.__dict__["_scaled"]

    @property
    def dim(self) -> int:
        return len(self.probs)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.probs)

    def __getitem__(self, i: int):
        return self.probs[i]

    def __iter__(self) -> Iterator:
        return iter(self.probs)


@dataclass(frozen=True)
class Histogram:
    """Count vector of an i.i.d. sample; the sufficient statistic every loss consumes.

    ``total`` and ``support`` are derived from ``counts`` on construction, so
    the total-equals-sum invariant holds by construction.
    """

    counts: tuple[int, ...]
    total: int = field(init=False)
    support: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) == 0:
            raise ValueError("histogram must have at least one coordinate")
        if any(c < 0 for c in counts):
            raise ValueError("histogram counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", sum(counts))
        object.__setattr__(self, "support", tuple(i for i, c in enumerate(counts) if c))

    @classmethod
    def zero(cls, d: int) -> "Histogram":
        return cls((0,) * d)

    @classmethod
    def from_indices(cls, indices: Iterable[int], d: int) -> "Histogram":
        counts = [0] * d
        for i in indices:
            if not 0 <= i < d:
                raise IndexOutOfRangeError(f"sample index {i} outside 0..{d - 1}")
            counts[i] += 1
        return cls(tuple(counts))

    @property
    def dim(self) -> int:
        return len(self.counts)

    def complement(self, x: int) -> int:
        """Number of observations of every outcome except ``x``."""
        if not 0 <= x < self.dim:
            raise IndexOutOfRangeError(f"index {x} outside 0..{self.dim - 1}")
        return self.total - self.counts[x]

    def __getitem__(self, i: int) -> int:
        return self.counts[i]


#: Count rows are scored as dense (R, d) columns while d is at most this many times the draws per row, both
#: sides together, and over each row's observed coordinates otherwise (:func:`scored_dense`).  Measured at
#: R=20,000 on coordinate-major count matrices (2 vCPUs, numpy 2.4), the sparse scorer is the faster past about
#: 9-10 times the draws per row for l2 at n=m=2 and 2-3 times for the Poisson series (cross-entropy at rates 8/8),
#: and it holds 130-240 bytes per draw where a dense row holds 16 per coordinate and side, so memory crosses at
#: about 8 to 15 times; 6 sits between the two time crossovers.
DENSE_DRAWS_RATIO = 6


def scored_dense(d: int, rows: int, draws) -> bool:
    """Whether ``rows`` count rows over ``d`` outcomes holding ``draws`` draws in all are scored as dense columns.

    A dense column costs the same whether a row observed its coordinate or not, so it pays while d is small
    against the draws per row; past that each row is scored over its own observed coordinates."""
    return d * rows <= DENSE_DRAWS_RATIO * draws


class CountRows:
    """R histograms over ``range(d)``, held in index form: row r is the next ``sizes[r]`` draws of a stream.

    No (R, d) array exists until a scorer asks for one.  :meth:`dense` builds the count matrix and
    :meth:`entries` each row's observed coordinates with their counts; each is built once and kept.
    :meth:`from_counts` wraps a count matrix that exists already, without copying it.
    """

    def __init__(self, shape: tuple[int, int], sizes=None, draws=None, matrix=None):
        self.shape = shape
        self._sizes, self._draws, self._dense, self._entries = sizes, draws, matrix, None

    @classmethod
    def from_draws(cls, draws: np.ndarray, sizes, d: int) -> "CountRows":
        """Rows of consecutive runs of the domain indices ``draws``; run r has length ``sizes[r]``."""
        sizes = np.asarray(sizes, dtype=np.int64)
        return cls((len(sizes), d), sizes=sizes, draws=np.asarray(draws, dtype=np.int64))

    @classmethod
    def from_counts(cls, matrix: np.ndarray) -> "CountRows":
        """The rows of an (R, d) int64 count matrix, which is kept as it is."""
        return cls(matrix.shape, matrix=matrix)

    @property
    def sizes(self) -> np.ndarray:
        """The draws in each row."""
        if self._sizes is None:
            self._sizes = self._dense.sum(axis=1)
        return self._sizes

    @property
    def total(self) -> int:
        return int((self._dense if self._sizes is None else self._sizes).sum())

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held now: the draws or the matrix, and what the scorers have built from them."""
        held = (self._sizes, self._draws, self._dense, *(self._entries or ()))
        return sum(a.nbytes for a in held if a is not None)

    def dense_scoring(self, *others: "CountRows") -> bool:
        """Whether a scorer reads these rows, with the other side's ``others``, as dense count columns.

        It does where a count matrix exists already, wrapped or built by an earlier scorer, and otherwise as
        :func:`scored_dense` decides from the domain size and the draws per row."""
        sides = (self, *others)
        if any(rows._dense is not None for rows in sides):
            return True
        rows, d = self.shape
        return scored_dense(d, rows, sum(side.total for side in sides))

    def _flat_keys(self) -> np.ndarray:
        """``r * d + x`` for each draw ``x`` of row ``r``, in draw order."""
        rows, d = self.shape
        keys = np.repeat(np.arange(0, rows * d, d), self.sizes)
        keys += self._draws
        return keys

    def observed(self) -> np.ndarray:
        """The coordinates that some row observed, ascending."""
        if self._draws is None:
            return np.flatnonzero(self._dense.any(axis=0))
        return np.flatnonzero(np.bincount(self._draws, minlength=self.shape[1]))

    def dense(self) -> np.ndarray:
        """The (R, d) int64 count matrix; the draws are let go once it is built.

        A built matrix is stored coordinate-major (Fortran order), so that the column of one coordinate, which the
        dense scorers read one at a time, is contiguous; its values and shape are those of the row-major matrix."""
        if self._dense is None:
            rows, d = self.shape
            keys = np.repeat(np.arange(rows), self.sizes)
            keys += self._draws * rows  # x * R + r
            self._dense = np.bincount(keys, minlength=rows * d).reshape(d, rows).T
            self._draws = None
        return self._dense

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, counts)``: ``r * d + x`` for each coordinate ``x`` that row ``r`` observed, ascending, and its count."""
        if self._entries is None:
            if self._draws is None:
                flat = self._dense.reshape(-1)
                keys = np.flatnonzero(flat)
                self._entries = keys, flat[keys]
            else:
                keys = np.sort(self._flat_keys())
                starts = np.flatnonzero(run_starts(keys))
                self._entries = keys[starts], np.diff(starts, append=len(keys))
        return self._entries


def run_starts(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the positions where a run of equal values begins."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


class SamplingScheme:
    """How many observations a loss consumes from one side (model or target)."""

    __slots__ = ()


@dataclass(frozen=True)
class FixedSize(SamplingScheme):
    """Draw exactly ``n`` observations."""

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("fixed sample size must be an integer >= 1")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class Poisson(SamplingScheme):
    """Draw a Poisson(rate) number of observations, then that many samples."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("Poisson rate must be > 0")


def poisson_cdf(rate: float) -> Iterator[tuple[int, float]]:
    """``(t, P[N <= t])`` for ``N ~ Poisson(rate)``, by pmf summation, for t = 0 .. 20 * rate + 500.

    The limit lies far past any quantile a float CDF resolves; callers stop on their own comparison.
    Rates whose starting mass ``exp(-rate)`` is not a normal float (above about 708) are refused.
    """
    pmf = math.exp(-rate)
    if pmf < 2.0**-1022:  # the smallest normal float
        raise ValueError(f"Poisson rate {rate} is too large: exp(-{rate}) is below the smallest normal float")
    cum = pmf
    yield 0, cum
    for t in range(1, int(rate * 20 + 500) + 1):
        pmf *= rate / t
        cum += pmf
        yield t, cum


def empirical(h: Histogram, mode: Mode = Mode.EXACT) -> Distribution:
    """Empirical distribution counts/total of a non-empty histogram."""
    if h.total == 0:
        raise EmptyHistogramError("cannot form an empirical distribution from zero samples")
    if mode is Mode.EXACT:
        return Distribution.exact([Fraction(c, h.total) for c in h.counts])
    return Distribution.floating([c / h.total for c in h.counts])


def is_rational(value) -> bool:
    """Whether ``value`` is a ``numbers.Rational``, testing the exact types Fraction and int before the slow ABC."""
    return type(value) is Fraction or type(value) is int or isinstance(value, numbers.Rational)


def over_common_denominator(values: Sequence) -> Optional[tuple[tuple[int, ...], int]]:
    """``(numerators, D)`` with ``values[i] == numerators[i] / D`` and ``D`` the lcm of the denominators,
    or ``None`` when some value is not rational (a float, say).

    The exact paths sum these integer numerators and build one Fraction at the end.  A
    :class:`Distribution` returns its cached value (:meth:`Distribution.over_common_denominator`)."""
    if isinstance(values, Distribution):
        return values.over_common_denominator()
    if not all(map(is_rational, values)):
        return None
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def indicator(x: int, d: int, mode: Mode = Mode.EXACT) -> Distribution:
    """Point mass at index ``x`` in a domain of size ``d``."""
    if not 0 <= x < d:
        raise IndexOutOfRangeError(f"index {x} outside 0..{d - 1}")
    one, zero = (Fraction(1), Fraction(0)) if mode is Mode.EXACT else (1.0, 0.0)
    return Distribution(tuple(one if i == x else zero for i in range(d)), mode)


def _composition_steps(total: int, parts: int) -> Iterator[tuple[int, list[int]]]:
    """:func:`compositions` as one list of parts updated in place, each with the first part that changed.

    The next composition takes one from the last nonzero part ``x`` before the final one and puts everything
    after ``x``, plus that one, into part ``x + 1``.  Parts before ``x`` stay, so a caller can keep a running
    product over them.
    """
    if parts < 1:
        raise ValueError("need at least one part")
    if total < 0 and parts > 1:
        return
    c = [total] + [0] * (parts - 1)
    x = 0
    while True:
        yield x, c
        x = parts - 2
        while x >= 0 and not c[x]:
            x -= 1
        if x < 0:
            return
        c[x] -= 1
        tail, c[-1] = c[-1] + 1, 0  # the parts between x and the final one are all zero
        c[x + 1] = tail


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` non-negative
    integers, in deterministic first-coordinate-descending order.

    This is the combinatorial substrate for both histogram enumeration and
    simplex grids.  The parts but the last are walked in place, and the last
    two share what the others leave, ``r``, as ``(r - j, j)`` for ``j = 0..r``.
    """
    if parts == 1:
        yield (total,)
        return
    for _, c in _composition_steps(total, parts - 1):
        head, r = tuple(c[:-1]), c[-1]
        yield from [(*head, r - j, j) for j in range(r + 1)]
