"""Property tests tying the float fast paths to their exact twins."""

import functools
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from properloss import (
    Distribution,
    Domain,
    FileSource,
    Histogram,
    InternalSource,
    Mode,
    builtin_l2,
    compile_two_sample,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    entropy_poisson,
    kl_poisson,
    squared_loss_two_sample,
    stream_rng,
)
from properloss.divergences import Monomial, PolyDivergence
from properloss.estimators import ExponentVector, poisson_power_series

MAX_DEG = 3


def exponent_vectors(d: int):
    powers = st.dictionaries(st.integers(0, d - 1), st.integers(1, MAX_DEG), max_size=MAX_DEG)
    return powers.filter(lambda pw: sum(pw.values()) <= MAX_DEG).map(
        lambda pw: ExponentVector.sparse(d, sorted(pw.items()))
    )


@st.composite
def sparse_polynomials(draw):
    d = draw(st.integers(1, 6))
    keys = draw(st.lists(st.tuples(exponent_vectors(d), exponent_vectors(d)), min_size=1, max_size=8, unique=True))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda c: c != 0)
    return PolyDivergence(tuple(Monomial(draw(coeffs), a, b) for a, b in keys))


def histograms(d: int, total: int):
    return st.lists(st.integers(0, d - 1), min_size=total, max_size=total).map(
        lambda idx: Histogram.from_indices(idx, d)
    )


@settings(deadline=None)
@given(st.data())
def test_batch_evaluator_equals_the_scalar_evaluator_row_by_row(data):
    div = data.draw(sparse_polynomials())
    n = max(1, div.deg_p) + data.draw(st.integers(0, 2))
    m = max(1, div.deg_q) + data.draw(st.integers(0, 2))
    rows = data.draw(st.lists(st.tuples(histograms(div.dim, n), histograms(div.dim, m)), min_size=1, max_size=6))
    exact = compile_two_sample(div, n, m)
    floating = compile_two_sample(div, n, m, Mode.FLOAT)
    hp = np.array([h.counts for h, _ in rows])
    hq = np.array([g.counts for _, g in rows])
    for loss in (exact, floating):
        batch = loss.batch_evaluator(hp, hq)
        assert batch.shape == (len(rows),)
        for value, (h, g) in zip(batch, rows):
            assert math.isclose(value, float(floating.evaluator(h, g)), rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(value, float(exact.evaluator(h, g)), rel_tol=1e-12, abs_tol=1e-12)


@functools.lru_cache(maxsize=None)
def large_domain_losses():
    return compile_two_sample(builtin_l2(20_000), 2, 2), squared_loss_two_sample(2, 2)


@settings(deadline=None, max_examples=50)
@given(histograms(20_000, 2), histograms(20_000, 2))
def test_compiled_l2_equals_the_closed_form_on_a_large_domain(h, g):
    compiled, closed = large_domain_losses()
    value = compiled.evaluator(h, g)
    assert isinstance(value, Fraction)
    assert value == closed.evaluator(h, g)


@given(st.lists(st.integers(0, 4) | st.just(0), max_size=12))
def test_dense_and_sparse_forms_round_trip(dense):
    j = ExponentVector(dense)
    twin = ExponentVector.sparse(len(dense), j.pairs)
    assert j.exps == tuple(dense)
    assert twin == j and hash(twin) == hash(j)
    assert twin.degree == j.degree == sum(dense)
    assert all(e > 0 for _, e in j.pairs)
    assert [i for i, _ in j.pairs] == sorted(i for i, e in enumerate(dense) if e)


@given(st.lists(st.integers(0, 2), max_size=6), st.lists(st.integers(0, 2), max_size=6))
def test_equality_and_hash_follow_the_dense_form(a, b):
    ja, jb = ExponentVector(a), ExponentVector(b)
    assert (ja == jb) == (a == b)
    if ja == jb:
        assert hash(ja) == hash(jb)


@settings(deadline=None)
@given(st.lists(st.integers(0, 6), max_size=8), st.integers(0, 2**32 - 1))
def test_draw_batch_rows_equal_sequential_draws(sizes, seed):
    d = 3
    internal = InternalSource(Distribution.floating([0.2, 0.5, 0.3]))
    batch = internal.draw_batch(sizes, stream_rng(seed, 0))
    rng = stream_rng(seed, 0)
    assert batch.shape == (len(sizes), d) and batch.dtype == np.int64
    assert [row.tolist() for row in batch] == [list(internal.draw(n, rng).counts) for n in sizes]

    domain = Domain(("a", "b", "c"))
    tokens = np.random.default_rng(seed).choice(list(domain.labels), size=sum(sizes) + 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tokens.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{t}\n" for t in tokens)
        with FileSource(path, domain) as whole, FileSource(path, domain) as one_by_one:
            batch = whole.draw_batch(sizes)
            assert [row.tolist() for row in batch] == [list(one_by_one.draw(n).counts) for n in sizes]
            assert whole.draw(2) == one_by_one.draw(2)  # both stop at the same line


def poisson_counts(d: int):
    return st.lists(st.integers(0, 12), min_size=d, max_size=d)


@settings(deadline=None)
@given(st.data())
def test_power_series_batch_evaluators_equal_their_scalar_evaluators(data):
    d = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, 6))
    alpha = data.draw(st.sampled_from([0.5, 4.0, 6.0, 8.0]))
    beta = data.draw(st.sampled_from([0.5, 4.0, 6.0, 8.0]))
    rows = data.draw(st.lists(st.tuples(poisson_counts(d), poisson_counts(d)), min_size=1, max_size=6))
    fixed_rows = [(h, list(data.draw(histograms(d, m)).counts)) for h, _ in rows]

    def cases(mode):
        return [
            (cross_entropy_poisson(alpha, beta, mode), rows),
            (cross_entropy_poisson_fixed_target(alpha, m, mode), fixed_rows),
            (entropy_poisson(beta, mode), rows),
            (kl_poisson(alpha, beta, mode), rows),
        ]

    for (loss, pairs), (exact, _) in zip(cases(Mode.FLOAT), cases(Mode.EXACT)):
        hp = np.array([h for h, _ in pairs], dtype=np.int64)
        hq = np.array([g for _, g in pairs], dtype=np.int64)
        args = (None if loss.scheme_p is None else hp, hq)
        batch = loss.batch_evaluator(*args)
        assert batch.shape == (len(pairs),)
        assert batch.tolist() == exact.batch_evaluator(*args).tolist()  # float in every mode
        for value, (h, g) in zip(batch, pairs):
            # bit for bit, not only within 1e-12: rows add their terms in the
            # scalar's order, so Monte Carlo means match a per-replicate loop
            assert value == float(loss.evaluator(Histogram(h), Histogram(g)))


@functools.lru_cache(maxsize=None)
def exact_log_series(t: int, rate: Fraction) -> Fraction:
    return poisson_power_series(t, lambda k: Fraction(1, k), rate)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 400), st.integers(1, 64).map(lambda r: Fraction(r, 4)))
def test_float_log_series_tracks_the_exact_series(t, rate):
    exact = exact_log_series(t, rate)
    # room for the running term, which can reach t times the final sum
    assume(exact < Fraction(np.finfo(float).max) / max(t, 1))
    value = poisson_power_series(t, lambda k: 1.0 / k, float(rate))
    assert math.isclose(value, float(exact), rel_tol=1e-12)
