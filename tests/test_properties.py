"""Property tests tying the float fast paths to their exact twins."""

import functools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from properloss import (
    Histogram,
    Mode,
    builtin_l2,
    compile_two_sample,
    squared_loss_two_sample,
)
from properloss.divergences import Monomial, PolyDivergence
from properloss.estimators import ExponentVector

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
