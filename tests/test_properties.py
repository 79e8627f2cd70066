"""Property tests tying the float fast paths to their exact twins, and the exact oracles to brute force."""

import dataclasses
import functools
import itertools
import math
import os
import struct
import tempfile
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from properloss import (
    Distribution,
    Domain,
    FileSource,
    Histogram,
    InternalSource,
    Mode,
    RealSample,
    VectorSample,
    bregman_divergence,
    bregman_known_target,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    check_implements,
    compile_known_target,
    compile_two_sample,
    compositions,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    cramer_loss,
    crps,
    energy_loss,
    entropy_poisson,
    enumerate_histograms,
    exact_expected_known_target,
    exact_expected_two_sample,
    expected_losses,
    kl_poisson,
    multinomial_pmf,
    naive_plugin_loss,
    projected_cramer_loss,
    simplex_grid,
    squared_norm_polynomial,
    stream_rng,
)
from properloss import VerificationReport, divergences, poisson_expected_loss, verify
from properloss.compiler import _numerator_route
from properloss.divergences import Monomial, PolyDivergence
from properloss.domain import KNOWN_TARGET, CountRows, Poisson
from properloss.estimators import ExponentVector, poisson_power_series, variance_mvue
from properloss.sampling import _searched_indices, _stepped_indices
from properloss.verify import (
    _case,
    _fixed_size_sweep,
    _item_arrays,
    _numerated_compositions,
    _pmf_numerators,
    _scaled_support,
    _side_items,
    _support_histograms,
)

MAX_DEG = 3


def exponent_vectors(d: int):
    powers = st.dictionaries(st.integers(0, d - 1), st.integers(1, MAX_DEG), max_size=MAX_DEG)
    return powers.filter(lambda pw: sum(pw.values()) <= MAX_DEG).map(
        lambda pw: ExponentVector.sparse(d, sorted(pw.items()))
    )


@st.composite
def sparse_polynomials(draw, d=None):
    """Random monomials, with factors at several coordinates on either side, as a spec file may give them."""
    d = draw(st.integers(1, 6)) if d is None else d
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
    hp = CountRows.from_counts(np.array([h.counts for h, _ in rows]))
    hq = CountRows.from_counts(np.array([g.counts for _, g in rows]))
    for loss in (exact, floating):
        batch = loss.batch_evaluator(hp, hq)
        assert batch.shape == (len(rows),)
        for value, (h, g) in zip(batch, rows):
            assert math.isclose(value, float(floating.evaluator(h, g)), rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(value, float(exact.evaluator(h, g)), rel_tol=1e-12, abs_tol=1e-12)


def fraction_squared_two_sample(h, g, n, m):
    """The two-sample squared loss as per-coordinate quotients over the observed coordinates, in Fractions."""
    acc = 0
    for x in set(h.support).union(g.support):
        a, b = h.counts[x], g.counts[x]
        acc += Fraction(a * (a - 1), n * (n - 1)) - Fraction(2 * a * b, n * m) + Fraction(b * (b - 1), m * (m - 1))
    return acc


@functools.lru_cache(maxsize=None)
def large_domain_l2():
    return compile_two_sample(builtin_l2(20_000), 2, 2)


@settings(deadline=None, max_examples=50)
@given(histograms(20_000, 2), histograms(20_000, 2))
def test_compiled_l2_equals_the_closed_form_on_a_large_domain(h, g):
    value = large_domain_l2().evaluator(h, g)
    assert isinstance(value, Fraction)
    assert value == fraction_squared_two_sample(h, g, 2, 2)


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
    assert batch.shape == (len(sizes), d) and batch.total == sum(sizes)
    assert batch.dense().dtype == np.int64
    assert [row.tolist() for row in batch.dense()] == [list(internal.draw(n, rng).counts) for n in sizes]

    domain = Domain(("a", "b", "c"))
    tokens = np.random.default_rng(seed).choice(list(domain.labels), size=sum(sizes) + 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tokens.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{t}\n" for t in tokens)
        with FileSource(path, domain) as whole, FileSource(path, domain) as one_by_one:
            batch = whole.draw_batch(sizes)
            assert [row.tolist() for row in batch.dense()] == [list(one_by_one.draw(n).counts) for n in sizes]
            assert whole.draw(2) == one_by_one.draw(2)  # both stop at the same line


def poisson_counts(d: int):
    return st.lists(st.integers(0, 12), min_size=d, max_size=d)


@st.composite
def spiked_counts(draw, d: int):
    """Counts up to 12 with one coordinate raised to up to 400, where the float series at rate 0.5 overflows."""
    counts = draw(poisson_counts(d))
    counts[draw(st.integers(0, d - 1))] = draw(st.integers(0, 400))
    return counts


@settings(deadline=None)
@given(st.data())
def test_power_series_batch_evaluators_equal_their_scalar_evaluators(data):
    d = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, 6))
    # spiked rows put inf terms next to unobserved coordinates, which must still add exactly 0
    spiked = data.draw(st.booleans())
    counts = spiked_counts(d) if spiked else poisson_counts(d)
    alpha = data.draw(st.sampled_from([0.5] if spiked else [0.5, 4.0, 6.0, 8.0]))
    beta = data.draw(st.sampled_from([0.5] if spiked else [0.5, 4.0, 6.0, 8.0]))
    # up to 40 rows, so that rows >= d (the column-loop row sums) is common
    rows = data.draw(st.lists(st.tuples(counts, counts), min_size=1, max_size=40))
    fixed_rows = [(h, list(data.draw(histograms(d, m)).counts)) for h, _ in rows]

    for loss, pairs in (
        (cross_entropy_poisson(alpha, beta), rows),
        (cross_entropy_poisson_fixed_target(alpha, m), fixed_rows),
        (entropy_poisson(beta), rows),
        (kl_poisson(alpha, beta), rows),
    ):
        hp = CountRows.from_counts(np.array([h for h, _ in pairs], dtype=np.int64))
        hq = CountRows.from_counts(np.array([g for _, g in pairs], dtype=np.int64))
        with np.errstate(invalid="ignore"):  # KL's inf - inf
            batch = loss.batch_evaluator(None if loss.scheme_p is None else hp, hq)
        assert batch.shape == (len(pairs),)
        for value, (h, g) in zip(batch.tolist(), pairs):
            # bit for bit, not only within 1e-12: rows add their terms in the
            # scalar's order, so Monte Carlo means match a per-replicate loop
            assert repr(value) == repr(float(loss.evaluator(Histogram(h), Histogram(g))))


@settings(deadline=None)
@given(st.data())
def test_series_pair_evaluators_equal_their_batch_evaluators_on_tiled_rows(data):
    d = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 6))
    # spiked rows overflow the series at rate 0.5 next to coordinates that the other side never observed
    spiked = data.draw(st.booleans())
    counts = spiked_counts(d) if spiked else poisson_counts(d)
    alpha = data.draw(st.sampled_from([0.5] if spiked else [0.5, 4.0, 8.0]))
    beta = data.draw(st.sampled_from([0.5] if spiked else [0.5, 4.0, 8.0]))
    left = np.array(data.draw(st.lists(counts, min_size=1, max_size=8)), dtype=np.int64)
    right = np.array(data.draw(st.lists(counts, min_size=1, max_size=8)), dtype=np.int64)
    fixed_right = np.array([data.draw(histograms(d, m)).counts for _ in right], dtype=np.int64)
    for loss, rhs in (
        (cross_entropy_poisson(alpha, beta), right),
        (cross_entropy_poisson_fixed_target(alpha, m), fixed_right),
        (entropy_poisson(beta), right),
        (kl_poisson(alpha, beta), right),
    ):
        lhs = None if loss.scheme_p is None else left
        rows = 1 if lhs is None else len(lhs)
        hp = None if lhs is None else CountRows.from_counts(np.repeat(lhs, len(rhs), axis=0))
        with np.errstate(invalid="ignore"):  # KL's inf - inf
            grid = loss.pair_evaluator(lhs, rhs)
            tiled = loss.batch_evaluator(hp, CountRows.from_counts(np.tile(rhs, (rows, 1))))
        assert grid.shape == (rows, len(rhs))
        # by repr, bit for bit, so that inf and NaN pairs match too
        assert repr(grid.tolist()) == repr(tiled.reshape(rows, len(rhs)).tolist())


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


def pmf_weighted_histograms(dist, size, scale):
    """``(h, scale * multinomial_pmf(h))`` over the full enumeration, zero weights dropped."""
    weighted = ((h, scale * multinomial_pmf(h, size, dist)) for h in enumerate_histograms(dist.dim, size))
    return [(h, w) for h, w in weighted if w != 0]


def scalar_poisson_expectation(loss, p, q, tail_eps, value_tol, max_items_per_side):
    """The truncated Poisson oracle as a pair-by-pair loop over the scalar evaluator, summed sequentially."""
    poisson_sides = sum(1 for s in (loss.scheme_p, loss.scheme_q) if isinstance(s, Poisson))
    per_side = tail_eps / poisson_sides if poisson_sides else tail_eps
    sup_loss = 0.0
    pairs = 0

    def items(dist, rate, size_from, size_to):
        return [
            item
            for size in range(size_from, size_to + 1)
            for item in pmf_weighted_histograms(dist, size, Poisson(rate).size_weight(size))
        ]

    def cross(left, right):
        nonlocal sup_loss, pairs
        acc = 0.0
        for h, wp in left:
            inner = 0.0
            for g, wq in right:
                v = float(loss.evaluator(h, g))
                inner += wq * v
                sup_loss = max(sup_loss, abs(v))
                pairs += 1
            acc += wp * inner
        return acc

    def side(scheme, dist):
        if scheme is None:
            return [(None, 1.0)], None, None
        if isinstance(scheme, Poisson):
            trunc = scheme.first_sizes(per_side)[1]
            return items(dist, scheme.rate, 0, trunc), trunc, scheme.rate
        return pmf_weighted_histograms(dist, scheme.n, 1.0), None, None

    model_side, trunc_p, rate_p = side(loss.scheme_p, p)
    target_side, trunc_q, rate_q = side(loss.scheme_q, q)
    value = cross(model_side, target_side)
    last_delta = 0.0
    calm_p = 0 if rate_p is not None else 2
    calm_q = 0 if rate_q is not None else 2
    while calm_p < 2 or calm_q < 2:
        grow_p = calm_p < 2 and len(model_side) < max_items_per_side
        grow_q = calm_q < 2 and len(target_side) < max_items_per_side
        if not grow_p and not grow_q:
            break
        new_p = items(p, rate_p, trunc_p + 1, trunc_p + 4) if grow_p else []
        new_q = items(q, rate_q, trunc_q + 1, trunc_q + 4) if grow_q else []
        trunc_p = trunc_p + 4 if grow_p else trunc_p
        trunc_q = trunc_q + 4 if grow_q else trunc_q
        delta_p = cross(new_p, target_side)
        delta_q = cross(model_side, new_q)
        delta_pq = cross(new_p, new_q)
        value += delta_p + delta_q + delta_pq
        model_side.extend(new_p)
        target_side.extend(new_q)
        last_delta = abs(delta_p) + abs(delta_q) + abs(delta_pq)
        threshold = value_tol * max(1.0, abs(value))
        if grow_p:
            calm_p = calm_p + 1 if abs(delta_p) + abs(delta_pq) <= threshold else 0
        if grow_q:
            calm_q = calm_q + 1 if abs(delta_q) + abs(delta_pq) <= threshold else 0

    omitted = 0.0
    for rate, kept in ((rate_p, model_side), (rate_q, target_side)):
        if rate is not None:
            omitted += max(0.0, 1.0 - sum(w for _, w in kept))
    return dict(
        value=value,
        tail_bound=omitted * sup_loss + last_delta,
        omitted_mass=omitted,
        truncation_model=trunc_p,
        truncation_target=trunc_q,
        items_model=None if loss.scheme_p is None else len(model_side),
        items_target=len(target_side),
        pairs=pairs,
    )


@st.composite
def exact_distributions(draw, d: int):
    weights = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d).filter(any))
    return Distribution.exact([Fraction(w, sum(weights)) for w in weights])


# small sides keep the scalar reference affordable; the extension loop still runs
ORACLE_ARGS = dict(tail_eps=1e-2, value_tol=1e-5, max_items_per_side=60)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_batched_poisson_oracle_equals_the_scalar_loop_bit_for_bit(data):
    d = data.draw(st.integers(1, 3))
    p = data.draw(exact_distributions(d))
    q = data.draw(exact_distributions(d))
    alpha = data.draw(st.floats(2.0, 8.0))
    beta = data.draw(st.floats(2.0, 8.0))
    m = data.draw(st.integers(1, 3))
    args = dict(ORACLE_ARGS, tail_eps=data.draw(st.sampled_from([1e-2, 1e-3])))
    if data.draw(st.booleans()):
        # exact sides are weighted from integer pmf numerators, float sides by multinomial_pmf
        p, q = Distribution.floating(p.as_floats()), Distribution.floating(q.as_floats())
    for loss in (
        cross_entropy_poisson(alpha, beta),
        kl_poisson(alpha, beta),
        entropy_poisson(beta),
        cross_entropy_poisson_fixed_target(alpha, m),
    ):
        model = None if loss.scheme_p is None else p
        batched = poisson_expected_loss(loss, model, q, **args)
        reference = scalar_poisson_expectation(loss, model, q, **args)
        # repr tells every float apart except NaNs, which an overflowing series can produce on both sides
        assert {k: repr(v) for k, v in vars(batched).items()} == {k: repr(v) for k, v in reference.items()}


def brute_force_expectation(evaluator, p, q, n, m=None):
    """E[L] over every composition of all d coordinates, zero weights included; a known target when m is None."""

    def side(dist, size):
        hists = [Histogram(c) for c in itertools.product(range(size + 1), repeat=dist.dim) if sum(c) == size]
        return [(h, multinomial_pmf(h, size, dist)) for h in hists]

    targets = [(q, 1)] if m is None else side(q, m)
    return sum(wp * wq * evaluator(h, g) for h, wp in side(p, n) for g, wq in targets)


def raw_known_target(h, q):
    return sum(Fraction(c * c, 1 + i) * x for i, (c, x) in enumerate(zip(h.counts, q.probs))) - h.counts[0]


def raw_two_sample(h, g):
    return Fraction(sum(i * c for i, c in enumerate(h.counts)) - g.counts[0] ** 2, 1 + h.counts[-1])


def raw_negative_known_target(h, q):
    return -Fraction(1 + h.counts[0] * 2, 3 + h.counts[-1]) * (1 + q.probs[-1])


def raw_negative_two_sample(h, g):
    # the denominator varies with the target item, so the oracle merges the items' lcms
    return Fraction(-1 - h.counts[0] * g.counts[-1], 1 + 2 * g.counts[0])


def raw_zero(h, t):
    return 0


@st.composite
def mixed_denominator_distributions(draw, d: int):
    """Coordinates with their own denominators, such as (1/3, 1/6, 1/2); the last takes what is left."""
    probs, left = [], Fraction(1)
    for _ in range(d - 1):
        den = draw(st.sampled_from((2, 3, 4, 6, 7)))
        probs.append(min(left, Fraction(draw(st.integers(0, den)), den)))
        left -= probs[-1]
    return Distribution.exact(probs + [left])


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_the_fixed_size_oracle_equals_brute_force_enumeration(data):
    d = data.draw(st.integers(1, 3))
    dists = st.one_of(exact_distributions(d), mixed_denominator_distributions(d))
    points = [(data.draw(dists), data.draw(dists)) for _ in range(3)]
    n = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 3))
    cases = [(loss, (n,), exact_expected_known_target)
             for loss in (compile_known_target(PolyDivergence(tuple(builtin_l2(d).monomials)), n),
                          compile_known_target(builtin_l2(d), n), naive_plugin_loss(n))]
    cases += [(loss, (n, m), exact_expected_two_sample)
              for loss in (compile_two_sample(builtin_l2(d), n, m), compile_two_sample(builtin_brier(d), n, m))]
    for loss, sizes, one_point in cases:
        # a sweep shares the oracle's memos across points; each one-point call builds its own
        estimates = [r.estimate for r in check_implements(loss, builtin_l2(d), points)]
        for (p, q), estimate in zip(points, estimates):
            expected = brute_force_expectation(loss.evaluator, p, q, *sizes)
            assert isinstance(estimate, Fraction) and estimate == expected
            assert one_point(loss, p, q) == expected
    for p, q in points:
        for raw in (raw_known_target, raw_negative_known_target, raw_zero):
            estimate = exact_expected_known_target(raw, p, q, n)
            assert isinstance(estimate, Fraction) and estimate == brute_force_expectation(raw, p, q, n)
        for raw in (raw_two_sample, raw_negative_two_sample, raw_zero):
            estimate = exact_expected_two_sample(raw, p, q, n, m)
            assert isinstance(estimate, Fraction) and estimate == brute_force_expectation(raw, p, q, n, m)
        for dist in (p, q):
            # the kernel's integer pmf numerators over D**size are the reference pmf on the support
            for size in (0, n, m):
                hists, numerators, denominator = _pmf_numerators(dist, size)
                full = [(h, multinomial_pmf(h, size, dist)) for h in enumerate_histograms(dist.dim, size)]
                assert [(h, Fraction(num, denominator)) for h, num in zip(hists, numerators)] == [
                    (h, w) for h, w in full if w != 0]


@st.composite
def sparse_distributions(draw, d: int):
    """Mass on one or two coordinates, so that a few of them seldom cover every coordinate in use."""
    support = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=2, unique=True))
    weights = [draw(st.integers(1, 3)) for _ in support]
    probs = [0] * d
    for x, w in zip(support, weights):
        probs[x] = Fraction(w, sum(weights))
    return Distribution.exact(probs)


def support_histograms(dist, size):
    return {h.counts for h in enumerate_histograms(dist.dim, size) if multinomial_pmf(h, size, dist) != 0}


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_a_sweep_equals_brute_force_at_every_point(data):
    d = data.draw(st.integers(1, 4))
    dists = st.one_of(exact_distributions(d), mixed_denominator_distributions(d), sparse_distributions(d))
    pool = data.draw(st.lists(dists, min_size=1, max_size=4))
    pool += [Distribution.exact(dist.probs) for dist in data.draw(st.lists(st.sampled_from(pool), max_size=2))]
    points = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=1, max_size=8))
    n, m = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    for loss in (compile_known_target(builtin_l2(d), n), naive_plugin_loss(n)):
        assert expected_losses(loss, points) == [brute_force_expectation(loss.evaluator, p, q, n) for p, q in points]
    for loss in (compile_two_sample(builtin_l2(d), n, m), compile_two_sample(builtin_brier(d), n, m)):
        assert expected_losses(loss, points) == [brute_force_expectation(loss.evaluator, p, q, n, m) for p, q in points]
    for raw, sizes in ((raw_known_target, (n,)), (raw_negative_two_sample, (n, m))):
        calls = []

        def counted(h, t):
            calls.append((t if len(sizes) == 1 else t.counts, h.counts))
            return raw(h, t)

        assert expected_losses(counted, points, *sizes) == [brute_force_expectation(raw, p, q, *sizes) for p, q in points]
        # each (target item, model histogram) pair once, and only inside the supports of the models paired with it
        assert len(calls) == len(set(calls))
        if len(sizes) == 1:
            expected = {(q, h) for p, q in points for h in support_histograms(p, n)}
        else:
            expected = {(g, h) for p, q in points for g in support_histograms(q, m) for h in support_histograms(p, n)}
        assert set(calls) == expected


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_a_multi_case_sweep_equals_its_per_case_sweeps(data):
    d = data.draw(st.integers(1, 3))
    dists = st.one_of(exact_distributions(d), mixed_denominator_distributions(d), sparse_distributions(d))
    pool = data.draw(st.lists(dists, min_size=1, max_size=4))  # one set of objects, reused across cases and sizes
    calls: dict = {}

    def counted(name, evaluator, two_sample):
        def evaluate(h, t):
            calls.setdefault(name, []).append((t.counts if two_sample else t, h.counts))
            return evaluator(h, t)

        return evaluate

    known, two_sample = {}, {}
    for n in (2, 3):
        loss = compile_known_target(builtin_l2(d), n)
        known[n] = dataclasses.replace(loss, evaluator=counted(("known", n), loss.evaluator, False))
    for n, m in itertools.product((2, 3), (1, 2, 3)):
        loss = compile_two_sample(builtin_brier(d) if m == 1 else builtin_l2(d), n, m)
        two_sample[n, m] = dataclasses.replace(loss, evaluator=counted(("two-sample", n, m), loss.evaluator, True))
    raw_known = counted("raw-known", raw_known_target, False)
    raw_two = counted("raw-two-sample", raw_negative_two_sample, True)
    cases, scored = [], {}
    for _ in range(data.draw(st.integers(1, 5))):
        points = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), min_size=1, max_size=6))
        n, m = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
        kind = data.draw(st.sampled_from(["known", "two-sample", "raw-known", "raw-two-sample"]))
        if kind == "known":
            case, name = _case(known[n], points), ("known", n)
        elif kind == "two-sample":
            case, name = _case(two_sample[n, m], points), ("two-sample", n, m)
        elif kind == "raw-known":
            case, name = _case(raw_known, points, n), "raw-known"
        else:
            case, name = _case(raw_two, points, n, m), "raw-two-sample"
        cases.append(case)
        for p, q in points:
            items = support_histograms(q, m) if kind.endswith("two-sample") else [q]
            scored.setdefault(name, set()).update((t, h) for t in items for h in support_histograms(p, n))

    swept = _fixed_size_sweep(cases)
    # with sides shared across cases, each loss still scores each (target item, model histogram) pair once
    assert all(len(pairs) == len(set(pairs)) for pairs in calls.values())
    assert {name: set(pairs) for name, pairs in calls.items()} == scored
    alone = [_fixed_size_sweep([case])[0] for case in cases]
    assert [[Fraction(*ratio) for ratio in case] for case in swept] == [
        [Fraction(*ratio) for ratio in case] for case in alone]


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_the_compiled_numerators_are_the_evaluators_values(data):
    d = data.draw(st.integers(1, 3))
    dists = st.one_of(exact_distributions(d), mixed_denominator_distributions(d))
    points = data.draw(st.lists(st.tuples(dists, dists), min_size=1, max_size=3))
    for div in (builtin_l2(d), builtin_brier(d), builtin_lk_even(d, 4), data.draw(sparse_polynomials(d))):
        n = data.draw(st.integers(max(1, div.deg_p), 4))
        m = data.draw(st.integers(max(1, div.deg_q), 4))
        hists = enumerate_histograms(d, n)
        known, two_sample = compile_known_target(div, n), compile_two_sample(div, n, m)
        for q in {p for point in points for p in point}:
            target = q if data.draw(st.booleans()) else q.probs  # a Distribution, or its entries
            numerators, den = _numerator_route(known.evaluator)(hists, target)
            assert [Fraction(num, den) for num in numerators] == [known.evaluator(h, target) for h in hists]
        for g in data.draw(st.lists(st.sampled_from(enumerate_histograms(d, m)), min_size=1, max_size=3)):
            numerators, den = _numerator_route(two_sample.evaluator)(hists, g)
            assert [Fraction(num, den) for num in numerators] == [two_sample.evaluator(h, g) for h in hists]
        # the same loss as a raw callable is evaluated value by value, and its expectations are the same fractions
        for loss, sizes in ((known, (n,)), (two_sample, (n, m))):
            raw = lambda h, t, f=loss.evaluator: f(h, t)
            assert _numerator_route(raw) is None
            routed, evaluated = (_fixed_size_sweep([_case(case, points, *case_sizes)])[0]
                                 for case, case_sizes in ((loss, ()), (raw, sizes)))
            assert [Fraction(*ratio) for ratio in routed] == [Fraction(*ratio) for ratio in evaluated]


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_a_compiled_loss_has_the_expectations_of_its_evaluator_as_a_raw_callable(data):
    d = data.draw(st.integers(1, 3))
    dists = st.one_of(exact_distributions(d), mixed_denominator_distributions(d), sparse_distributions(d))
    points = data.draw(st.lists(st.tuples(dists, dists), min_size=1, max_size=4))
    div = data.draw(st.sampled_from([builtin_l2(d), builtin_brier(d), builtin_lk_even(d, 4)]))
    n = data.draw(st.integers(max(1, div.deg_p), 4))
    m = data.draw(st.integers(max(1, div.deg_q), 4))
    known, two_sample = compile_known_target(div, n), compile_two_sample(div, n, m)
    # the loss's own sides, and the sides a raw callable is given from n, m and two_sample
    expected = expected_losses(known, points)
    assert expected == expected_losses(known.evaluator, points, n) == expected_losses(
        known.evaluator, points, n, m, two_sample=False)
    expected = expected_losses(two_sample, points)
    assert expected == expected_losses(two_sample.evaluator, points, n, m) == expected_losses(
        two_sample.evaluator, points, n, m, two_sample=True)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_exact_side_weights_equal_the_scaled_reference_pmf_bit_for_bit(data):
    d = data.draw(st.integers(1, 3))
    dist = data.draw(st.one_of(exact_distributions(d), mixed_denominator_distributions(d)))
    size = data.draw(st.integers(0, 8))
    scale = data.draw(st.one_of(st.just(1.0), st.floats(1e-300, 1e3),
                                st.floats(0.5, 700.0).map(lambda rate: Poisson(rate).size_weight(size))))
    counts, weights = _item_arrays(dist, size, size, lambda _: scale)
    assert [(tuple(c), repr(w)) for c, w in zip(counts.tolist(), weights.tolist())] == [
        (h.counts, repr(w)) for h, w in pmf_weighted_histograms(dist, size, scale)]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_numerated_compositions_are_the_pmf_over_the_common_denominator(data):
    d = data.draw(st.integers(1, 4))
    dist = data.draw(st.one_of(exact_distributions(d), mixed_denominator_distributions(d)))  # zeros shrink the support
    size = data.draw(st.integers(0, 10))
    support, scaled, den = _scaled_support(dist)
    comps, numerators = _numerated_compositions(scaled, size)
    assert comps == list(compositions(size, len(support)))
    for c, num in zip(comps, numerators):
        counts = [0] * d
        for x, count in zip(support, c):
            counts[x] = count
        assert num > 0 and num == multinomial_pmf(Histogram(tuple(counts)), size, dist) * den**size
    assert sum(numerators) == den**size  # so every histogram off the support has probability 0


def histogram_item_arrays(dist, size_from, size_to, size_weight):
    """A side's items built from Histograms: :func:`pmf_weighted_histograms` per size, stacked into arrays."""
    items = [item for size in range(size_from, size_to + 1)
             for item in pmf_weighted_histograms(dist, size, size_weight(size))]
    counts = np.array([h.counts for h, _ in items], dtype=np.int64).reshape(len(items), dist.dim)
    return counts, np.array([w for _, w in items], dtype=float)


def same_arrays(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_poisson_item_arrays_equal_the_histogram_built_items_bit_for_bit(data):
    d = data.draw(st.integers(1, 3))
    dist = data.draw(st.one_of(exact_distributions(d), mixed_denominator_distributions(d)))  # zeros make sparse supports
    if data.draw(st.booleans()):
        dist = Distribution.floating(dist.as_floats())
    rate = data.draw(st.floats(0.5, 12.0))
    trunc = Poisson(rate).first_sizes(data.draw(st.sampled_from([1e-2, 1e-4])))[1]
    size_from = data.draw(st.sampled_from([0, trunc + 1]))  # the first truncation, or one extension block
    size_to = trunc if size_from == 0 else trunc + 4
    reference = histogram_item_arrays(dist, size_from, size_to, Poisson(rate).size_weight)
    assert same_arrays(_side_items(dist, Poisson(rate), size_from, size_to), reference)
    # a fixed-size side; a scale of two subnormal units underflows every pmf below 1/4 to 0, and drops its rows
    n = data.draw(st.integers(0, 8))
    for scale in (1.0, 1e-323):
        assert same_arrays(_item_arrays(dist, n, n, lambda _: scale), histogram_item_arrays(dist, n, n, lambda _: scale))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_the_oracle_memos_equal_fresh_builds_and_cannot_be_written(data):
    d = data.draw(st.integers(1, 3))
    dist = data.draw(st.one_of(exact_distributions(d), mixed_denominator_distributions(d)))
    size = data.draw(st.integers(0, 6))
    side = _pmf_numerators(dist, size)
    hists, numerators, power = side
    support, scaled, den = _scaled_support(dist)
    on_support = [h for h in enumerate_histograms(d, size) if all(h.counts[x] == 0 or x in support for x in range(d))]
    assert power == den**size
    assert type(hists) is tuple and list(hists) == on_support and hists == _support_histograms(support, d, size)
    assert type(numerators) is tuple and list(numerators) == _numerated_compositions(scaled, size)[1]
    assert _pmf_numerators(dist, size) is side
    rate = data.draw(st.floats(0.5, 8.0))
    trunc = Poisson(rate).first_sizes(1e-2)[1]
    items = _side_items(dist, Poisson(rate), 0, trunc)
    assert _side_items(dist, Poisson(rate), 0, trunc) is items
    assert same_arrays(items, _item_arrays(dist, 0, trunc, Poisson(rate).size_weight))
    for array in items:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_a_float_point_equal_to_a_memoized_exact_one_is_still_rejected(data):
    d = data.draw(st.integers(1, 3))
    grid = simplex_grid(d, 2 ** data.draw(st.integers(0, 3)))  # dyadic entries, so a float point equals its exact twin
    p, q = data.draw(st.sampled_from(grid)), data.draw(st.sampled_from(grid))
    two_sample, known_target = compile_two_sample(builtin_l2(d), 2, 2), compile_known_target(builtin_l2(d), 2)
    expected_losses(two_sample, [(p, q)])  # memoizes the exact sides of p and q
    float_p, float_q = (Distribution.floating(x.as_floats()) for x in (p, q))
    assert (float_p.probs, hash(float_p)) == (p.probs, hash(p))  # equal in value and hash, not in mode
    for loss, point, side in ((two_sample, (float_p, q), "model"), (two_sample, (p, float_q), "target"),
                              (known_target, (float_p, q), "model"), (known_target, (p, float_q), "target")):
        with pytest.raises(ValueError, match=f"exact-mode {side}"):
            expected_losses(loss, [point])


def test_simplex_grid_returns_a_new_list_of_shared_points():
    first, second = simplex_grid(3, 4), simplex_grid(3, 4)
    assert first == second and first is not second and all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(simplex_grid(3, 4)) == len(second) == 15


def test_every_oracle_memo_stays_within_its_bound():
    many = 600  # more distinct keys than any memo keeps
    for k in range(1, many + 1):
        dist = Distribution.exact([Fraction(k, many + 1), 1 - Fraction(k, many + 1)])
        _pmf_numerators(dist, 1)
        _support_histograms((0,), 1, k)
        simplex_grid(1, k)
        if k <= 2 * verify._ITEM_TABLES:
            _side_items(dist, Poisson(0.5), 0, 1)
    for memo, bound in ((_pmf_numerators, verify._SIDE_TABLES), (_support_histograms, verify._SUPPORT_TABLES),
                        (_side_items, verify._ITEM_TABLES), (divergences._simplex_points, divergences._GRIDS)):
        info = memo.cache_info()
        assert info.maxsize == bound and info.currsize == bound


EPSILON = Fraction(1, 10**9)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_the_equality_fast_path_cannot_hide_a_gap(data):
    d = data.draw(st.integers(1, 3))
    grid = simplex_grid(d, data.draw(st.integers(1, 4)))
    points = data.draw(st.lists(st.tuples(st.sampled_from(grid), st.sampled_from(grid)), min_size=1, max_size=8))
    n, m = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    div = builtin_l2(d)
    compiled = [compile_known_target(div, n), compile_two_sample(div, n, m)]
    for loss in compiled:
        # the pmf sums to 1, so every expectation moves by exactly epsilon
        shifted = dataclasses.replace(loss, evaluator=lambda h, t, f=loss.evaluator: f(h, t) + EPSILON)
        for report in check_implements(shifted, div, points):
            assert not report.passed and type(report.gap) is Fraction and report.gap == EPSILON
            assert report.estimate - report.target == EPSILON
    for loss in compiled + [naive_plugin_loss(n)]:
        one_point = exact_expected_known_target if loss.scheme_q == KNOWN_TARGET else exact_expected_two_sample
        for (p, q), report in zip(points, check_implements(loss, div, points)):
            target = div.evaluate(p, q)
            estimate = one_point(loss, p, q)
            gap = abs(target - estimate)
            assert report == VerificationReport(target, estimate, gap, "exact", None, gap <= 0)
            assert all(type(v) is Fraction for v in (report.target, report.estimate, report.gap))


def monomial_loop(div, p, q):
    """A divergence's value as the plain monomial sum, in the arithmetic of its coefficients and entries."""

    def power_product(values, exps):
        out = 1
        for x, e in exps.pairs:
            out = out * values[x] ** e
            if out == 0:
                break
        return out

    pv, qv = (x.probs if isinstance(x, Distribution) else tuple(x) for x in (p, q))
    acc = 0
    for mono in div.monomials:
        acc = acc + mono.coeff * power_product(pv, mono.p_exps) * power_product(qv, mono.q_exps)
    return acc


@st.composite
def mixed_polynomials(draw, d: int, coefficients):
    keys = draw(st.lists(st.tuples(exponent_vectors(d), exponent_vectors(d)), min_size=1, max_size=8, unique=True))
    return PolyDivergence(tuple(Monomial(draw(coefficients), a, b) for a, b in keys))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_divergence_evaluation_equals_the_monomial_loop(data):
    d = data.draw(st.integers(1, 4))
    rational = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=12)).filter(lambda c: c != 0)
    floating = st.floats(-5, 5, allow_subnormal=False).filter(lambda c: c != 0)
    exact_points = st.one_of(exact_distributions(d), mixed_denominator_distributions(d),
                             st.lists(st.integers(-2, 3), min_size=d, max_size=d))
    float_points = st.one_of(exact_distributions(d).map(lambda dist: Distribution.floating(dist.as_floats())),
                             st.lists(st.floats(-2, 2), min_size=d, max_size=d))
    exact_div = data.draw(mixed_polynomials(d, rational))
    for _ in range(3):
        p, q = data.draw(exact_points), data.draw(exact_points)
        value = exact_div.evaluate(p, q)
        assert isinstance(value, Fraction) and value == monomial_loop(exact_div, p, q)
    # a float coefficient or a float entry anywhere keeps the loop's float arithmetic, bit for bit
    float_div = data.draw(mixed_polynomials(d, st.one_of(rational, floating)))
    for points in ((exact_points, float_points), (float_points, exact_points), (float_points, float_points),
                   (exact_points, exact_points)):
        p, q = (data.draw(points_of) for points_of in points)
        for div in (exact_div, float_div):
            value = div.evaluate(p, q)
            reference = monomial_loop(div, p, q)
            assert repr(value) == repr(reference) if isinstance(reference, float) else value == reference


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_an_unreduced_divergence_value_is_its_fraction(data):
    d = data.draw(st.integers(1, 4))
    rational = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=12)).filter(lambda c: c != 0)
    divs = [data.draw(mixed_polynomials(d, rational)), builtin_l2(d), builtin_brier(d), builtin_lk_even(d, 4)]
    divs += [div for pair in data.draw(template_divergences()) for div in pair]
    for div in divs:
        p, q = data.draw(rational_points(div.dim)), data.draw(rational_points(div.dim))
        pair = div.evaluate(p, q, unreduced=True)
        assert type(pair) is tuple and all(type(v) is int for v in pair) and pair[1] > 0
        assert Fraction(*pair) == div.evaluate(p, q) == monomial_loop(div, p, q)
        # a float entry anywhere keeps the float sum, unreduced or not
        for p, q in ((data.draw(float_points(div.dim)), q), (p, data.draw(float_points(div.dim)))):
            value = div.evaluate(p, q, unreduced=True)
            assert type(value) is not tuple and repr(value) == repr(div.evaluate(p, q))


def double_loop_energy(s_values, u_values):
    """The O(n^2) energy statistic: every pair's |difference|, summed in the inputs' own arithmetic."""
    cross = 0
    for a in s_values:
        for b in u_values:
            cross = cross + abs(a - b)
    within = []
    for values in (s_values, u_values):
        acc = 0
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                acc = acc + abs(a - b)
        within.append(acc)
    n, m = len(s_values), len(u_values)
    return (
        2 * cross * Fraction(1, n * m)
        - 2 * within[0] * Fraction(1, n * (n - 1))
        - 2 * within[1] * Fraction(1, m * (m - 1))
    )


# few distinct small values, so that ties within and across samples are common
rational_values = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=7))
float_values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324]))


@settings(deadline=None, max_examples=60)
@given(st.lists(rational_values, min_size=2, max_size=40), st.lists(rational_values, min_size=2, max_size=40))
def test_rational_energy_equals_the_double_loop(s_values, u_values):
    value = energy_loss(RealSample(tuple(s_values)), RealSample(tuple(u_values)))
    assert isinstance(value, Fraction)
    assert value == double_loop_energy(s_values, u_values)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_float_energy_is_the_exact_statistic_rounded_once(data):
    s_values = data.draw(st.lists(float_values, min_size=2, max_size=40))
    u_values = data.draw(st.lists(float_values, min_size=2, max_size=40))
    value = energy_loss(RealSample(tuple(s_values)), RealSample(tuple(u_values)))
    exact = double_loop_energy([Fraction(v) for v in s_values], [Fraction(v) for v in u_values])
    assert type(value) is float and repr(value) == repr(float(exact))
    shuffled_s, shuffled_u = data.draw(st.permutations(s_values)), data.draw(st.permutations(u_values))
    assert repr(energy_loss(RealSample(tuple(shuffled_s)), RealSample(tuple(u_values)))) == repr(value)
    assert repr(energy_loss(RealSample(tuple(s_values)), RealSample(tuple(shuffled_u)))) == repr(value)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_a_float_in_either_sample_gives_a_float(data):
    s_values = data.draw(st.lists(rational_values, min_size=2, max_size=8))
    u_values = data.draw(st.lists(rational_values, min_size=2, max_size=8))
    side = data.draw(st.sampled_from((s_values, u_values)))
    side.insert(data.draw(st.integers(0, len(side))), data.draw(float_values))
    value = energy_loss(RealSample(tuple(s_values)), RealSample(tuple(u_values)))
    assert type(value) is float
    exact = double_loop_energy([Fraction(v) for v in s_values], [Fraction(v) for v in u_values])
    assert repr(value) == repr(float(exact))


def loop_ecdf_integral(s_values, u_values, y=None):
    """The per-breakpoint loop ``cramer_loss`` (and, given ``y``, ``crps``) evaluated before it scored sorted arrays.

    Fractions for rational inputs and Python floats for float ones, one breakpoint at a time, in the library's
    old operation order: the reference the exact and float paths must equal."""
    values = list(s_values) + list(u_values) + ([] if y is None else [y])
    exact = not any(isinstance(v, float) for v in values)
    s_sorted, u_sorted = sorted(s_values), sorted(u_values)
    n, m = len(s_values), len(u_values)

    def cdf(sorted_values, x):
        count = bisect_right(sorted_values, x)
        return Fraction(count, len(sorted_values)) if exact else count / len(sorted_values)

    breaks = sorted(set(values))
    acc = 0
    for b0, b1 in zip(breaks, breaks[1:]):
        fs = cdf(s_sorted, b0)
        if y is None:
            fu = cdf(u_sorted, b0)
            acc = acc + (b1 - b0) * ((fs - fu) ** 2 - variance_mvue(fs, n) - variance_mvue(fu, m))
        else:
            ind = 1 if b0 >= y else 0
            acc = acc + (b1 - b0) * ((fs - ind) ** 2 - variance_mvue(fs, n))
    return acc


def same_float(value, reference) -> bool:
    """Bit-for-bit equality of two floats, nan and the sign of zero included."""
    return type(value) is float and struct.pack("<d", value) == struct.pack("<d", float(reference))


# ties, signed zeros, the smallest subnormal, values around +-1e6, and values near +-1.7e308 whose gaps
# overflow to inf (and an inf gap times a zero term to nan)
line_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 5e-324, -5e-324]),
    st.floats(-1e6, 1e6),
    st.floats(1.6e308, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(-3, 3).map(float),
)
line_samples = st.lists(line_floats, min_size=2, max_size=30)


@settings(deadline=None, max_examples=300)
@given(line_samples, line_samples, line_floats)
def test_float_cramer_and_crps_equal_the_breakpoint_loop_bit_for_bit(s_values, u_values, y):
    s, u = RealSample(tuple(s_values)), RealSample(tuple(u_values))
    assert same_float(cramer_loss(s, u), loop_ecdf_integral(s_values, u_values))
    assert same_float(crps(s, y), loop_ecdf_integral(s_values, (), y))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(2, 300), st.sampled_from([0, 1, 17]))
def test_float_cramer_equals_the_breakpoint_loop_on_large_samples(seed, n, m, decimals):
    # a few hundred breakpoints, where pow(x, 2) and x * x round about one ECDF value in a thousand apart;
    # values rounded to 0 or 1 decimals tie often
    rng = np.random.default_rng(seed)
    s_values, u_values = (np.round(rng.normal(0.0, 3.0, size), decimals).tolist() for size in (n, m))
    s = RealSample(tuple(s_values))
    assert same_float(cramer_loss(s, RealSample(tuple(u_values))), loop_ecdf_integral(s_values, u_values))
    assert same_float(crps(s, u_values[0]), loop_ecdf_integral(s_values, (), u_values[0]))


def test_float_terms_square_with_pow_as_python_floats_do():
    # at the breakpoint 17 the ECDFs are 1/3 and 17/24, whose difference Python squares with pow(),
    # one unit in the last place away from its product with itself; n=41 with 8 values at or below
    # a breakpoint does the same for the variance term's 1 - 8/41
    d, q = 1 / 3 - 17 / 24, 1.0 - 8 / 41
    assert d**2 != d * d and q**2 != q * q
    s_values = [0.0, 100.0, 200.0]
    u_values = [float(v) for v in range(1, 18)] + [150.0 + v for v in range(7)]
    assert same_float(cramer_loss(RealSample(tuple(s_values)), RealSample(tuple(u_values))),
                      loop_ecdf_integral(s_values, u_values))
    s_values = [float(v) for v in range(41)]
    assert same_float(crps(RealSample(tuple(s_values)), 7.5), loop_ecdf_integral(s_values, (), 7.5))


@settings(deadline=None, max_examples=150)
@given(st.lists(rational_values, min_size=2, max_size=12), st.lists(rational_values, min_size=2, max_size=12),
       rational_values)
def test_exact_cramer_and_crps_equal_the_fraction_loop(s_values, u_values, y):
    s, u = RealSample(tuple(s_values)), RealSample(tuple(u_values))
    value, single = cramer_loss(s, u), crps(s, y)
    assert type(value) is Fraction and value == loop_ecdf_integral(s_values, u_values)
    assert type(single) is Fraction and single == loop_ecdf_integral(s_values, (), y)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_projected_cramer_scores_each_points_dot_product(data):
    dim = data.draw(st.integers(1, 32), label="dim")
    coordinates = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0])
    points = st.lists(st.tuples(*[coordinates] * dim), min_size=2, max_size=25)
    s_points, u_points = data.draw(points), data.draw(points)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    value = projected_cramer_loss(VectorSample(s_points), VectorSample(u_points), seed)
    v = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(dim)
    v = v / float(np.linalg.norm(v))
    projected = [[float(np.dot(v, point)) for point in points_] for points_ in (s_points, u_points)]
    assert same_float(value, loop_ecdf_integral(*projected))


@st.composite
def template_divergences(draw):
    """The builtin separable divergences at one d <= 6, each with its expansion into plain monomials."""
    d = draw(st.integers(1, 6))
    builtins = (builtin_l2(d), builtin_brier(d), squared_norm_polynomial(d),
                builtin_lk_even(d, draw(st.sampled_from((2, 4, 6)))))
    assert all(div.template is not None for div in builtins)
    return [(div, PolyDivergence(tuple(div.monomials))) for div in builtins]


def float_points(d: int):
    return st.one_of(exact_distributions(d).map(lambda dist: Distribution.floating(dist.as_floats())),
                     st.lists(st.floats(-2, 2), min_size=d, max_size=d))


def rational_points(d: int):
    return st.one_of(exact_distributions(d), mixed_denominator_distributions(d),
                     st.lists(st.integers(-2, 3), min_size=d, max_size=d))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_a_template_evaluates_as_its_expanded_monomials(data):
    for div, dense in data.draw(template_divergences()):
        assert len(div.monomials) == len(dense.monomials)
        assert (div.deg_p, div.deg_q) == (dense.deg_p, dense.deg_q) and div == dense
        d = div.dim
        for p_points, q_points in ((rational_points(d), rational_points(d)), (rational_points(d), float_points(d)),
                                   (float_points(d), rational_points(d)), (float_points(d), float_points(d))):
            p, q = data.draw(p_points), data.draw(q_points)
            value, reference = div.evaluate(p, q), dense.evaluate(p, q)
            assert type(value) is type(reference) and repr(value) == repr(reference)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_a_template_compiles_as_its_expanded_monomials(data):
    for div, dense in data.draw(template_divergences()):
        d = div.dim
        n = max(1, div.deg_p) + data.draw(st.integers(0, 2))
        m = max(1, div.deg_q) + data.draw(st.integers(0, 2))
        rows = data.draw(st.lists(st.tuples(histograms(d, n), histograms(d, m)), min_size=1, max_size=6))
        q = data.draw(st.one_of(rational_points(d), float_points(d)))
        hp = CountRows.from_counts(np.array([h.counts for h, _ in rows]))
        hq = CountRows.from_counts(np.array([g.counts for _, g in rows]))
        for mode in (Mode.EXACT, Mode.FLOAT):
            loss, reference = compile_two_sample(div, n, m, mode), compile_two_sample(dense, n, m, mode)
            known, known_reference = compile_known_target(div, n, mode), compile_known_target(dense, n, mode)
            for h, g in rows:
                value, expected = loss.evaluator(h, g), reference.evaluator(h, g)
                assert type(value) is type(expected) and repr(value) == repr(expected)
                assert repr(known.evaluator(h, q)) == repr(known_reference.evaluator(h, q))
            assert loss.batch_evaluator(hp, hq).tobytes() == reference.batch_evaluator(hp, hq).tobytes()
        if all(isinstance(v, (int, Fraction)) for v in q):  # the float path tracks its exact twin
            exact, floating = compile_known_target(div, n), compile_known_target(div, n, Mode.FLOAT)
            for h, _ in rows:
                value = exact.evaluator(h, q)
                assert type(value) is Fraction
                assert math.isclose(floating.evaluator(h, q), value, rel_tol=1e-12, abs_tol=1e-12)


def test_a_builtin_over_a_million_outcomes_builds_no_exponent_vector(monkeypatch):
    fills = []
    fill = ExponentVector._fill
    monkeypatch.setattr(ExponentVector, "_fill", lambda self, *args: fills.append(1) or fill(self, *args))
    div = builtin_l2(10**6)
    assert (div.deg_p, div.deg_q, len(div.monomials)) == (2, 2, 3 * 10**6)
    assert fills == []
    compile_two_sample(div, 2, 2)
    assert fills == []
    d = 10**5
    q = Distribution.floating([2.0**-16] * 2**16 + [0.0] * (d - 2**16))  # sums to 1 exactly
    h = Histogram.from_indices((3, 70_000), d)
    for mode in (Mode.EXACT, Mode.FLOAT):  # a float target's first call
        assert type(compile_known_target(builtin_l2(d), 2, mode).evaluator(h, q)) is float
    assert fills == []


def templates(d: int):
    return st.sampled_from((builtin_l2(d), builtin_brier(d), squared_norm_polynomial(d), builtin_lk_even(d, 4)))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_sparse_and_dense_scoring_agree_bit_for_bit(data):
    # the two scorers of count rows: dense columns, and each row over its own
    # observed coordinates; the rule between them is replaced by each answer
    d = data.draw(st.integers(1, 40), label="d")
    rows = data.draw(st.integers(1, 12), label="rows")
    ragged = data.draw(st.booleans(), label="ragged")
    div = data.draw(st.one_of(templates(d), sparse_polynomials(d)), label="divergence")
    n = max(1, div.deg_p) + data.draw(st.integers(0, 2))
    m = max(1, div.deg_q) + data.draw(st.integers(0, 2))
    alpha, beta = (data.draw(st.sampled_from([0.5, 4.0, 8.0])) for _ in range(2))

    def side(size):  # fixed sizes, or ragged Poisson-like ones
        sizes = data.draw(st.lists(st.integers(0, 12), min_size=rows, max_size=rows) if ragged else st.just([size] * rows))
        draws = data.draw(st.lists(st.integers(0, d - 1), min_size=sum(sizes), max_size=sum(sizes)))
        return np.array(draws, dtype=np.int64), sizes

    sides = (side(n), side(m))
    losses = [compile_two_sample(div, n, m, Mode.FLOAT), cross_entropy_poisson(alpha, beta),
              cross_entropy_poisson_fixed_target(alpha, m), entropy_poisson(beta), kl_poisson(alpha, beta)]
    for loss in losses:
        scored = []
        for dense in (True, False):
            hp, hq = (CountRows.from_draws(draws, sizes, d) for draws, sizes in sides)  # nothing built yet
            with mock.patch("properloss.domain.scored_dense", lambda *_: dense), np.errstate(invalid="ignore"):
                scored.append(loss.batch_evaluator(None if loss.scheme_p is None else hp, hq))
        assert scored[0].shape == (rows,)
        assert scored[0].tobytes() == scored[1].tobytes()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_exact_mode_keeps_every_value_against_a_float_target(data):
    # a float target's target-only constant multiplies float(weight) by each
    # entry, which is what a Fraction weight times a float computes
    import properloss.compiler as compiler

    d = data.draw(st.integers(1, 6))
    div = data.draw(st.one_of(templates(d), sparse_polynomials(d)))
    n = max(1, div.deg_p) + data.draw(st.integers(0, 2))
    q = data.draw(float_points(d))
    hists = data.draw(st.lists(histograms(d, n), min_size=1, max_size=4))
    loss, reference = compile_known_target(div, n), compile_known_target(div, n)
    with mock.patch.object(compiler, "_float_weights", lambda file: file):  # the Fraction weights
        expected = [repr(reference.evaluator(h, q)) for h in hists]
    assert [repr(loss.evaluator(h, q)) for h in hists] == expected


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_count_rows_hold_the_row_major_counts_stored_coordinate_major(data):
    d = data.draw(st.integers(1, 40), label="d")
    sizes = data.draw(st.lists(st.integers(0, 6), max_size=10), label="sizes")
    draws = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=sum(sizes), max_size=sum(sizes))),
                     dtype=np.int64)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    expected = np.bincount(rows * d + draws, minlength=len(sizes) * d).reshape(len(sizes), d)
    flat = expected.reshape(-1)
    keys = np.flatnonzero(flat)

    dense = CountRows.from_draws(draws, sizes, d).dense()
    assert dense.shape == expected.shape and dense.dtype == np.int64 and dense.flags.f_contiguous
    assert np.array_equal(dense, expected) and dense.tobytes() == expected.tobytes()
    for built in (False, True):  # entries from the draws, and from a matrix built first
        batch = CountRows.from_draws(draws, sizes, d)
        if built:
            batch.dense()
        got_keys, got_counts = batch.entries()
        assert got_keys.tolist() == keys.tolist() and got_counts.tolist() == flat[keys].tolist()

    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    probs = np.random.default_rng(seed).dirichlet(np.ones(d)).tolist()
    source = InternalSource(Distribution.floating(probs))
    cum = np.cumsum(source.dist.as_floats())
    for n in sizes:  # a one-row draw reads row 0 of a coordinate-major matrix
        idx = np.minimum(np.searchsorted(cum, stream_rng(seed, 0).random(n), side="right"), d - 1)
        assert source.draw(n, stream_rng(seed, 0)).counts == tuple(np.bincount(idx, minlength=d).tolist())


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40), st.lists(st.integers(0, 6), max_size=8), st.integers(0, 2**32 - 1))
def test_internal_draws_are_the_binary_search_inverse_cdf(d, sizes, seed):
    # small domains count CDF steps, large ones search them: the same indices
    probs = np.random.default_rng(seed).dirichlet(np.ones(d))
    batch = InternalSource(Distribution.floating(probs.tolist())).draw_batch(sizes, stream_rng(seed, 0))
    cum = np.cumsum(Distribution.floating(probs.tolist()).as_floats())
    idx = np.minimum(np.searchsorted(cum, stream_rng(seed, 0).random(sum(sizes)), side="right"), d - 1)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    expected = np.bincount(rows * d + idx, minlength=len(sizes) * d).reshape(len(sizes), d)
    assert batch.dense().tolist() == expected.tolist()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_stepped_and_searched_draws_give_the_same_indices(data):
    d = data.draw(st.integers(2, 200))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(d)) * (rng.random(d) < data.draw(st.sampled_from([0.3, 1.0])))
    weights[data.draw(st.integers(0, d - 1))] += 1  # zero weights repeat a step
    probs = (weights / weights.sum()).tolist()
    cum = np.cumsum(Distribution.floating(probs).as_floats())
    above = np.nextafter(cum[-1], 2.0)  # past the last cumsum entry, where rounding can leave it below 1
    u = np.concatenate((rng.random(64), cum, np.nextafter(cum, -1.0), [0.0, above, max(above, 1 - 2**-53)]))
    stepped, searched = _stepped_indices(cum, u), _searched_indices(cum, u)
    assert stepped.tolist() == searched.tolist()
    assert stepped[-2:].tolist() == [d - 1, d - 1]
    # an internal source draws by either path as its domain size says; both are the binary search
    sizes = data.draw(st.lists(st.integers(0, 6), max_size=4))
    batch = InternalSource(Distribution.floating(probs)).draw_batch(sizes, stream_rng(seed, 0))
    idx = _searched_indices(cum, stream_rng(seed, 0).random(sum(sizes)))
    rows = np.repeat(np.arange(len(sizes)), sizes)
    assert batch.dense().tolist() == np.bincount(rows * d + idx, minlength=len(sizes) * d).reshape(-1, d).tolist()


@st.composite
def p_only_potentials(draw, d: int, degree: int):
    """A p-only polynomial of degree ``degree`` over ``d`` coordinates: one monomial of that degree and up to four
    of lower degrees (constants included), with small rational coefficients, often integers so that terms cancel."""
    coefficients = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=4)).filter(lambda c: c != 0)
    top = draw(st.sampled_from(list(compositions(degree, d))))
    lower = draw(st.lists(st.sampled_from([e for k in range(degree) for e in compositions(k, d)]),
                          max_size=4, unique=True))
    return PolyDivergence(tuple(Monomial(draw(coefficients), ExponentVector(e), ExponentVector.zero(d))
                                for e in [top, *lower]))


def interpolated_slope(values) -> Fraction:
    """f'(0) of the polynomial of degree below ``len(values)`` through the points ``(t, values[t])``, t = 0, 1, ...:
    the derivative at 0 of each Lagrange basis polynomial, in Fractions."""
    nodes = range(len(values))
    slope = Fraction(0)
    for j, value in zip(nodes, values):
        for m in nodes:
            if m != j:
                term = Fraction(1, j - m)
                for i in nodes:
                    if i not in (j, m):
                        term *= Fraction(-i, j - i)
                slope += value * term
    return slope


def interpolated_partials(potential, q) -> list:
    """Each ``dG/dp_x`` at ``q``, from ``G(q + t e_x)`` at ``t = 0..deg G``."""
    qv = list(q.probs if isinstance(q, Distribution) else q)
    partials = []
    for x in range(len(qv)):
        points = [qv[:x] + [qv[x] + t] + qv[x + 1:] for t in range(potential.deg_p + 1)]
        partials.append(interpolated_slope([potential.evaluate(point, point) for point in points]))
    return partials


@dataclasses.dataclass(frozen=True)
class InterpolatedBregman:
    """G(p) - G(q) - sum_x dG/dp_x(q) (p_x - q_x), its partials interpolated: a reference apart from the package's."""

    potential: PolyDivergence

    def evaluate(self, p, q):
        pv, qv = (x.probs if isinstance(x, Distribution) else tuple(x) for x in (p, q))
        tangent = sum(g * (a - b) for g, a, b in zip(interpolated_partials(self.potential, qv), pv, qv))
        return self.potential.evaluate(pv, pv) - self.potential.evaluate(qv, qv) - tangent


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_a_compiled_bregman_divergence_implements_the_interpolated_reference(data):
    d, degree = data.draw(st.integers(1, 3)), data.draw(st.sampled_from((2, 4)))
    potential = data.draw(p_only_potentials(d, degree))
    reference = InterpolatedBregman(potential)
    points = data.draw(st.lists(st.tuples(exact_distributions(d), exact_distributions(d)), min_size=1, max_size=4))
    reports = check_implements(compile_known_target(bregman_divergence(potential), degree), reference, points)
    assert all(r.passed and r.gap == 0 for r in reports)
    if degree == 2:
        # the certificate holds exactly when v' H v >= 0 on the tangent directions, v' H v = 2 D(v, 0) for a quadratic
        form = lambda v: 2 * reference.evaluate(v, (0,) * d)
        basis = [tuple(Fraction(int(i == k) - int(i == d - 1)) for i in range(d)) for k in range(d - 1)]
        diagonal = [form(u) for u in basis]
        cross = (form(tuple(map(sum, zip(*basis)))) - sum(diagonal)) / 2 if d == 3 else 0
        convex = all(a >= 0 for a in diagonal) and (d < 3 or diagonal[0] * diagonal[1] >= cross**2)
        try:
            bregman_known_target(potential, potential.gradient(), 2)
            accepted = True
        except ValueError as err:
            assert "not convex on the simplex" in str(err)
            accepted = False
        assert accepted == convex


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_the_gradient_is_the_interpolated_derivative(data):
    d, degree = data.draw(st.integers(1, 3)), data.draw(st.sampled_from((2, 4)))
    potential = data.draw(p_only_potentials(d, degree))
    q = data.draw(st.lists(st.fractions(-2, 2, max_denominator=6), min_size=d, max_size=d))
    gradient = potential.gradient()
    assert len(gradient) == d
    for partial, expected in zip(gradient, interpolated_partials(potential, q)):
        assert (0 if partial is None else partial.evaluate(q, q)) == expected
        assert partial is None or (partial.deg_q == 0 and partial.deg_p <= degree - 1)
