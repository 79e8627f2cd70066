"""Property tests tying the float fast paths to their exact twins, and the exact oracles to brute force."""

import dataclasses
import functools
import itertools
import math
import os
import tempfile
from fractions import Fraction
from unittest import mock

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
    RealSample,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    check_implements,
    compile_known_target,
    compile_two_sample,
    compositions,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    energy_loss,
    entropy_poisson,
    enumerate_histograms,
    exact_expected_known_target,
    exact_expected_two_sample,
    expected_losses,
    kl_poisson,
    multinomial_pmf,
    naive_plugin_loss,
    simplex_grid,
    squared_norm_polynomial,
    stream_rng,
)
from properloss import VerificationReport, poisson_expected_loss
from properloss.compiler import CompiledLoss
from properloss.divergences import Monomial, PolyDivergence
from properloss.domain import CountRows, Poisson
from properloss.estimators import ExponentVector, poisson_power_series
from properloss.verify import (
    _item_arrays,
    _numerated_compositions,
    _pmf_numerators,
    _poisson_items,
    _poisson_mass_truncation,
    _poisson_size_weight,
    _scaled_support,
    _weighted_histograms,
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

    def cases(mode):
        return [
            (cross_entropy_poisson(alpha, beta, mode), rows),
            (cross_entropy_poisson_fixed_target(alpha, m, mode), fixed_rows),
            (entropy_poisson(beta, mode), rows),
            (kl_poisson(alpha, beta, mode), rows),
        ]

    for (loss, pairs), (exact, _) in zip(cases(Mode.FLOAT), cases(Mode.EXACT)):
        hp = CountRows.from_counts(np.array([h for h, _ in pairs], dtype=np.int64))
        hq = CountRows.from_counts(np.array([g for _, g in pairs], dtype=np.int64))
        args = (None if loss.scheme_p is None else hp, hq)
        with np.errstate(invalid="ignore"):  # KL's inf - inf
            batch, exact_batch = loss.batch_evaluator(*args), exact.batch_evaluator(*args)
        assert batch.shape == (len(pairs),)
        # by repr, so that NaN rows match too
        assert repr(batch.tolist()) == repr(exact_batch.tolist())  # float in every mode
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
    mode = data.draw(st.sampled_from(Mode))
    for loss, rhs in (
        (cross_entropy_poisson(alpha, beta, mode), right),
        (cross_entropy_poisson_fixed_target(alpha, m, mode), fixed_right),
        (entropy_poisson(beta, mode), right),
        (kl_poisson(alpha, beta, mode), right),
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
            for item in pmf_weighted_histograms(dist, size, _poisson_size_weight(rate, size))
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
            trunc = _poisson_mass_truncation(scheme.rate, per_side)
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


def test_an_exact_mode_poisson_loss_is_scored_in_float():
    p = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
    q = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
    for exact, floating in (
        (cross_entropy_poisson(6.0, 6.0, Mode.EXACT), cross_entropy_poisson(6.0, 6.0)),
        (kl_poisson(4.0, 5.0, Mode.EXACT), kl_poisson(4.0, 5.0)),
        (entropy_poisson(3.0, Mode.EXACT), entropy_poisson(3.0)),
        (cross_entropy_poisson_fixed_target(6.0, 2, Mode.EXACT), cross_entropy_poisson_fixed_target(6.0, 2)),
    ):
        model = None if exact.scheme_p is None else p
        value = poisson_expected_loss(exact, model, q, **ORACLE_ARGS).value
        assert isinstance(value, float)
        reference = scalar_poisson_expectation(floating, model, q, **ORACLE_ARGS)["value"]
        assert math.isclose(value, reference, rel_tol=1e-12)


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
                _, hists, numerators, denominator = _pmf_numerators(dist, size)
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


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_exact_side_weights_equal_the_scaled_reference_pmf_bit_for_bit(data):
    d = data.draw(st.integers(1, 3))
    dist = data.draw(st.one_of(exact_distributions(d), mixed_denominator_distributions(d)))
    size = data.draw(st.integers(0, 8))
    scale = data.draw(st.one_of(st.just(1.0), st.floats(1e-300, 1e3), st.builds(_poisson_size_weight,
                                                                             st.floats(0.5, 700.0), st.just(size))))
    weights = _weighted_histograms(dist, size, scale)
    assert [(h, repr(w)) for h, w in weights] == [(h, repr(w)) for h, w in pmf_weighted_histograms(dist, size, scale)]


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
    """A side's items built from Histograms: :func:`_weighted_histograms` per size, stacked into arrays."""
    items = [item for size in range(size_from, size_to + 1)
             for item in _weighted_histograms(dist, size, size_weight(size))]
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
    trunc = _poisson_mass_truncation(rate, data.draw(st.sampled_from([1e-2, 1e-4])))
    size_from = data.draw(st.sampled_from([0, trunc + 1]))  # the first truncation, or one extension block
    size_to = trunc if size_from == 0 else trunc + 4
    reference = histogram_item_arrays(dist, size_from, size_to, functools.partial(_poisson_size_weight, rate))
    assert same_arrays(_poisson_items(dist, rate, size_from, size_to), reference)
    # a fixed-size side; a scale of two subnormal units underflows every pmf below 1/4 to 0, and drops its rows
    n = data.draw(st.integers(0, 8))
    for scale in (1.0, 1e-323):
        assert same_arrays(_item_arrays(dist, n, n, lambda _: scale), histogram_item_arrays(dist, n, n, lambda _: scale))


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
        one_point = exact_expected_two_sample if isinstance(loss, CompiledLoss) else exact_expected_known_target
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
