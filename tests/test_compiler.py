import gc
import math
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from properloss import (
    CompiledLoss,
    DegreeGateError,
    DimensionMismatchError,
    Distribution,
    FixedSize,
    Histogram,
    InternalSource,
    Mode,
    Poisson,
    TotalMismatchError,
    bregman_divergence,
    bregman_known_target,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    compile_known_target,
    compile_two_sample,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    entropy_poisson,
    enumerate_histograms,
    estimate_loss,
    exact_expected_known_target,
    kl_poisson,
    naive_plugin_loss,
    simplex_grid,
    squared_norm_gradient,
    squared_norm_polynomial,
)
from properloss import compiler
from properloss.compiler import _row_sums
from properloss.divergences import Monomial, PolyDivergence, Separable
from properloss.domain import KNOWN_TARGET, CountRows, empirical
from properloss.estimators import ExponentVector, variance_mvue

HALF = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])

#: Known targets with mixed denominators (the lcm of 6, 10, 15 is 30, not 15) and zero coordinates.
SQUARED_TARGETS = {
    1: [(Fraction(1),)],
    2: [(Fraction(1, 3), Fraction(2, 3)), (Fraction(0), Fraction(1)), (Fraction(3, 7), Fraction(4, 7)),
        (Fraction(1, 3**400), 1 - Fraction(1, 3**400))],
    3: [(Fraction(1, 6), Fraction(1, 10), Fraction(11, 15)), (Fraction(0), Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1), Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0), Fraction(1, 2))],
}


def fraction_squared_known_target(h, qv, n, mode):
    """The closed form's frequency formula: empirical frequencies and the variance estimator, per coordinate."""
    acc = 0
    for a, b in zip(empirical(h, mode).probs, qv):
        acc = acc + (a - b) ** 2 - variance_mvue(a, n)
    return acc


def fraction_squared_two_sample(h, g, n, m, mode):
    """The closed form's per-coordinate quotients over the observed coordinates, Fractions in exact mode."""
    div = Fraction if mode is Mode.EXACT else lambda a, b: a / b
    acc = 0
    for x in set(h.support).union(g.support):
        a, b = h.counts[x], g.counts[x]
        acc = acc + div(a * (a - 1), n * (n - 1)) - div(2 * a * b, n * m) + div(b * (b - 1), m * (m - 1))
    return acc


class TestCompileTwoSample:
    def test_hand_values_for_squared_distance(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2)
        assert loss.evaluator(Histogram((2, 0)), Histogram((0, 2))) == 2
        assert loss.evaluator(Histogram((1, 1)), Histogram((1, 1))) == -1

    def test_degree_gate_fires_below_the_boundary(self):
        with pytest.raises(DegreeGateError) as exc:
            compile_two_sample(builtin_l2(2), 1, 2)
        assert exc.value.n_required == 2
        assert exc.value.m_required == 2
        with pytest.raises(DegreeGateError):
            compile_two_sample(builtin_l2(2), 2, 1)

    def test_degree_gate_is_tight_for_every_builtin(self):
        for div in (builtin_l2(2), builtin_lk_even(2, 4), builtin_brier(2)):
            n, m = div.deg_p, div.deg_q
            loss = compile_two_sample(div, n, m)
            assert loss.scheme_p == FixedSize(n)
            assert loss.scheme_q == FixedSize(m)
            with pytest.raises(DegreeGateError):
                compile_two_sample(div, n - 1, m)
            with pytest.raises(DegreeGateError):
                compile_two_sample(div, n, m - 1)

    def test_totals_enforced(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2)
        with pytest.raises(TotalMismatchError):
            loss.evaluator(Histogram((3, 0)), Histogram((1, 1)))

    @pytest.mark.parametrize("mode, before, after", [(Mode.EXACT, 1, 2), (Mode.FLOAT, 1, 1)])
    def test_the_float_twin_is_built_on_the_first_batch_call(self, monkeypatch, mode, before, after):
        built = []

        class Counted(compiler._Estimator):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(compiler, "_Estimator", Counted)
        loss = compile_two_sample(builtin_l2(2), 2, 2, mode)
        assert loss.evaluator(Histogram((2, 0)), Histogram((0, 2))) == 2
        assert len(built) == before  # the exact oracles need the scalar estimator alone
        rows = CountRows.from_counts(np.array([[2, 0], [1, 1]]))
        for _ in range(2):
            assert loss.batch_evaluator(rows, rows).tolist() == [0.0, -1.0]
        assert len(built) == after

    @pytest.mark.parametrize("build", [lambda: compile_known_target(builtin_l2(2), 2),
                                       lambda: compile_two_sample(builtin_l2(2), 2, 2)], ids=["known", "two-sample"])
    def test_a_dropped_loss_is_freed_without_the_cycle_collector(self, build):
        loss = build()
        assert compiler._numerator_route(loss.evaluator) is loss.evaluator.numerators
        evaluator = weakref.ref(loss.evaluator)
        gc.disable()
        try:
            del loss
            assert evaluator() is None  # the exact route names its evaluator weakly: no reference cycle
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", [Mode.EXACT, Mode.FLOAT])
    def test_count_rows_over_another_domain_are_refused(self, mode):
        # a divergence over 2 outcomes must not score 3-outcome rows by their first two columns
        loss = compile_two_sample(builtin_l2(2), 2, 2, mode)
        narrow, wide = (CountRows.from_counts(np.array([row])) for row in ([1, 1], [1, 0, 1]))
        for hp, hq in ((wide, wide), (narrow, wide), (wide, narrow)):
            with pytest.raises(DimensionMismatchError, match="divergence needs 2"):
                loss.batch_evaluator(hp, hq)
        assert loss.batch_evaluator(narrow, narrow).tolist() == [-1.0]

    def test_batch_matches_scalar(self):
        loss = compile_two_sample(builtin_lk_even(2, 4), 4, 4, Mode.FLOAT)
        rng = np.random.default_rng(1)
        hp = rng.multinomial(4, [0.3, 0.7], size=50)
        hq = rng.multinomial(4, [0.6, 0.4], size=50)
        batch = loss.batch_evaluator(CountRows.from_counts(hp), CountRows.from_counts(hq))
        scalar = [loss.evaluator(Histogram(tuple(a)), Histogram(tuple(b))) for a, b in zip(hp, hq)]
        assert batch == pytest.approx(scalar, abs=1e-12)


class TestCompileKnownTarget:
    @pytest.mark.parametrize("build", [
        lambda: compile_known_target(builtin_l2(2), 2),
        lambda: bregman_known_target(squared_norm_polynomial(2), squared_norm_gradient(2), 2),
        lambda: naive_plugin_loss(2),
    ], ids=["compiled", "bregman", "plug-in"])
    def test_a_known_target_loss_is_a_compiled_loss_that_is_never_sampled(self, build):
        loss = build()
        assert type(loss) is CompiledLoss and loss.scheme_p == FixedSize(2) and loss.scheme_q is KNOWN_TARGET
        assert loss.batch_evaluator is None and loss.coordinate_form is None
        source = InternalSource(Distribution.floating([0.5, 0.5]))
        with pytest.raises(ValueError, match="known target is not sampled: score its loss with expected_losses"):
            estimate_loss(source, source, loss, 10, seed=0)

    def test_matches_closed_form_values(self):
        loss = compile_known_target(builtin_l2(2), 2)
        assert loss.evaluator(Histogram((1, 1)), HALF) == Fraction(-1, 2)
        assert loss.evaluator(Histogram((2, 0)), HALF) == Fraction(1, 2)

    def test_exact_expectation_at_identity(self):
        loss = compile_known_target(builtin_l2(2), 2)
        assert exact_expected_known_target(loss, HALF, HALF) == 0

    def test_degree_gate(self):
        with pytest.raises(DegreeGateError) as exc:
            compile_known_target(builtin_l2(2), 1)
        assert exc.value.n_required == 2
        assert exc.value.m_required is None

    @pytest.mark.parametrize("div", [builtin_l2(3), PolyDivergence(tuple(builtin_l2(3).monomials))],
                             ids=["template", "written-out"])
    def test_an_estimator_is_built_once_per_target(self, monkeypatch, div):
        import properloss.compiler as compiler

        calls = []

        class Counted(compiler._Estimator):
            def __init__(self, *args, target=None, **kwargs):
                if target is not None:
                    calls.append(target)
                super().__init__(*args, target=target, **kwargs)

        monkeypatch.setattr(compiler, "_Estimator", Counted)
        loss = compile_known_target(div, 2)
        third = Distribution.exact([Fraction(1, 3)] * 3)
        targets = [third, (Fraction(1, 2), Fraction(1, 2), Fraction(0)), third.probs, [Fraction(1), 0, 0]]
        hists = enumerate_histograms(3, 2)
        for _ in range(3):
            for q in targets:
                for h in hists:
                    value = loss.evaluator(h, q)
                    assert isinstance(value, Fraction)
                    assert value == fraction_squared_known_target(h, q, 2, Mode.EXACT)
        assert len(calls) == 4  # one build per target; `third` is cached by its own hash, apart from `third.probs`

    def test_float_and_exact_targets_are_cached_apart(self):
        loss = compile_known_target(builtin_l2(2), 2)
        h = Histogram((1, 1))
        assert type(loss.evaluator(h, HALF)) is Fraction
        floating = loss.evaluator(h, (0.5, 0.5))  # equal to HALF.probs and hashed alike
        assert type(floating) is type(compile_known_target(builtin_l2(2), 2).evaluator(h, (0.5, 0.5)))
        assert type(floating) is float
        assert type(loss.evaluator(h, HALF)) is Fraction


class TestSquaredLossKnownTarget:
    """The compiled l2 against a known target, and the frequency formula as its witness."""

    def test_hand_values(self):
        loss = compile_known_target(builtin_l2(2), 2)
        assert loss.evaluator(Histogram((1, 1)), HALF) == Fraction(-1, 2)
        assert loss.evaluator(Histogram((2, 0)), Distribution.exact([1, 0])) == 0
        assert loss.evaluator(Histogram((2, 0)), HALF) == Fraction(1, 2)

    def test_agrees_with_the_compiler_everywhere(self):
        # frequency formula vs estimator substitution: pointwise equality over
        # every histogram and a rational grid of targets, d <= 3, n <= 5
        for d in (2, 3):
            div = builtin_l2(d)
            targets = simplex_grid(d, 4)
            for n in range(2, 6):
                compiled = compile_known_target(div, n)
                for h in enumerate_histograms(d, n):
                    for q in targets:
                        assert compiled.evaluator(h, q) == fraction_squared_known_target(h, q, n, Mode.EXACT)

    def test_the_integer_numerator_equals_the_frequency_formula(self):
        for d, targets in SQUARED_TARGETS.items():
            for n in range(2, 6):
                exact = compile_known_target(builtin_l2(d), n)
                floating = compile_known_target(builtin_l2(d), n, Mode.FLOAT)
                for h in enumerate_histograms(d, n):
                    for qv in targets:
                        value = exact.evaluator(h, Distribution.exact(qv))
                        assert isinstance(value, Fraction)
                        assert value == exact.evaluator(h, qv) == fraction_squared_known_target(h, qv, n, Mode.EXACT)
                        fq = Distribution.floating(qv)
                        assert floating.evaluator(h, fq) == pytest.approx(float(value), abs=1e-14)
                        assert type(exact.evaluator(h, fq.probs)) is float  # a float target gives a float


class TestSquaredLossTwoSample:
    """The compiled l2 over two samples, and the per-coordinate quotients as its witness."""

    def test_hand_values(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2)
        assert loss.evaluator(Histogram((2, 0)), Histogram((0, 2))) == 2
        assert loss.evaluator(Histogram((1, 1)), Histogram((1, 1))) == -1

    def test_agrees_with_the_compiler_everywhere(self):
        for d in (2, 3):
            div = builtin_l2(d)
            for n in (2, 3):
                for m in (2, 3):
                    compiled = compile_two_sample(div, n, m)
                    for h in enumerate_histograms(d, n):
                        for g in enumerate_histograms(d, m):
                            assert compiled.evaluator(h, g) == fraction_squared_two_sample(h, g, n, m, Mode.EXACT)

    def test_the_integer_numerator_equals_the_per_coordinate_fractions(self):
        for d in (1, 2, 3):
            for n in range(2, 6):
                for m in range(2, 6):
                    exact = compile_two_sample(builtin_l2(d), n, m)
                    floating = compile_two_sample(builtin_l2(d), n, m, Mode.FLOAT)
                    for h in enumerate_histograms(d, n):
                        for g in enumerate_histograms(d, m):
                            value = exact.evaluator(h, g)
                            assert isinstance(value, Fraction)
                            assert value == fraction_squared_two_sample(h, g, n, m, Mode.EXACT)
                            assert floating.evaluator(h, g) == pytest.approx(float(value), abs=1e-14)

    def test_sparse_evaluation_cost_is_domain_free(self):
        # a domain of 10^5 outcomes with 4 observed ones evaluates instantly
        # and matches the same counts embedded in a 2-outcome domain
        d = 10**5
        hp = [0] * d
        hq = [0] * d
        hp[17] = 2
        hq[90000] = 2
        big = (Histogram(tuple(hp)), Histogram(tuple(hq)))
        small = (Histogram((2, 0)), Histogram((0, 2)))
        loss = compile_two_sample(builtin_l2(d), 2, 2)
        t0 = time.perf_counter()
        value = loss.evaluator(*big)
        elapsed = time.perf_counter() - t0
        assert value == compile_two_sample(builtin_l2(2), 2, 2).evaluator(*small) == 2
        assert elapsed < 0.01

    def test_support_union_is_at_most_n_plus_m(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hp = Histogram(tuple(rng.multinomial(3, [0.2] * 5)))
            hq = Histogram(tuple(rng.multinomial(4, [0.2] * 5)))
            assert len(set(hp.support) | set(hq.support)) <= 3 + 4

    def test_batch_matches_scalar(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
        rng = np.random.default_rng(2)
        hp = rng.multinomial(2, [0.25, 0.75], size=100)
        hq = rng.multinomial(2, [0.5, 0.5], size=100)
        batch = loss.batch_evaluator(CountRows.from_counts(hp), CountRows.from_counts(hq))
        scalar = [loss.evaluator(Histogram(tuple(a)), Histogram(tuple(b))) for a, b in zip(hp, hq)]
        assert batch == pytest.approx(scalar, abs=1e-12)

    def test_float_mode_tracks_exact_mode(self):
        exact = compile_two_sample(builtin_l2(2), 3, 2)
        floating = compile_two_sample(builtin_l2(2), 3, 2, Mode.FLOAT)
        for h in enumerate_histograms(2, 3):
            for g in enumerate_histograms(2, 2):
                assert floating.evaluator(h, g) == pytest.approx(float(exact.evaluator(h, g)), abs=1e-14)


class TestCrossEntropyLosses:
    def test_hand_value(self):
        loss = cross_entropy_poisson(4.0, 2.0)
        assert loss.evaluator(Histogram((3, 1)), Histogram((1, 1))) == pytest.approx(0.609375, abs=1e-15)

    def test_zero_target_histogram_gives_zero(self):
        loss = cross_entropy_poisson(4.0, 2.0)
        assert loss.evaluator(Histogram((5, 2)), Histogram((0, 0))) == 0

    def test_finite_even_where_the_divergence_is_infinite(self):
        # model sample never hits outcome 0, target sample only hits it
        loss = cross_entropy_poisson(4.0, 2.0)
        value = loss.evaluator(Histogram((0, 4)), Histogram((3, 0)))
        assert math.isfinite(float(value))

    def test_schemes_recorded(self):
        loss = cross_entropy_poisson(4.0, 2.0)
        assert loss.scheme_p == Poisson(4.0)
        assert loss.scheme_q == Poisson(2.0)

    def test_fixed_target_variant_matches_hand_value(self):
        loss = cross_entropy_poisson_fixed_target(4.0, 2)
        assert loss.evaluator(Histogram((3, 1)), Histogram((1, 1))) == pytest.approx(0.609375, abs=1e-15)
        assert loss.scheme_q == FixedSize(2)

    def test_fixed_target_enforces_total(self):
        loss = cross_entropy_poisson_fixed_target(4.0, 2)
        with pytest.raises(TotalMismatchError):
            loss.evaluator(Histogram((3, 1)), Histogram((2, 1)))

    def test_fixed_target_point_mass_empty_inner_sum(self):
        # target mass all on one outcome the model also concentrates on
        loss = cross_entropy_poisson_fixed_target(4.0, 2)
        assert loss.evaluator(Histogram((4, 0)), Histogram((2, 0))) == 0

    def test_each_series_loss_exposes_its_per_coordinate_form(self):
        # (rate, scale, side whose complement count feeds the series, sign) of each term; KL is the cross-entropy's
        # term less the entropy's
        cases = [
            (cross_entropy_poisson(4.0, 2.0), [(4.0, 2.0, "model", 1.0)]),
            (cross_entropy_poisson_fixed_target(4.0, 3), [(4.0, 3.0, "model", 1.0)]),
            (entropy_poisson(5.0), [(5.0, 5.0, "target", 1.0)]),
            (kl_poisson(4.0, 5.0), [(4.0, 5.0, "model", 1.0), (5.0, 5.0, "target", -1.0)]),
        ]
        for loss, terms in cases:
            assert [(t.rate, t.scale, t.side, t.sign) for t in loss.coordinate_form] == terms
            for t in loss.coordinate_form:
                assert [t.series(k) for k in range(6)] == [compiler._log_series(t.rate)(k) for k in range(6)]
        assert compile_two_sample(builtin_l2(2), 2, 2).coordinate_form is None

    def test_a_terms_coordinates_are_its_weights_and_complement_rates(self):
        p = Distribution.exact([Fraction(1, 4), Fraction(3, 4), 0])
        q = Distribution.exact([Fraction(1, 2), 0, Fraction(1, 2)])
        model, target = kl_poisson(4.0, 6.0).coordinate_form
        # only the coordinates q weighs; 1 - p_x is formed exactly before it is rounded
        assert model.coordinates(p, q) == [(0.5, 3.0), (0.5, 4.0)]
        assert target.coordinates(None, q) == [(0.5, 3.0), (0.5, 3.0)]

    @pytest.mark.filterwarnings("error")
    def test_a_term_past_float_range_is_inf_without_a_warning(self):
        from properloss.compiler import _series_terms

        assert _series_terms(np.array([2]), 1.0, np.array([1e308])).tolist() == [math.inf]
        assert _series_terms(np.array([0, 2]), 1.0, np.array([math.inf, 1e308])).tolist() == [0.0, math.inf]

    def test_dense_rows_are_scored_over_coordinate_major_columns(self, monkeypatch):
        # count rows drawn as a source draws them are built coordinate-major, and every (R, d) matrix the
        # series losses add across stays so; the values are those of the row-major count matrices
        import properloss.compiler as compiler

        rng = np.random.default_rng(3)
        sizes_p, sizes_q = rng.poisson(8.0, 50), rng.poisson(8.0, 50)
        draws_p, draws_q = rng.integers(0, 4, sizes_p.sum()), rng.integers(0, 4, sizes_q.sum())
        summed = []

        def row_sums(a):
            summed.append(a.flags.f_contiguous)
            return _row_sums(a)

        for loss in (cross_entropy_poisson(8.0, 8.0), entropy_poisson(8.0), kl_poisson(8.0, 8.0)):
            hp, hq = CountRows.from_draws(draws_p, sizes_p, 4), CountRows.from_draws(draws_q, sizes_q, 4)
            expected = loss.batch_evaluator(CountRows.from_counts(np.ascontiguousarray(hp.dense())),
                                            CountRows.from_counts(np.ascontiguousarray(hq.dense())))
            hp, hq = CountRows.from_draws(draws_p, sizes_p, 4), CountRows.from_draws(draws_q, sizes_q, 4)
            summed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(compiler, "_row_sums", row_sums)
                got = loss.batch_evaluator(hp, hq)
            assert hq.dense().flags.f_contiguous and summed and all(summed)
            assert got.tobytes() == expected.tobytes()


def order_sensitive_rows(rows: int, cols: int) -> np.ndarray:
    """Rows like ``[1e16, 1.0, -1e16, 1.0, ...]``, whose total depends on the order of the adds."""
    pattern = np.array([1e16, 1.0, -1e16, 1.0, 0.5, -3.0, 1e-3])  # 7 columns: out of step with pairwise blocks of 8
    return np.array([np.roll(np.resize(pattern, cols), r) for r in range(rows)]).reshape(rows, cols)


SPECIAL = np.array([-0.0, -0.0, 0.0, np.inf, 1.0, -np.inf, np.nan, -0.0, 2.5, np.inf])


class TestRowSums:
    """``_row_sums`` makes the adds of ``np.cumsum(a, axis=1)[:, -1]``, so it gives the same bits."""

    @pytest.mark.parametrize(
        "a",
        [
            order_sensitive_rows(40, 16),  # tall: the column loop
            order_sensitive_rows(3, 20),  # wide: cumsum
            order_sensitive_rows(17, 17),  # square: the column loop
            order_sensitive_rows(1, 64),
            order_sensitive_rows(24, 1),
            order_sensitive_rows(0, 5),
            order_sensitive_rows(0, 1),
            np.array([[-0.0, -0.0], [-0.0, 0.0], [np.inf, -np.inf], [np.nan, 1.0], [1.0, np.inf]]),
            np.array([[-0.0], [np.nan], [-np.inf]]),
            np.array([np.roll(SPECIAL, r) for r in range(12)]),  # NaN, inf and -0.0 at every column
            np.array([np.roll(SPECIAL, r) for r in range(12)]).T.copy(),
            np.arange(-60, 60, dtype=np.int64).reshape(40, 3),
            np.arange(60, dtype=np.int64).reshape(3, 20),
            np.array([[2**62, 2**62, -(2**62), -(2**62)]] * 5, dtype=np.int64),
            np.arange(12, dtype=np.int32).reshape(6, 2),  # cumsum widens narrow integers
            np.asfortranarray(order_sensitive_rows(30, 18)),
        ],
    )
    def test_equals_the_last_cumsum_column_bit_for_bit(self, a):
        with np.errstate(invalid="ignore"):  # inf - inf rows
            expected = np.cumsum(a, axis=1)[:, -1]
            got = _row_sums(a)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert repr(got.tolist()) == repr(expected.tolist())

    @pytest.mark.parametrize("shape", [(40, 16), (3, 20), (17, 17), (1, 64)])
    def test_order_matters_on_these_rows(self, shape):
        # so the fixtures above catch a pairwise sum such as ``a.sum(axis=1)``
        a = order_sensitive_rows(*shape)
        assert repr(a.sum(axis=1).tolist()) != repr(np.cumsum(a, axis=1)[:, -1].tolist())

    def test_leaves_its_input_unchanged(self):
        a = order_sensitive_rows(40, 16)
        before = a.copy()
        _row_sums(a)
        assert np.array_equal(a, before)


class TestEntropyAndKl:
    def test_point_mass_target_gives_zero(self):
        loss = entropy_poisson(6.0)
        assert loss.evaluator(None, Histogram((5, 0))) == 0

    def test_model_histogram_ignored(self):
        loss = entropy_poisson(6.0)
        hq = Histogram((2, 3))
        assert loss.evaluator(None, hq) == loss.evaluator(Histogram((9, 9)), hq)
        assert loss.scheme_p is None

    def test_kl_is_cross_entropy_minus_entropy_pointwise(self):
        alpha, beta = 5.0, 3.0
        kl = kl_poisson(alpha, beta)
        ce = cross_entropy_poisson(alpha, beta)
        ent = entropy_poisson(beta)
        for hp, hq in ((Histogram((3, 1)), Histogram((1, 2))), (Histogram((0, 2)), Histogram((4, 4)))):
            assert kl.evaluator(hp, hq) == pytest.approx(
                ce.evaluator(hp, hq) - ent.evaluator(None, hq), abs=1e-14
            )


class TestBregman:
    def test_recovers_the_squared_loss_pointwise(self):
        for n in (2, 3):
            bloss = bregman_known_target(squared_norm_polynomial(2), squared_norm_gradient(2), n)
            squared = compile_known_target(builtin_l2(2), n)
            for h in enumerate_histograms(2, n):
                for q in simplex_grid(2, 4):
                    assert bloss.evaluator(h, q) == squared.evaluator(h, q)

    def test_identity_expectation_is_zero(self):
        bloss = bregman_known_target(squared_norm_polynomial(2), squared_norm_gradient(2), 2)
        assert exact_expected_known_target(bloss, HALF, HALF) == 0

    def test_degree_gate(self):
        with pytest.raises(DegreeGateError):
            bregman_known_target(squared_norm_polynomial(2), squared_norm_gradient(2), 1)

    def test_concave_potential_rejected(self):
        d = 2
        concave = PolyDivergence(
            tuple(Monomial(-1, ExponentVector.unit(d, x, 2), ExponentVector.zero(d)) for x in range(d))
        )
        grad = tuple(
            PolyDivergence((Monomial(-2, ExponentVector.unit(d, x), ExponentVector.zero(d)),))
            for x in range(d)
        )
        with pytest.raises(ValueError, match="not convex on the simplex"):
            bregman_known_target(concave, grad, 2)

    def test_wrong_gradient_rejected(self):
        wrong = tuple(p_only(2, {((x, 1),): 3}) for x in range(2))  # 3 p_x, not 2 p_x
        with pytest.raises(ValueError, match="differ by other than"):
            bregman_known_target(squared_norm_polynomial(2), wrong, 2)

    def test_a_gradient_shifted_by_one_polynomial_everywhere_gives_the_same_loss(self):
        # g_x = 2 p_x + (p_0 p_1 - 1/2) for every x: the shift cancels along every direction in the simplex
        d, n = 2, 3
        shifted = tuple(p_only(d, {((x, 1),): 2, ((0, 1), (1, 1)): 1, (): Fraction(-1, 2)}) for x in range(d))
        loss = bregman_known_target(squared_norm_polynomial(d), shifted, n)
        exact = bregman_known_target(squared_norm_polynomial(d), squared_norm_gradient(d), n)
        for h in enumerate_histograms(d, n):
            for q in simplex_grid(d, 4):
                assert loss.evaluator(h, q) == exact.evaluator(h, q)

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_product_is_indefinite_on_the_simplex(self, d):
        # at d = 3 the tangent Hessian of p_0 p_1 is [[0, 1], [1, 0]]: a zero pivot with the rest of its row nonzero
        potential = p_only(d, {((0, 1), (1, 1)): 1})
        with pytest.raises(ValueError, match="not convex on the simplex"):
            bregman_known_target(potential, potential.gradient(), 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_convex_on_the_simplex_but_not_everywhere_is_accepted(self, d):
        # sum_x p_x^2 - (sum_x p_x)^2 = -2 sum_(x<y) p_x p_y: indefinite on R^d, convex along the simplex
        potential = p_only(d, {((x, 1), (y, 1)): -2 for x in range(d) for y in range(x + 1, d)})
        loss = bregman_known_target(potential, potential.gradient(), 2)
        grid = simplex_grid(d, 4)
        for p in grid[::3]:
            for q in grid[::2]:
                truth = bregman_divergence(potential).evaluate(p, q)
                assert truth >= 0
                assert exact_expected_known_target(loss, p, q) == truth

    def test_other_degrees_are_refused_with_the_composition_route(self):
        quartic = p_only(2, {((0, 4),): 1, ((1, 4),): 1})
        with pytest.raises(ValueError, match=r"compile_known_target\(bregman_divergence\(G\), n\)"):
            bregman_known_target(quartic, quartic.gradient(), 4)
        compile_known_target(bregman_divergence(quartic), 4)  # the uncertified route compiles

    def test_an_affine_potential_is_refused(self):
        affine = p_only(2, {((0, 1),): 3, (): 1})
        with pytest.raises(ValueError, match="affine"):
            bregman_known_target(affine, affine.gradient(), 2)

    def test_a_vanishing_partial_is_none(self):
        potential = p_only(3, {((0, 2),): 1, ((0, 1), (2, 1)): Fraction(1, 2), ((2, 2),): 1})  # no p_1
        gradient = potential.gradient()
        assert gradient[1] is None
        assert gradient[0] == p_only(3, {((0, 1),): 2, ((2, 1),): Fraction(1, 2)})
        assert gradient[2] == p_only(3, {((0, 1),): Fraction(1, 2), ((2, 1),): 2})
        loss = bregman_known_target(potential, gradient, 2)  # None is accepted as a zero partial
        assert exact_expected_known_target(loss, Distribution.uniform(3), Distribution.uniform(3)) == 0

    def test_the_squared_norm_divergence_is_the_l2_template(self):
        assert bregman_divergence(squared_norm_polynomial(5)) == builtin_l2(5)
        assert squared_norm_gradient(3) == tuple(p_only(3, {((x, 1),): 2}) for x in range(3))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_a_templates_certificate_agrees_with_the_written_out_one(self, d):
        # a template's tangent Hessian is 2c (I + J): positive semidefinite exactly when c >= 0
        for c in (-2, -1, Fraction(-1, 3), Fraction(1, 3), 1, 2):
            for linear in ((), ((Fraction(3, 2), 1, 0),), ((-1, 1, 0),)):
                template = PolyDivergence(Separable(d, ((c, 2, 0), *linear)))
                written = PolyDivergence(tuple(template.monomials))
                assert written.template is None
                partials = [compiler._coefficients(g) for g in template.gradient()]
                h = [[Fraction(partials[x].get(((y, 1),), 0)) for y in range(d)] for x in range(d)]
                tangent = [[h[k][l] - h[k][-1] - h[-1][l] + h[-1][-1] for l in range(d - 1)] for k in range(d - 1)]
                assert tangent == [[2 * c * (1 + (k == l)) for l in range(d - 1)] for k in range(d - 1)]
                rule = compiler._convex_on_simplex(template, partials)
                assert rule == compiler._positive_semidefinite(tangent) == (c >= 0)
                assert compiler._convex_on_simplex(written, partials) == rule
                if rule:
                    loss = bregman_known_target(template, template.gradient(), 2)
                    reference = compile_known_target(bregman_divergence(written), 2)
                    h, q = Histogram((2,) + (0,) * (d - 1)), Distribution.uniform(d)
                    assert loss.evaluator(h, q) == reference.evaluator(h, q)
                else:
                    with pytest.raises(ValueError, match="not convex on the simplex"):
                        bregman_known_target(template, template.gradient(), 2)

    def test_a_large_template_is_certified_without_the_dense_elimination(self, monkeypatch):
        def dense(a):
            raise AssertionError("a template was certified by LDL^T")

        monkeypatch.setattr(compiler, "_positive_semidefinite", dense)
        d = 500
        loss = bregman_known_target(squared_norm_polynomial(d), squared_norm_gradient(d), 2)
        h, q = Histogram((1, 1) + (0,) * (d - 2)), Distribution.uniform(d)
        assert loss.evaluator(h, q) == compile_known_target(builtin_l2(d), 2).evaluator(h, q)

    def test_the_divergence_merges_like_terms(self):
        # G = p_0^2 + p_0 p_1: D = p_0^2 + p_0 p_1 - (2 q_0 + q_1) p_0 - q_0 p_1 + q_0^2 + q_0 q_1
        divergence = bregman_divergence(p_only(2, {((0, 2),): 1, ((0, 1), (1, 1)): 1}))
        terms = {(m.p_exps.pairs, m.q_exps.pairs): m.coeff for m in divergence.monomials}
        assert terms == {
            (((0, 2),), ()): 1, (((0, 1), (1, 1)), ()): 1, ((), ((0, 2),)): 1, ((), ((0, 1), (1, 1))): 1,
            (((0, 1),), ((0, 1),)): -2, (((0, 1),), ((1, 1),)): -1, (((1, 1),), ((0, 1),)): -1,
        }


def p_only(d: int, coefficients: dict) -> PolyDivergence:
    """The p-only polynomial ``{model exponent pairs: coefficient}`` over dimension ``d``."""
    return PolyDivergence(tuple(Monomial(c, ExponentVector.sparse(d, pairs), ExponentVector.zero(d))
                                for pairs, c in coefficients.items()))


def random_divergence(rng, d=2, max_deg=3, terms=4) -> PolyDivergence:
    """Random sparse polynomial with small rational coefficients."""
    monomials = {}
    while len(monomials) < terms:
        p_exps = ExponentVector(tuple(int(e) for e in rng.integers(0, max_deg + 1, d)))
        q_exps = ExponentVector(tuple(int(e) for e in rng.integers(0, max_deg + 1, d)))
        if p_exps.degree > max_deg or q_exps.degree > max_deg:
            continue
        coeff = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        if coeff != 0:
            monomials[(p_exps, q_exps)] = Monomial(coeff, p_exps, q_exps)
    return PolyDivergence(tuple(monomials.values()))


class TestCompilerOnArbitraryPolynomials:
    def test_random_divergences_are_exactly_implemented_at_their_degrees(self):
        # the compiler contract is not specific to the builtins: any sparse
        # polynomial compiles at its degree pair and matches exactly
        import numpy as np

        from properloss import check_implements

        rng = np.random.default_rng(1234)
        points = [
            (Distribution.exact([Fraction(1, 3), Fraction(2, 3)]), Distribution.exact([Fraction(1, 4), Fraction(3, 4)])),
            (Distribution.exact([1, 0]), HALF),
            (HALF, Distribution.exact([0, 1])),
            (HALF, HALF),
        ]
        for _ in range(25):
            div = random_divergence(rng)
            n, m = max(1, div.deg_p), max(1, div.deg_q)  # schemes need >= 1 draw
            loss = compile_two_sample(div, n, m)
            reports = check_implements(loss, div, points)
            assert all(r.passed and r.gap == 0 for r in reports)
            known = compile_known_target(div, n)
            for p, q in points:
                assert exact_expected_known_target(known, p, q) == div.evaluate(p, q)


class TestImplementationEquality:
    # expectation equals the divergence, as exact rationals, across a sample
    # of compiled losses and grid points
    @pytest.mark.parametrize(
        "div_builder,n,m",
        [
            (lambda: builtin_l2(2), 2, 2),
            (lambda: builtin_l2(2), 3, 4),
            (lambda: builtin_brier(2), 2, 1),
            (lambda: builtin_brier(2), 3, 2),
            (lambda: builtin_lk_even(2, 4), 4, 4),
            (lambda: builtin_l2(3), 2, 2),
        ],
    )
    def test_compiled_expectation_equals_divergence(self, div_builder, n, m):
        from properloss import check_implements

        div = div_builder()
        loss = compile_two_sample(div, n, m)
        points = [(p, q) for p in simplex_grid(div.dim, 2) for q in simplex_grid(div.dim, 2)]
        reports = check_implements(loss, div, points)
        assert all(r.passed for r in reports)
        assert all(r.gap == 0 for r in reports)
