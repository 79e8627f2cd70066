import dataclasses
import functools
import math
import time
from fractions import Fraction

import pytest

from properloss import (
    DimensionMismatchError,
    Distribution,
    EnumerationTooLargeError,
    Histogram,
    SeriesDivergence,
    SeriesKind,
    TotalMismatchError,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    check_implements,
    compile_known_target,
    compile_two_sample,
    cross_entropy_poisson,
    cross_entropy_poisson_fixed_target,
    degree_gate_bypass_exists,
    entropy_poisson,
    enumerate_histograms,
    exact_expected_known_target,
    exact_expected_two_sample,
    kl_poisson,
    multinomial_pmf,
    naive_plugin_bias_demo,
    naive_plugin_loss,
    poisson_expected_loss,
    simplex_grid,
    squared_norm_polynomial,
)
from properloss import verify
from properloss.compiler import CompiledLoss
from properloss.divergences import Monomial, PolyDivergence
from properloss.domain import KNOWN_TARGET, FixedSize, Mode
from properloss.estimators import ExponentVector

HALF = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])


class TestEnumerateHistograms:
    def test_two_of_two(self):
        out = enumerate_histograms(2, 2)
        assert [h.counts for h in out] == [(2, 0), (1, 1), (0, 2)]

    def test_three_of_one(self):
        out = enumerate_histograms(3, 1)
        assert [h.counts for h in out] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_count_for_three_of_four(self):
        assert len(enumerate_histograms(3, 4)) == 15  # C(6, 2)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(verify, "ENUMERATION_CAP", 10)
        with pytest.raises(EnumerationTooLargeError):
            enumerate_histograms(3, 4)


class TestMultinomialPmf:
    def test_hand_values(self):
        assert multinomial_pmf(Histogram((1, 1)), 2, HALF) == Fraction(1, 2)
        assert multinomial_pmf(Histogram((2, 0)), 2, HALF) == Fraction(1, 4)

    def test_normalization(self):
        p = Distribution.exact([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        assert sum(multinomial_pmf(h, 3, p) for h in enumerate_histograms(3, 3)) == 1

    def test_total_mismatch(self):
        with pytest.raises(TotalMismatchError):
            multinomial_pmf(Histogram((1, 1)), 3, HALF)


class TestExactExpectedKnownTarget:
    def test_squared_loss_at_identity(self):
        assert exact_expected_known_target(compile_known_target(builtin_l2(2), 2), HALF, HALF) == 0

    def test_squared_loss_at_opposite_corners(self):
        p = Distribution.exact([1, 0])
        q = Distribution.exact([0, 1])
        assert exact_expected_known_target(compile_known_target(builtin_l2(2), 2), p, q) == 2

    def test_plugin_loss_shows_the_variance_term(self):
        # the uncorrected plug-in loss overshoots by the summed frequency
        # variance: 2 * (1/2)(1/2)/2 = 1/4 at the uniform identity point
        assert exact_expected_known_target(naive_plugin_loss(2), HALF, HALF) == Fraction(1, 4)

    def test_float_model_rejected(self):
        with pytest.raises(ValueError):
            exact_expected_known_target(compile_known_target(builtin_l2(2), 2), Distribution.floating([0.5, 0.5]), HALF)


class TestExactExpectedTwoSample:
    def test_squared_loss_at_identity(self):
        assert exact_expected_two_sample(compile_two_sample(builtin_l2(2), 2, 2), HALF, HALF) == 0

    def test_squared_loss_at_opposite_corners(self):
        p = Distribution.exact([1, 0])
        q = Distribution.exact([0, 1])
        assert exact_expected_two_sample(compile_two_sample(builtin_l2(2), 2, 2), p, q) == 2

    def test_compiled_brier_matches_direct_formula(self):
        p = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
        loss = compile_two_sample(builtin_brier(2), 2, 1)
        expected = sum(x**2 for x in p.probs) - 2 * sum(a * b for a, b in zip(p.probs, HALF.probs))
        assert expected == Fraction(-3, 8)
        assert exact_expected_two_sample(loss, p, HALF) == expected


class TestPoissonExpectedLoss:
    def test_cross_entropy_identity_point(self):
        est = poisson_expected_loss(cross_entropy_poisson(6.0, 6.0), HALF, HALF, tail_eps=1e-10)
        assert abs(est.value - math.log(2)) <= 1e-4
        assert est.omitted_mass <= 1e-10
        assert est.truncation_model is not None

    def test_mixed_schemes_single_target_draw(self):
        # Poisson model side, exactly one target draw: still the cross-entropy
        from properloss import cross_entropy_poisson_fixed_target

        loss = cross_entropy_poisson_fixed_target(6.0, 1)
        est = poisson_expected_loss(loss, HALF, HALF, tail_eps=1e-10)
        assert abs(est.value - math.log(2)) <= 1e-4
        assert est.truncation_target is None  # that side was enumerated exactly

    def test_entropy_point_mass_is_zero(self):
        one = Distribution.exact([1, 0])
        est = poisson_expected_loss(entropy_poisson(4.0), None, one, tail_eps=1e-10)
        assert abs(est.value) <= est.tail_bound + 1e-12

    def test_tail_bound_reported(self):
        est = poisson_expected_loss(cross_entropy_poisson(4.0, 4.0), HALF, HALF, tail_eps=1e-8)
        assert est.tail_bound >= 0
        assert est.omitted_mass >= 0

    def test_missing_model_distribution_rejected(self):
        with pytest.raises(ValueError):
            poisson_expected_loss(cross_entropy_poisson(4.0, 4.0), None, HALF)

    def test_mismatched_dimensions_rejected(self):
        third = Distribution.exact([Fraction(1, 3)] * 3)
        with pytest.raises(DimensionMismatchError):
            poisson_expected_loss(cross_entropy_poisson(4.0, 4.0), third, HALF)

    def test_a_known_target_loss_is_sent_to_the_exact_oracle(self):
        with pytest.raises(ValueError, match="known-target loss has no per-coordinate Poisson form: score it exactly with expected_losses"):
            poisson_expected_loss(compile_known_target(builtin_l2(2), 2), HALF, HALF)

    def test_a_fixed_size_loss_is_sent_to_the_exact_oracle(self):
        with pytest.raises(ValueError, match="fixed-size or known-target loss has no per-coordinate Poisson form"):
            poisson_expected_loss(compile_two_sample(builtin_l2(2), 2, 2), HALF, HALF)

    def test_entropy_on_a_sparse_support_of_a_large_domain(self):
        # only the two-outcome support is enumerated; over all 30 coordinates
        # the histograms below the truncation point would exceed the cap
        sparse = Distribution.exact([Fraction(1, 2), Fraction(1, 2)] + [0] * 28)
        est = poisson_expected_loss(entropy_poisson(4.0), None, sparse)
        assert abs(est.value - math.log(2)) <= 1e-9
        dense = poisson_expected_loss(entropy_poisson(4.0), None, HALF)
        assert (est.value, est.truncation_target, est.items_target) == (
            dense.value, dense.truncation_target, dense.items_target)

    def test_a_coordinate_the_model_never_draws_makes_the_value_infinite(self):
        # q weighs outcome 2, which p never draws: its complement count is Poisson(8), the series rate itself
        p, q = Distribution.exact([1, 0, 0]), Distribution.exact([0, 0, 1])
        est = poisson_expected_loss(cross_entropy_poisson(8.0, 8.0), p, q)
        assert (est.value, est.tail_bound) == (math.inf, math.inf)
        # where p puts all its mass on q's outcome, every complement count is 0 and S(0) = 0: exactly 0
        est = poisson_expected_loss(cross_entropy_poisson(8.0, 8.0), q, q)
        assert (est.value, est.tail_bound, est.items_model, est.truncation_model) == (0.0, 0.0, 1, 0)

    def test_a_series_past_float_range_leaves_the_sum_unsettled(self):
        # at rate 0.5, S(t) overflows near t = 170, long before a sum at theta / rate = 0.99 settles
        p = Distribution.exact([Fraction(1, 100), Fraction(99, 100)])
        loss = cross_entropy_poisson(0.5, 0.5)
        est = poisson_expected_loss(loss, p, HALF)
        assert math.isfinite(est.value) and est.tail_bound == math.inf
        [report] = check_implements(loss, SeriesDivergence(SeriesKind.CROSS_ENTROPY), [(p, HALF)])
        assert not report.passed and report.tail_bound == math.inf

    def test_the_three_outcome_case_ends_on_its_bound(self):
        third = Distribution.exact([Fraction(1, 3)] * 3)
        loss = cross_entropy_poisson(6.0, 6.0)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            est = poisson_expected_loss(loss, third, third)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01  # the joint enumeration scored 83.5M pairs here and stopped on its item budget
        assert est.items_model < 100 and abs(est.value - math.log(3)) <= est.tail_bound <= 1e-6

    def test_term_counts(self):
        # one sum per distinct theta: both coordinates of the uniform model share theta = 4 * (1 - 1/2)
        est = poisson_expected_loss(cross_entropy_poisson(4.0, 5.0), HALF, HALF, tail_eps=1e-6)
        assert (est.items_model, est.items_target, est.truncation_target) == (est.truncation_model + 1, 0, None)
        assert est.pairs == est.items_model
        skew = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
        two = poisson_expected_loss(cross_entropy_poisson(4.0, 5.0), skew, HALF, tail_eps=1e-6)
        assert est.truncation_model + 1 < two.items_model <= 2 * (two.truncation_model + 1)

        ent = poisson_expected_loss(entropy_poisson(4.0), None, HALF, tail_eps=1e-6)
        assert ent.items_model is None and ent.truncation_model is None
        assert ent.items_target == ent.truncation_target + 1 == ent.pairs

        kl = poisson_expected_loss(kl_poisson(4.0, 4.0), HALF, HALF, tail_eps=1e-6)
        assert (kl.items_model, kl.items_target) == (kl.truncation_model + 1, kl.truncation_target + 1)
        assert kl.pairs == kl.items_model + kl.items_target

        fixed = poisson_expected_loss(cross_entropy_poisson_fixed_target(4.0, 3), HALF, HALF, tail_eps=1e-6)
        assert (fixed.items_model, fixed.items_target, fixed.truncation_target) == (fixed.truncation_model + 1, 0, None)


class TestCheckImplementsInputs:
    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            check_implements(compile_two_sample(builtin_l2(2), 2, 2), builtin_l2(2), [])


class TestCheckImplements:
    def test_squared_two_sample_passes_on_the_grid(self):
        points = [(p, q) for p in simplex_grid(2, 4) for q in simplex_grid(2, 4)]
        reports = check_implements(compile_two_sample(builtin_l2(2), 2, 2), builtin_l2(2), points)
        assert all(r.passed and r.gap == 0 and r.mode == "exact" for r in reports)

    def test_plugin_loss_fails_at_every_interior_model(self):
        q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
        points = [(p, q) for p in simplex_grid(2, 8) if 0 < p.probs[0] < 1]
        reports = check_implements(naive_plugin_loss(10), builtin_l2(2), points)
        assert all(not r.passed for r in reports)
        for r, (p, _) in zip(reports, points):
            assert r.gap == 2 * p.probs[0] * (1 - p.probs[0]) / 10

    def test_fourth_power_compiled_at_its_degree(self):
        div = builtin_lk_even(2, 4)
        p = Distribution.exact([Fraction(1, 3), Fraction(2, 3)])
        reports = check_implements(compile_two_sample(div, 4, 4), div, [(p, HALF)])
        assert reports[0].passed and reports[0].gap == 0

    def test_builtins_at_their_degrees_on_both_small_domains(self):
        for d in (2, 3):
            for div in (builtin_l2(d), builtin_lk_even(d, 4), builtin_brier(d)):
                loss = compile_two_sample(div, div.deg_p, div.deg_q)
                points = [(p, q) for p in simplex_grid(d, 4) for q in simplex_grid(d, 4)]
                reports = check_implements(loss, div, points)
                assert all(r.passed and r.gap == 0 for r in reports)

    def test_a_float_divergence_value_that_equals_the_expectation_passes(self):
        # float coefficients give float divergence values, exact at these dyadic points
        float_l2 = PolyDivergence(tuple(Monomial(float(m.coeff), m.p_exps, m.q_exps) for m in builtin_l2(2).monomials))
        points = [(p, q) for p in simplex_grid(2, 4) for q in simplex_grid(2, 4)]
        reports = check_implements(compile_two_sample(builtin_l2(2), 2, 2), float_l2, points)
        assert all(r.passed and type(r.target) is float and r.gap == 0 for r in reports)

    def test_a_shifted_entropy_loss_fails_in_truncated_mode(self):
        # every value shifted by +0.05: sum_x (h_q[x] / beta) * (S(c_x) + 0.05), whose expectation is H(q) + 0.05
        loss = entropy_poisson(6.0)
        [term] = loss.coordinate_form

        def shifted(h_p, h_q):
            return loss.evaluator(h_p, h_q) + 0.05 * h_q.total / term.scale

        shifted_form = (dataclasses.replace(term, series=lambda t: term.series(t) + 0.05),)
        mutant = dataclasses.replace(loss, evaluator=shifted, coordinate_form=shifted_form)
        entropy = SeriesDivergence(SeriesKind.SHANNON_ENTROPY)
        skew = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
        points = [(q, q) for q in (HALF, skew)]
        assert all(r.passed and r.mode == "truncated" for r in check_implements(loss, entropy, points))
        reports = check_implements(mutant, entropy, points)
        assert all(not r.passed and abs(r.gap - 0.05) <= r.tail_bound for r in reports)

    def test_infinite_target_reports_failure(self):
        ce_div = SeriesDivergence(SeriesKind.CROSS_ENTROPY)
        p = Distribution.exact([0, 1])
        reports = check_implements(cross_entropy_poisson(4.0, 4.0), ce_div, [(p, HALF)])
        assert not reports[0].passed
        assert math.isinf(reports[0].gap)


class TestFixedSizeOracleKernel:
    P = Distribution.exact([Fraction(1, 3), Fraction(2, 3)])

    @pytest.mark.parametrize("float_first", [True, False])
    def test_a_float_known_target_never_shares_an_equal_exact_targets_values(self, float_first):
        exact, floating = HALF, Distribution.floating([0.5, 0.5])
        points = [(self.P, floating), (self.P, exact)] if float_first else [(self.P, exact), (self.P, floating)]
        with pytest.raises(ValueError, match="exact-mode target"):
            check_implements(compile_known_target(builtin_l2(2), 2), builtin_l2(2), points)
        [report] = check_implements(compile_known_target(builtin_l2(2), 2), builtin_l2(2), [(self.P, exact)])
        assert isinstance(report.estimate, Fraction) and report.estimate == Fraction(1, 18) and report.passed

    def test_a_known_target_given_as_a_list_is_scored_as_its_values(self):
        loss = compile_known_target(builtin_l2(2), 2)
        assert verify.expected_losses(loss, [(self.P, [Fraction(1, 2), Fraction(1, 2)])]) == [Fraction(1, 18)]

    def test_a_float_loss_value_is_rejected_by_name(self):
        def known_target(h, q):
            return Fraction(1, 3) if h.counts[0] == 2 else 0.25

        def two_sample(h, g):
            return -Fraction(h.counts[0], 3) if g.counts[0] else 0.25

        with pytest.raises(ValueError, match="rational loss values, got 0.25"):
            exact_expected_known_target(known_target, self.P, HALF, 2)
        with pytest.raises(ValueError, match="rational loss values, got 0.25"):
            exact_expected_two_sample(two_sample, self.P, HALF, 2, 2)

    @pytest.mark.parametrize("two_sample", [True, False])
    @pytest.mark.parametrize("sizes", [(), (2, 2)])
    def test_a_loss_of_the_other_shape_is_rejected_by_name(self, two_sample, sizes):
        # a known-target loss asked for as two-sample, and a two-sample loss asked for as known-target
        loss = compile_known_target(builtin_l2(2), 2) if two_sample else compile_two_sample(builtin_l2(2), 2, 2)
        shape = "known-target" if two_sample else "two-sample"
        with pytest.raises(ValueError, match=f"^a {shape} loss is scored with two_sample={two_sample}$"):
            verify.expected_losses(loss, [(self.P, HALF)], *sizes, two_sample=two_sample)

    @pytest.mark.parametrize("compile_l2, sizes", [(compile_known_target, (2,)), (compile_two_sample, (2, 3))])
    def test_a_wrapped_shifted_evaluator_fails_with_the_exact_gap(self, compile_l2, sizes):
        loss, shift = compile_l2(builtin_l2(2), *sizes), Fraction(1, 3**20)

        @functools.wraps(loss.evaluator)  # copies the compiled evaluator's attributes, its exact route included
        def shifted(h, t):
            return loss.evaluator(h, t) + shift

        grid = simplex_grid(2, 4)
        points = [(p, q) for p in grid for q in grid]
        for report in check_implements(dataclasses.replace(loss, evaluator=shifted), builtin_l2(2), points):
            assert not report.passed and report.gap == shift and report.estimate - report.target == shift
        assert all(report.passed for report in check_implements(loss, builtin_l2(2), points))

    @pytest.mark.parametrize("compile_l2, sizes", [(compile_known_target, (2,)), (compile_two_sample, (2, 2))])
    def test_the_compiled_route_raises_what_the_evaluator_raises(self, compile_l2, sizes):
        loss = compile_l2(builtin_l2(2), *sizes)
        wrapped = dataclasses.replace(loss, evaluator=lambda h, t: loss.evaluator(h, t))
        third = Distribution.exact([Fraction(1, 3)] * 3)
        for points in ([(third, HALF)], [(self.P, third)], [(third, third)]):
            raised = []
            for candidate in (loss, wrapped):
                with pytest.raises(DimensionMismatchError) as exc:
                    verify.expected_losses(candidate, points)
                raised.append(str(exc.value))
            assert raised[0] == raised[1]

    def test_values_the_compiled_route_cannot_sum_in_integers_are_evaluated_and_refused(self):
        # a float known target, and float mode: the estimator has no integer denominator
        for loss, points in ((compile_known_target(builtin_l2(2), 2), [(self.P, (0.5, 0.5))]),
                             (compile_known_target(builtin_l2(2), 2, Mode.FLOAT), [(self.P, HALF)]),
                             (compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT), [(self.P, HALF)])):
            with pytest.raises(ValueError, match="rational loss values, got"):
                verify.expected_losses(loss, points)

    def test_pmf_numerators_are_over_the_lcm_of_every_denominator(self):
        # the largest denominator, 15, is not a multiple of the others
        dist = Distribution.exact([Fraction(1, 6), Fraction(1, 10), Fraction(11, 15)])
        hists, numerators, denominator = verify._pmf_numerators(dist, 2)
        assert len(hists) == 6 and denominator == 30**2 and sum(numerators) == denominator
        assert [Fraction(num, denominator) for num in numerators] == [multinomial_pmf(h, 2, dist) for h in hists]

    def test_a_sweep_evaluates_each_target_item_and_model_histogram_once(self):
        # models on overlapping supports share histograms such as (2, 0, 0)
        models = [
            Distribution.exact(v)
            for v in ([Fraction(1, 2), Fraction(1, 2), 0], [Fraction(1, 4), Fraction(3, 4), 0], [1, 0, 0],
                      [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)], [0, Fraction(1, 2), Fraction(1, 2)])
        ]
        targets = [Distribution.exact([Fraction(1, 3)] * 3), Distribution.exact([0, Fraction(1, 4), Fraction(3, 4)])]
        points = [(p, q) for q in targets for p in models]

        def support(dist, size):
            return [h for h in enumerate_histograms(dist.dim, size) if multinomial_pmf(h, size, dist) != 0]

        calls = []
        known = compile_known_target(builtin_l2(3), 2)

        def counted_known(h, q):
            calls.append((q, h.counts))
            return known.evaluator(h, q)

        counted = CompiledLoss(counted_known, FixedSize(2), KNOWN_TARGET, "counted")
        reports = check_implements(counted, builtin_l2(3), points)
        assert all(r.passed for r in reports)
        assert len(calls) == len(set(calls))
        assert set(calls) == {(q, h.counts) for p, q in points for h in support(p, 2)}

        calls.clear()
        two_sample = compile_two_sample(builtin_l2(3), 2, 3)

        def counted_two_sample(h, g):
            calls.append((g.counts, h.counts))
            return two_sample.evaluator(h, g)

        loss = dataclasses.replace(two_sample, evaluator=counted_two_sample)
        reports = check_implements(loss, builtin_l2(3), points)
        assert all(r.passed for r in reports)
        assert len(calls) == len(set(calls))
        assert set(calls) == {(g.counts, h.counts) for p, q in points for g in support(q, 3) for h in support(p, 2)}

    def test_a_target_is_scored_only_inside_its_models_supports(self):
        # no model covers the union {0, 1, 2}, so the union support's histogram (1, 0, 1) is never scored
        models = [Distribution.exact([Fraction(1, 2), Fraction(1, 2), 0]),
                  Distribution.exact([0, Fraction(1, 3), Fraction(2, 3)])]
        target = Distribution.exact([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        points = [(p, target) for p in models]
        l2 = builtin_l2(3)
        scored = {(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)}
        for loss, sizes, items in ((compile_known_target(l2, 2), (2,), [target]),
                                   (compile_two_sample(l2, 2, 2), (2, 2), enumerate_histograms(3, 2))):
            calls = []

            def counted(h, t, f=loss.evaluator):
                calls.append((t, h.counts))
                return f(h, t)

            assert verify.expected_losses(counted, points, *sizes) == [l2.evaluate(p, target) for p in models]
            assert len(calls) == len(set(calls))
            assert {counts for _, counts in calls} == scored and (1, 0, 1) not in scored
            assert {t for t, _ in calls} <= set(items)


class TestNaivePluginBiasDemo:
    def test_skewed_coin_at_ten_draws(self):
        q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
        demo = naive_plugin_bias_demo(q, 10)
        assert demo.closed_form == Fraction(1, 18)
        assert abs(float(demo.closed_form) - demo.grid_argmin) <= 1e-4

    def test_symmetric_coin_stays_put(self):
        demo = naive_plugin_bias_demo(HALF, 7)
        assert demo.closed_form == Fraction(1, 2)
        assert demo.grid_argmin == pytest.approx(0.5, abs=1e-4)

    def test_clipping_at_two_draws(self):
        q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
        demo = naive_plugin_bias_demo(q, 2)
        assert demo.closed_form == 0  # stationary point -0.3 clipped into the simplex

    def test_a_float_target_is_refused(self):
        with pytest.raises(ValueError, match="exact-mode target"):
            naive_plugin_bias_demo(Distribution.floating([0.1, 0.9]), 10)

    def test_biased_below_for_every_sample_size(self):
        q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
        for n in range(2, 21):
            assert naive_plugin_bias_demo(q, n).closed_form < Fraction(1, 10)

    def test_the_check_builds_one_grid(self, monkeypatch):
        demos = []

        def counted(q, n, real=verify.naive_plugin_bias_demo):
            demos.append(n)
            return real(q, n)

        monkeypatch.setattr(verify, "naive_plugin_bias_demo", counted)
        ok, gap, detail = verify.CHECKS["plugin-bias"][1](0)
        assert ok and demos == [10]
        assert detail == "optimum at n=10 is 1/18 (grid 0.0556), below 1/10 for n=2..20"

    def test_grid_minimum_agrees_with_enumeration(self):
        # the quadratic-in-p1 formula the demo minimizes must match the raw
        # enumeration expectation of the plug-in loss
        q = Distribution.exact([Fraction(1, 10), Fraction(9, 10)])
        n = 4
        for p1 in (Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1)):
            p = Distribution.exact([p1, 1 - p1])
            enumerated = exact_expected_known_target(naive_plugin_loss(n), p, q)
            formula = 2 * (p1 - Fraction(1, 10)) ** 2 + 2 * p1 * (1 - p1) / n
            assert enumerated == formula


class TestDegreeGateBypass:
    def test_no_single_draw_loss_matches_the_squared_distance(self):
        points = [Distribution.exact([1, 0]), HALF, Distribution.exact([0, 1])]
        assert not degree_gate_bypass_exists(builtin_l2(2), HALF, points)

    def test_affine_divergences_are_reachable(self):
        # sanity check of the solver itself: a degree-(1,1) divergence IS
        # matchable by a single-draw loss
        inner = PolyDivergence(
            tuple(Monomial(1, ExponentVector.unit(2, x), ExponentVector.unit(2, x)) for x in range(2))
        )
        points = [Distribution.exact([1, 0]), HALF, Distribution.exact([0, 1])]
        assert degree_gate_bypass_exists(inner, HALF, points)


class TestJensenGapIdentity:
    def test_mean_of_potential_overshoots_by_the_summed_variance(self):
        # E[G(phat)] - G(p) == sum_x p_x(1-p_x)/n, exactly, by enumeration
        from properloss import empirical

        potential = squared_norm_polynomial(2)
        for n in (2, 3, 4):
            for p in simplex_grid(2, 4):
                mean_g = sum(
                    multinomial_pmf(h, n, p) * potential.evaluate(empirical(h).probs, empirical(h).probs)
                    for h in enumerate_histograms(2, n)
                    if multinomial_pmf(h, n, p) != 0
                )
                truth = potential.evaluate(p.probs, p.probs)
                assert mean_g - truth == sum(px * (1 - px) for px in p.probs) / n
