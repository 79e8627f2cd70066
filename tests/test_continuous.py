import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from properloss import (
    DimensionMismatchError,
    RealSample,
    SampleTooSmallError,
    VectorSample,
    cramer_distance_oracle,
    cramer_loss,
    crps,
    ecdf,
    energy_loss,
    load_real_sample,
    load_vector_sample,
    projected_cramer_loss,
)
from properloss.estimators import variance_mvue


def quadrature_oracle(s: RealSample, u: RealSample) -> float:
    """Adaptive quadrature of the defining integrand, independent of the closed form."""

    def integrand(x):
        fs = float(ecdf(s, x))
        fu = float(ecdf(u, x))
        return (fs - fu) ** 2 - float(variance_mvue(fs, s.size)) - float(variance_mvue(fu, u.size))

    points = sorted(set(float(v) for v in s.values) | set(float(v) for v in u.values))
    lo, hi = points[0] - 1.0, points[-1] + 1.0
    value, _ = integrate.quad(integrand, lo, hi, points=points, limit=200)
    return value


def two_draw_outcomes(a, b, w):
    """All unordered two-draw samples from a distribution on {a, b} with P[a] = w."""
    return [
        (RealSample((a, a)), w * w),
        (RealSample((a, b)), 2 * w * (1 - w)),
        (RealSample((b, b)), (1 - w) * (1 - w)),
    ]


class TestSampleTypes:
    def test_real_sample_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RealSample((1.0, math.inf))
        with pytest.raises(ValueError):
            RealSample(())

    def test_vector_sample_uniform_dimension(self):
        with pytest.raises(DimensionMismatchError):
            VectorSample(((1.0, 2.0), (1.0,)))
        vs = VectorSample(((1.0, 2.0), (0.0, 0.0)))
        assert vs.size == 2 and vs.dim == 2


class TestEcdf:
    def test_between_points(self):
        assert ecdf(RealSample((0, 1)), 0.5) == 0.5

    def test_below_everything(self):
        assert ecdf(RealSample((0, 1)), -1) == 0

    def test_at_the_maximum_is_inclusive(self):
        assert ecdf(RealSample((0, 1)), 1) == 1

    def test_a_float_in_x_or_anywhere_in_the_sample_gives_a_float(self):
        for sample, x, expected in (
            ((Fraction(1, 2), 0.75), Fraction(1, 2), 0.5),  # the float is not the smallest value
            ((0.25, Fraction(1, 2)), Fraction(1, 2), 1.0),
            ((0, 1), 0.5, 0.5),
        ):
            value = ecdf(RealSample(sample), x)
            assert type(value) is float and value == expected
        assert ecdf(RealSample((0, Fraction(1, 2))), Fraction(1, 2)) == 1 and type(ecdf(RealSample((0, 1)), 0)) is Fraction

    def test_the_count_compares_exactly(self):
        # the float 0.1 lies above 1/10, and 2**53 + 1 above the float 2.0**53
        assert ecdf(RealSample((0.1, 0.2)), Fraction(1, 10)) == 0.0
        assert ecdf(RealSample((2**53 + 1, 0.5)), 2.0**53) == 0.5


class TestCramerLoss:
    def test_identical_two_point_samples(self):
        assert cramer_loss(RealSample((0, 1)), RealSample((0, 1))) == Fraction(-1, 2)

    def test_disjoint_samples_hand_value(self):
        # [0,1): 0 - 1/4 - 0; [1,10): 1 - 0 - 0 over width 9; [10,11): symmetric
        assert cramer_loss(RealSample((0, 1)), RealSample((10, 11))) == 9

    def test_sizes_gate(self):
        with pytest.raises(SampleTooSmallError):
            cramer_loss(RealSample((0.0,)), RealSample((0.0, 1.0)))

    def test_matches_quadrature_on_random_samples(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            ns = int(rng.integers(2, 21))
            nu = int(rng.integers(2, 21))
            s = RealSample(tuple(rng.uniform(-10, 10, ns)))
            u = RealSample(tuple(rng.uniform(-10, 10, nu)))
            assert float(cramer_loss(s, u)) == pytest.approx(quadrature_oracle(s, u), abs=1e-9)

    def test_translation_invariance(self):
        s = RealSample((0.5, -2.0, 3.25, 0.5))
        u = RealSample((1.0, 1.5, -0.75))
        base = cramer_loss(s, u)
        for c in (2.5, -17.0, 1e6):
            assert cramer_loss(s.shifted(c), u.shifted(c)) == pytest.approx(float(base), rel=1e-9)
        exact_s = RealSample((Fraction(1, 2), Fraction(3, 2)))
        exact_u = RealSample((Fraction(0), Fraction(2)))
        assert cramer_loss(exact_s.shifted(Fraction(7, 3)), exact_u.shifted(Fraction(7, 3))) == cramer_loss(
            exact_s, exact_u
        )

    def test_contributions_vanish_outside_the_hull(self):
        # padding one sample with a far point changes only the genuinely new
        # inner segments; regions where both ECDFs are flat at 0 or 1 add 0.
        # Identical samples integrate the pure correction terms only, and
        # appending a shared far point leaves those segment values intact.
        s = RealSample((0, 1))
        base = cramer_loss(s, s)
        widened = cramer_loss(RealSample((0, 1, 50)), RealSample((0, 1, 50)))
        # segments beyond max(union) and below min(union) contribute exactly
        # zero, which is what lets the closed form stop at the hull: the
        # widened value is fully accounted for by the two interior segments
        assert base == Fraction(-1, 2)
        assert widened == -2 * variance_mvue(Fraction(1, 3), 3) * 1 - 2 * variance_mvue(Fraction(2, 3), 3) * 49


class TestCramerDistanceOracle:
    def test_identity(self):
        assert cramer_distance_oracle((0, 1), (Fraction(1, 2), Fraction(1, 2)), (0, 1), (Fraction(1, 2), Fraction(1, 2))) == 0

    def test_point_masses_one_apart(self):
        assert cramer_distance_oracle((0,), (1,), (1,), (1,)) == 1

    def test_uniform_versus_point_mass(self):
        val = cramer_distance_oracle((0, 1), (Fraction(1, 2), Fraction(1, 2)), (0,), (1,))
        assert val == Fraction(1, 4)


class TestUnbiasedness:
    def test_cramer_loss_expectation_equals_the_oracle_exactly(self):
        # full enumeration over two-draw samples from two-point distributions,
        # in rationals: E[loss] literally equals the integrated CDF distance
        for wp, wq in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2))):
            truth = cramer_distance_oracle((0, 1), (wp, 1 - wp), (0, 1), (wq, 1 - wq))
            mean = sum(
                ps * pu * cramer_loss(s, u)
                for s, ps in two_draw_outcomes(0, 1, wp)
                for u, pu in two_draw_outcomes(0, 1, wq)
            )
            assert mean == truth

    def test_cramer_loss_expectation_on_three_point_support(self):
        # richer support: distributions on {0, 1, 3} with two draws per side
        from itertools import product

        def outcomes(weights):
            pts = (0, 1, 3)
            out = {}
            for i, j in product(range(3), repeat=2):
                key = tuple(sorted((pts[i], pts[j])))
                out[key] = out.get(key, 0) + weights[i] * weights[j]
            return [(RealSample(k), v) for k, v in out.items()]

        wp = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        wq = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        truth = cramer_distance_oracle((0, 1, 3), wp, (0, 1, 3), wq)
        mean = sum(ps * pu * cramer_loss(s, u) for s, ps in outcomes(wp) for u, pu in outcomes(wq))
        assert mean == truth

    def test_energy_is_twice_the_cdf_distance_in_expectation(self):
        for wp, wq in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(2, 3), Fraction(1, 5))):
            truth = cramer_distance_oracle((0, 1), (wp, 1 - wp), (0, 1), (wq, 1 - wq))
            mean = sum(
                ps * pu * energy_loss(s, u)
                for s, ps in two_draw_outcomes(0, 1, wp)
                for u, pu in two_draw_outcomes(0, 1, wq)
            )
            assert mean == 2 * truth


class TestCrps:
    def test_all_mass_at_the_draw(self):
        assert crps(RealSample((3, 3)), 3) == 0

    def test_two_point_sample_at_zero(self):
        assert crps(RealSample((0, 1)), 0) == 0

    def test_needs_two_model_draws(self):
        with pytest.raises(SampleTooSmallError):
            crps(RealSample((1.0,)), 0.0)

    def test_expectation_over_the_target_draw(self):
        # E_{y~q} crps(s, y) equals the CDF-distance form plus the target's
        # own binomial variance integral F_q(1-F_q), all computed by hand for
        # a two-point target on {0, 1}
        s = RealSample((0, 1))
        for wq in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            mean = wq * crps(s, 0) + (1 - wq) * crps(s, 1)
            fs = Fraction(1, 2)  # ECDF of s on [0, 1)
            cdf_term = (fs - wq) ** 2 - variance_mvue(fs, 2)
            variance_term = wq * (1 - wq)
            assert mean == cdf_term + variance_term

    def test_full_expectation_implements_the_single_draw_divergence(self):
        # over both the model sample AND the target draw: the expectation is
        # the integrated (F_p - F_q)^2 plus the q-side variance integral --
        # the exact single-target-draw analogue of the two-sample identity
        wp, wq = Fraction(1, 3), Fraction(1, 4)
        truth = cramer_distance_oracle((0, 1), (wp, 1 - wp), (0, 1), (wq, 1 - wq)) + wq * (1 - wq)
        mean = sum(
            ps * py * crps(s, y)
            for s, ps in two_draw_outcomes(0, 1, wp)
            for y, py in ((0, wq), (1, 1 - wq))
        )
        assert mean == truth


class TestEnergyLoss:
    def test_identical_two_point_samples(self):
        assert energy_loss(RealSample((0, 1)), RealSample((0, 1))) == -1

    def test_coincident_mass(self):
        assert energy_loss(RealSample((0, 0)), RealSample((0, 0))) == 0

    def test_sizes_gate(self):
        with pytest.raises(SampleTooSmallError):
            energy_loss(RealSample((0.0,)), RealSample((0.0, 1.0)))

    def test_large_samples_match_a_sorted_prefix_sum_reference(self):
        # 4e8 pairs: out of reach of a pairwise loop in a unit test
        rng = np.random.default_rng(20_000)
        x, y = rng.normal(0.0, 1.0, 20_000), rng.normal(0.3, 1.2, 20_000)

        def within(v):
            v = np.sort(v)
            return np.sum(v * (2 * np.arange(len(v)) - len(v) + 1))

        ys = np.sort(y)
        prefix = np.concatenate([[0.0], np.cumsum(ys)])
        k = np.searchsorted(ys, x, side="right")
        cross = np.sum((x * k - prefix[k]) + (prefix[-1] - prefix[k] - x * (len(y) - k)))
        n, m = len(x), len(y)
        reference = 2 * cross / (n * m) - 2 * within(x) / (n * (n - 1)) - 2 * within(y) / (m * (m - 1))
        value = energy_loss(RealSample(tuple(x.tolist())), RealSample(tuple(y.tolist())))
        assert type(value) is float
        assert abs(value - reference) <= 1e-12 * abs(reference)


class TestProjectedCramerLoss:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            projected_cramer_loss(VectorSample(((0.0, 1.0),) * 2), VectorSample(((0.0,),) * 2), seed=0)

    def test_one_dimension_reduces_to_the_line(self):
        s = VectorSample(((0.0,), (1.0,), (2.5,)))
        u = VectorSample(((0.5,), (2.0,)))
        line = float(cramer_loss(RealSample((0.0, 1.0, 2.5)), RealSample((0.5, 2.0))))
        for seed in range(5):
            # the projection direction is +-1; the loss is reflection invariant
            assert projected_cramer_loss(s, u, seed) == pytest.approx(line, rel=1e-12)

    def test_identical_samples_reduce_to_the_projected_line_case(self):
        pts = ((0.0, 1.0), (2.0, -1.0), (0.5, 0.5))
        s = VectorSample(pts)
        value = projected_cramer_loss(s, s, seed=3)
        rng = np.random.default_rng(np.random.SeedSequence(3))
        v = rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        proj = RealSample(tuple(float(np.dot(v, p)) for p in pts))
        assert value == pytest.approx(float(cramer_loss(proj, proj)), rel=1e-12)

    def test_zero_mean_when_the_distributions_coincide(self):
        # model and target are the same two-point vector distribution; the
        # seeded projection loss averages to zero
        pts = ((0.0, 0.0), (1.0, 2.0))
        rng = np.random.default_rng(123)
        values = []
        for seed in range(10000):
            s = VectorSample(tuple(pts[i] for i in rng.integers(0, 2, 2)))
            u = VectorSample(tuple(pts[i] for i in rng.integers(0, 2, 2)))
            values.append(projected_cramer_loss(s, u, seed))
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(float(np.mean(values))) <= 4 * se


class TestLoaders:
    def test_real_sample_round_trip(self, tmp_path):
        path = tmp_path / "reals.txt"
        path.write_text("0.5\n-2\n3.25\n", encoding="utf-8")
        assert load_real_sample(str(path)).values == (0.5, -2.0, 3.25)

    def test_vector_sample_round_trip(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0.5,1\n-2,0\n", encoding="utf-8")
        assert load_vector_sample(str(path)).points == ((0.5, 1.0), (-2.0, 0.0))
