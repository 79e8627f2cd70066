from fractions import Fraction

import numpy as np
import pytest

from properloss import (
    Distribution,
    Domain,
    EmptyHistogramError,
    FixedSize,
    Histogram,
    IndexOutOfRangeError,
    Mode,
    Poisson,
    TokenUnknownError,
    compositions,
    empirical,
    indicator,
)


class TestDomain:
    def test_labels_map_to_indices(self):
        d = Domain(("a", "b", "c"))
        assert d.size == 3
        assert d.index("b") == 1
        assert d.label(2) == "c"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Domain(("a", "a"))

    def test_unknown_token(self):
        with pytest.raises(TokenUnknownError):
            Domain(("a", "b")).index("z")

    def test_label_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            Domain(("a", "b")).label(2)

    def test_of_size(self):
        assert Domain.of_size(3).labels == ("x0", "x1", "x2")
        with pytest.raises(ValueError):
            Domain.of_size(0)


class TestDistribution:
    def test_an_exact_distribution_keeps_its_common_denominator(self):
        from properloss.domain import over_common_denominator

        dist = Distribution.exact([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
        assert dist.over_common_denominator() == ((2, 1, 3), 6) == over_common_denominator(dist.probs)
        assert over_common_denominator(dist) is dist.over_common_denominator() is dist.over_common_denominator()
        assert Distribution.floating([0.5, 0.5]).over_common_denominator() is None

    def test_exact_sum_enforced(self):
        with pytest.raises(ValueError):
            Distribution.exact([Fraction(1, 2), Fraction(1, 3)])

    def test_negative_rejected_both_modes(self):
        with pytest.raises(ValueError):
            Distribution.exact([Fraction(3, 2), Fraction(-1, 2)])
        with pytest.raises(ValueError):
            Distribution.floating([1.5, -0.5])

    def test_float_tolerance_renormalizes(self):
        d = Distribution.floating([0.5, 0.5 + 5e-13])
        assert abs(sum(d.probs) - 1.0) < 1e-15

    def test_float_out_of_tolerance_rejected(self):
        with pytest.raises(ValueError):
            Distribution.floating([0.5, 0.6])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Distribution.floating([float("nan"), 1.0])
        with pytest.raises(ValueError):
            Distribution.floating([float("inf"), 0.0])

    def test_uniform(self):
        assert Distribution.uniform(4).probs == (Fraction(1, 4),) * 4

    def test_a_large_float_uniform_constructs(self):
        # the plainly added total of 10**5 entries of 1e-05 is 0.9999999999980838,
        # outside the tolerance; the correctly rounded one is not
        dist = Distribution.uniform(10**5, Mode.FLOAT)
        assert dist.dim == 10**5 and len(set(dist.probs)) == 1

    def test_accepted_float_vectors_are_divided_by_their_plain_sum(self):
        values = [0.1, 0.2, 0.3, 0.4 + 3e-13]
        total = sum(values)
        assert Distribution.floating(values).probs == tuple(v / total for v in values)


class TestHistogram:
    def test_total_and_support_derived(self):
        h = Histogram((3, 0, 1))
        assert h.total == 4
        assert h.support == (0, 2)
        assert h.dim == 3

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Histogram((1, -1))

    def test_complement_matches_definition(self):
        # h_{-x} = total - counts[x] at every coordinate
        h = Histogram((2, 5, 0, 1))
        for x in range(h.dim):
            assert h.complement(x) == h.total - h.counts[x]
        with pytest.raises(IndexOutOfRangeError):
            h.complement(4)

    def test_from_indices(self):
        assert Histogram.from_indices([0, 1, 1, 0, 1], 3).counts == (2, 3, 0)


class TestEmpirical:
    def test_half_half(self):
        assert empirical(Histogram((1, 1))).probs == (Fraction(1, 2), Fraction(1, 2))

    def test_point_mass(self):
        assert empirical(Histogram((2, 0))).probs == (Fraction(1), Fraction(0))

    def test_three_coordinates(self):
        assert empirical(Histogram((3, 1, 0))).probs == (Fraction(3, 4), Fraction(1, 4), Fraction(0))

    def test_empty_rejected(self):
        with pytest.raises(EmptyHistogramError):
            empirical(Histogram((0, 0)))

    def test_exact_mode_is_exactly_on_the_simplex(self):
        for counts in compositions(5, 3):
            if sum(counts) == 0:
                continue
            d = empirical(Histogram(counts))
            assert sum(d.probs) == 1

    def test_float_mode(self):
        d = empirical(Histogram((1, 3)), Mode.FLOAT)
        assert d.probs == (0.25, 0.75)


class TestIndicator:
    def test_first_coordinate(self):
        assert indicator(0, 2).probs == (Fraction(1), Fraction(0))

    def test_last_coordinate(self):
        assert indicator(2, 3).probs == (Fraction(0), Fraction(0), Fraction(1))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            indicator(3, 2)


class TestSamplingSchemes:
    def test_fixed_size_positive(self):
        assert FixedSize(3).n == 3
        with pytest.raises(ValueError):
            FixedSize(0)

    def test_poisson_rate_positive(self):
        assert Poisson(2.5).rate == 2.5
        with pytest.raises(ValueError):
            Poisson(0.0)


class TestCompositions:
    def test_two_parts(self):
        assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]

    def test_three_parts_of_one(self):
        assert list(compositions(1, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_count_matches_stars_and_bars(self):
        out = list(compositions(4, 3))
        assert len(out) == 15  # C(6, 2)
        assert len(set(out)) == 15
        assert all(sum(c) == 4 for c in out)

    def test_order_matches_a_recursive_reference(self):
        def recursive(total, parts):
            if parts == 1:
                return [(total,)]
            return [(first,) + rest for first in range(total, -1, -1) for rest in recursive(total - first, parts - 1)]

        for parts in range(1, 5):
            for total in range(9):
                assert list(compositions(total, parts)) == recursive(total, parts)


class TestPoissonCdf:
    # Sampled Poisson sizes come from one CDF walk; these values were recorded
    # from the pmf loop the walk replaced, so any change to its float
    # arithmetic shows here.
    def test_sampled_sizes_are_pinned(self):
        import hashlib

        from properloss.domain import _poisson_size
        from properloss.sampling import STREAM_MODEL_SIZES, stream_rng

        sizes = []
        for rate in (0.5, 6.0, 8.0, 40.0, 300.0):
            for seed in range(20):
                rng = stream_rng(seed, STREAM_MODEL_SIZES)
                sizes.append([int(_poisson_size(float(rng.random()), rate)) for _ in range(25)])
        assert sizes[20][:10] == [8, 3, 7, 7, 4, 6, 7, 10, 5, 5]  # rate 6, seed 0
        assert sizes[40][:10] == [11, 4, 9, 9, 6, 8, 9, 13, 7, 6]  # rate 8, seed 0
        digest = hashlib.sha256(repr(sizes).encode()).hexdigest()
        assert digest == "8bf6c729864483c0db204691c093f974de34b2695acf52b155c1481e7d306ce1"

    def test_walk_ends_at_the_shared_limit(self):
        from properloss.domain import _poisson_size, poisson_cdf

        steps = list(poisson_cdf(2.0))
        assert [t for t, _ in steps] == list(range(541))  # 20 * rate + 500
        assert _poisson_size(1.0, 2.0) == 540
        assert _poisson_size(0.0, 2.0) == 0


class TestCountRows:
    def test_draws_give_the_counts_of_each_run(self):
        from properloss.domain import CountRows

        rows = CountRows.from_draws(np.array([3, 1, 1, 0, 2]), [2, 3, 0], 4)
        assert rows.shape == (3, 4) and rows.total == 5
        assert rows.observed().tolist() == [0, 1, 2, 3]
        keys, counts = rows.entries()
        assert keys.tolist() == [1, 3, 4, 5, 6] and counts.tolist() == [1, 1, 1, 1, 1]
        assert rows.dense().tolist() == [[0, 1, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0]]

    def test_nbytes_counts_what_is_held(self):
        from properloss.domain import CountRows

        d, sizes = 50_000, np.full(100, 2)
        rows = CountRows.from_draws(np.zeros(200, dtype=np.int64), sizes, d)
        assert rows.nbytes == 200 * 8 + 100 * 8  # the draws and the row sizes; no (R, d) matrix
        rows.entries()
        assert rows.nbytes < 200 * 8 * 3

    def test_a_count_matrix_is_wrapped_without_a_copy(self):
        from properloss.domain import CountRows

        matrix = np.array([[2, 0, 1], [0, 0, 0]], dtype=np.int64)
        rows = CountRows.from_counts(matrix)
        assert rows.dense() is matrix and rows.shape == (2, 3) and rows.total == 3
        assert rows.sizes.tolist() == [3, 0] and rows.observed().tolist() == [0, 2]
        keys, counts = rows.entries()
        assert keys.tolist() == [0, 2] and counts.tolist() == [2, 1]
