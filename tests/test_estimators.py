import math
from fractions import Fraction
from itertools import product

import pytest

from properloss import (
    DegreeExceedsSampleError,
    ExponentVector,
    Histogram,
    IndexOutOfRangeError,
    Mode,
    SampleTooSmallError,
    TotalMismatchError,
    binom_mvue,
    falling_factorial,
    multinomial_monomial_mvue,
    poisson_factorial,
    poisson_power_series,
    variance_mvue,
)


def binomial_pmf(t, m, alpha):
    """Independent oracle pmf, exact rationals."""
    return math.comb(m, t) * Fraction(alpha) ** t * (1 - Fraction(alpha)) ** (m - t)


def all_histograms(d, n):
    """Independent stars-and-bars enumeration, written without the library."""
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in all_histograms(d - 1, n - first):
            out.append((first,) + rest)
    return out


def multinomial_pmf_oracle(counts, n, p):
    coef = math.factorial(n)
    for c in counts:
        coef //= math.factorial(c)
    val = Fraction(coef)
    for prob, c in zip(p, counts):
        val *= Fraction(prob) ** c
    return val


class TestFallingFactorial:
    def test_basic(self):
        assert falling_factorial(3, 2) == 6
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(1, 3) == 0

    def test_vanishes_below_k(self):
        for t in range(6):
            for k in range(t + 1, 8):
                assert falling_factorial(t, k) == 0


class TestExponentVector:
    def test_degree_derived(self):
        j = ExponentVector((2, 0, 1))
        assert j.degree == 3
        assert j.dim == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExponentVector((1, -1))

    def test_unit_and_zero(self):
        assert ExponentVector.unit(3, 1, 2).exps == (0, 2, 0)
        assert ExponentVector.zero(2).degree == 0

    def test_sparse_storage_is_independent_of_the_domain_size(self):
        j = ExponentVector.unit(10**9, 3, 2)
        assert j.degree == 2
        assert j.dim == 10**9
        assert j.pairs == ((3, 2),)
        assert ExponentVector.zero(10**9).pairs == ()

    def test_sparse_form_validates_its_pairs(self):
        assert ExponentVector.sparse(4, [(0, 1), (2, 0), (3, 2)]).exps == (1, 0, 0, 2)
        with pytest.raises(ValueError):
            ExponentVector.sparse(4, [(1, -1)])
        for bad in ([(2, 1), (1, 1)], [(1, 1), (1, 2)], [(4, 1)], [(-1, 1)]):
            with pytest.raises(IndexOutOfRangeError):
                ExponentVector.sparse(4, bad)


class TestBinomMvue:
    def test_direct_values(self):
        assert binom_mvue(1, 2, 1) == Fraction(1, 2)
        assert binom_mvue(2, 2, 2) == 1
        assert binom_mvue(0, 4, 0) == 1
        assert binom_mvue(1, 4, 3) == 0  # t < k

    def test_degree_gate(self):
        with pytest.raises(DegreeExceedsSampleError):
            binom_mvue(1, 2, 3)

    def test_count_range(self):
        with pytest.raises(ValueError):
            binom_mvue(3, 2, 1)

    def test_expected_value_is_alpha_squared(self):
        # E over T ~ Binomial(4, 1/3), exact pmf written out in the test
        alpha = Fraction(1, 3)
        expect = sum(binomial_pmf(t, 4, alpha) * binom_mvue(t, 4, 2) for t in range(5))
        assert expect == Fraction(1, 9)

    def test_exact_unbiasedness_sweep(self):
        # every (m, k, alpha) in the declared range, literal rational equality
        for m in range(1, 7):
            for k in range(m + 1):
                for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                    expect = sum(binomial_pmf(t, m, alpha) * binom_mvue(t, m, k) for t in range(m + 1))
                    assert expect == alpha**k

    def test_float_mode_matches_exact(self):
        for t, m, k in ((3, 5, 2), (5, 5, 5), (0, 3, 1)):
            assert binom_mvue(t, m, k, Mode.FLOAT) == pytest.approx(float(binom_mvue(t, m, k)))


class TestMultinomialMonomialMvue:
    def test_direct_values(self):
        est = multinomial_monomial_mvue(Histogram((2, 1)), 3, ExponentVector((2, 1)))
        assert est == Fraction(1, 3)
        assert multinomial_monomial_mvue(Histogram((2, 0)), 2, ExponentVector((2, 0))) == 1

    def test_vanishes_when_any_count_below_exponent(self):
        assert multinomial_monomial_mvue(Histogram((3, 0)), 3, ExponentVector((1, 1))) == 0

    def test_total_mismatch(self):
        with pytest.raises(TotalMismatchError):
            multinomial_monomial_mvue(Histogram((2, 1)), 4, ExponentVector((1, 0)))

    def test_degree_gate(self):
        with pytest.raises(DegreeExceedsSampleError):
            multinomial_monomial_mvue(Histogram((2, 1)), 3, ExponentVector((2, 2)))

    def test_expected_value_three_draws(self):
        # E over H ~ Multinomial(3, (1/2, 1/2)) with exponents (2, 1), by
        # enumerating the four histograms with an independent pmf
        p = (Fraction(1, 2), Fraction(1, 2))
        expect = sum(
            multinomial_pmf_oracle(h, 3, p)
            * multinomial_monomial_mvue(Histogram(h), 3, ExponentVector((2, 1)))
            for h in all_histograms(2, 3)
        )
        assert expect == Fraction(1, 8)

    @pytest.mark.parametrize("d,p", [(2, (Fraction(1, 3), Fraction(2, 3))), (3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))])
    def test_exact_unbiasedness_sweep(self, d, p):
        for n in range(1, 6):
            for exps in product(range(n + 1), repeat=d):
                if sum(exps) > n:
                    continue
                j = ExponentVector(exps)
                expect = sum(
                    multinomial_pmf_oracle(h, n, p) * multinomial_monomial_mvue(Histogram(h), n, j)
                    for h in all_histograms(d, n)
                )
                truth = math.prod(Fraction(px) ** e for px, e in zip(p, exps))
                assert expect == truth

    def test_binomial_special_case(self):
        # a two-outcome histogram with exponents (k, 0) reproduces the
        # binomial estimator coordinate for coordinate
        for m in range(1, 6):
            for k in range(m + 1):
                for t in range(m + 1):
                    lhs = binom_mvue(t, m, k)
                    rhs = multinomial_monomial_mvue(Histogram((t, m - t)), m, ExponentVector((k, 0)))
                    assert lhs == rhs


class TestPoissonFactorial:
    def test_direct_values(self):
        assert poisson_factorial(3, 2) == 6
        assert poisson_factorial(1, 3) == 0
        assert poisson_factorial(0, 0) == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            poisson_factorial(-1, 2)

    def test_truncated_expectation(self):
        # E over T ~ Poisson(2) of the k=3 falling factorial is 2^3; the
        # truncation at t=60 leaves far less than 1e-12 of the series
        theta = 2.0
        pmf = math.exp(-theta)
        expect = 0.0
        for t in range(61):
            if t:
                pmf *= theta / t
            expect += pmf * poisson_factorial(t, 3)
        assert abs(expect - 8.0) < 1e-9

    def test_truncated_series_identity_exact(self):
        # sum_{t<=T} theta^t ff(t,k)/t!  ==  theta^k * sum_{s<=T-k} theta^s/s!
        # exactly in rationals: the same series reindexed, so the truncated
        # expectation equals theta^k times a truncated exponential factor
        for theta in (Fraction(1, 2), Fraction(2), Fraction(8)):
            for k in range(7):
                T = 40
                lhs = sum(theta**t * poisson_factorial(t, k) / math.factorial(t) for t in range(T + 1))
                rhs = theta**k * sum(theta**s / math.factorial(s) for s in range(T - k + 1))
                assert lhs == rhs


class TestVarianceMvue:
    def test_direct_values(self):
        assert variance_mvue(Fraction(1, 2), 2) == Fraction(1, 4)
        assert variance_mvue(Fraction(0), 5) == 0
        assert variance_mvue(Fraction(1), 5) == 0

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmallError):
            variance_mvue(0.5, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            variance_mvue(1.5, 3)

    def test_expected_value_is_frequency_variance(self):
        # E over T ~ Binomial(2, 1/2) of s2(T/2) equals p(1-p)/n = 1/8
        alpha = Fraction(1, 2)
        expect = sum(binomial_pmf(t, 2, alpha) * variance_mvue(Fraction(t, 2), 2) for t in range(3))
        assert expect == Fraction(1, 8)

    def test_unbiased_across_sizes(self):
        for n in range(2, 7):
            for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
                expect = sum(binomial_pmf(t, n, alpha) * variance_mvue(Fraction(t, n), n) for t in range(n + 1))
                assert expect == alpha * (1 - alpha) / n


class TestPoissonPowerSeries:
    def test_empty_sum(self):
        assert poisson_power_series(0, lambda k: 1.0 / k, 4.0) == 0

    def test_single_term(self):
        assert poisson_power_series(1, lambda k: Fraction(1, k), Fraction(4)) == Fraction(1, 4)

    def test_three_terms_hand_value(self):
        # 3/4 + (1/2)(6/16) + (1/3)(6/64) = 31/32
        val = poisson_power_series(3, lambda k: Fraction(1, k), Fraction(4))
        assert val == Fraction(31, 32)
        assert float(val) == 0.96875

    def test_zero_count_kills_every_estimator(self):
        zero = Histogram((0, 0))
        assert poisson_factorial(0, 1) == 0
        assert multinomial_monomial_mvue(zero, 0, ExponentVector((0, 0))) == 1  # empty product
        assert poisson_power_series(0, lambda k: 1.0, 2.0) == 0
