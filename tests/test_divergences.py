import math
from fractions import Fraction

import pytest

from properloss import (
    DimensionMismatchError,
    Distribution,
    DomainTooLargeError,
    ExponentVector,
    Monomial,
    OddExponentError,
    PolyDivergence,
    Separable,
    SeriesDivergence,
    SeriesKind,
    builtin_brier,
    builtin_l2,
    builtin_lk_even,
    simplex_grid,
)
from properloss import divergences

HALF = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])


class TestPolyDivergence:
    def test_degrees_recomputed_from_monomials(self):
        div = PolyDivergence(
            (
                Monomial(3, ExponentVector((2, 1)), ExponentVector((0, 0))),
                Monomial(-1, ExponentVector((0, 0)), ExponentVector((0, 4))),
            )
        )
        assert div.deg_p == 3
        assert div.deg_q == 4

    def test_duplicate_exponent_pairs_rejected(self):
        mono = Monomial(1, ExponentVector((1, 0)), ExponentVector((0, 0)))
        dup = Monomial(2, ExponentVector((1, 0)), ExponentVector((0, 0)))
        with pytest.raises(ValueError):
            PolyDivergence((mono, dup))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Monomial(0, ExponentVector((1,)), ExponentVector((0,)))


class TestSeparable:
    def test_length_is_known_without_building_monomials(self):
        div = builtin_l2(4)
        assert len(div.monomials) == 12 and (div.deg_p, div.deg_q) == (2, 2)
        assert list(div.monomials) == [
            Monomial(c, ExponentVector.unit(4, x, i), ExponentVector.unit(4, x, j))
            for x in range(4) for c, i, j in ((1, 2, 0), (-2, 1, 1), (1, 0, 2))
        ]
        assert div.monomials[4] == div.monomials[-8] == list(div.monomials)[4]
        assert div.monomials[1:3] == tuple(div.monomials)[1:3]
        with pytest.raises(IndexError):
            div.monomials[12]

    def test_a_template_equals_its_expansion(self):
        div = builtin_brier(3)
        dense = PolyDivergence(tuple(div.monomials))
        assert dense.template is None and div.template is not None
        assert div == dense and dense == div and hash(div) == hash(dense)
        assert div != builtin_l2(3)

    @pytest.mark.parametrize("d, terms", [
        (0, ((1, 2, 0),)),
        (2, ()),
        (2, ((0, 2, 0),)),
        (2, ((1, 0, 0),)),
        (2, ((1, -1, 2),)),
        (2, ((1, 2, 0), (3, 2, 0))),
    ])
    def test_invalid_templates_rejected(self, d, terms):
        with pytest.raises(ValueError):
            PolyDivergence(Separable(d, terms))


class TestBuiltinL2:
    def test_shape(self):
        div = builtin_l2(2)
        assert len(div.monomials) == 6
        assert (div.deg_p, div.deg_q) == (2, 2)

    def test_identity_is_zero(self):
        assert builtin_l2(2).evaluate(HALF, HALF) == 0

    def test_point_masses(self):
        p = Distribution.exact([1, 0])
        q = Distribution.exact([0, 1])
        assert builtin_l2(2).evaluate(p, q) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            builtin_l2(3).evaluate(HALF, HALF)


class TestBuiltinLkEven:
    def test_point_masses_fourth_power(self):
        p = Distribution.exact([1, 0])
        q = Distribution.exact([0, 1])
        assert builtin_lk_even(2, 4).evaluate(p, q) == 2

    def test_k2_has_the_same_monomials_as_l2(self):
        assert set(builtin_lk_even(2, 2).monomials) == set(builtin_l2(2).monomials)

    def test_k2_evaluates_identically_to_l2_on_rationals(self):
        lk = builtin_lk_even(2, 2)
        l2 = builtin_l2(2)
        for p in simplex_grid(2, 8):
            for q in simplex_grid(2, 8):
                assert lk.evaluate(p, q) == l2.evaluate(p, q)

    def test_odd_exponent_rejected(self):
        with pytest.raises(OddExponentError):
            builtin_lk_even(2, 3)


class TestBuiltinBrier:
    def test_hand_values(self):
        assert builtin_brier(2).evaluate(HALF, HALF) == Fraction(-1, 2)
        one = Distribution.exact([1, 0])
        assert builtin_brier(2).evaluate(one, one) == -1

    def test_degrees(self):
        div = builtin_brier(3)
        assert (div.deg_p, div.deg_q) == (2, 1)


class TestSeriesDivergences:
    def test_cross_entropy_at_uniform(self):
        ce = SeriesDivergence(SeriesKind.CROSS_ENTROPY)
        assert ce.evaluate(HALF, HALF) == pytest.approx(math.log(2), abs=1e-12)

    def test_cross_entropy_support_mismatch_is_infinite(self):
        ce = SeriesDivergence(SeriesKind.CROSS_ENTROPY)
        p = Distribution.exact([0, 1])
        assert ce.evaluate(p, HALF) == math.inf

    def test_kl_identity_is_zero(self):
        kl = SeriesDivergence(SeriesKind.KL)
        assert kl.evaluate(HALF, HALF) == 0

    def test_kl_decomposes_into_cross_entropy_minus_entropy(self):
        kl = SeriesDivergence(SeriesKind.KL)
        ce = SeriesDivergence(SeriesKind.CROSS_ENTROPY)
        ent = SeriesDivergence(SeriesKind.SHANNON_ENTROPY)
        for p in simplex_grid(2, 8):
            for q in simplex_grid(2, 8):
                if 0 in p.probs:
                    continue
                lhs = kl.evaluate(p, q)
                rhs = ce.evaluate(p, q) - ent.evaluate(p, q)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_entropy_ignores_model(self):
        ent = SeriesDivergence(SeriesKind.SHANNON_ENTROPY)
        p = Distribution.exact([1, 0])
        assert ent.evaluate(p, HALF) == ent.evaluate(HALF, HALF)


class TestSimplexGrid:
    def test_a_grid_past_the_cap_is_refused_before_any_point_is_built(self):
        # C(39, 19), about 6.9e10 points: refused from the count alone
        with pytest.raises(DomainTooLargeError, match="68923264410 points over 20 outcomes"):
            simplex_grid(20, 20)

    def test_a_grid_of_the_cap_is_built(self, monkeypatch):
        # a d = 2 grid of denominator k has k + 1 points
        monkeypatch.setattr(divergences, "ENUMERATION_CAP", 10)
        assert len(simplex_grid(2, 9)) == 10
        with pytest.raises(DomainTooLargeError):
            simplex_grid(2, 10)


class TestPropernessInvariant:
    def test_every_builtin_on_the_fine_grid(self):
        # div(q, q) <= div(p, q) for all grid (p, q): the defining inequality
        grid = simplex_grid(2, 64)
        polys = [builtin_l2(2), builtin_lk_even(2, 4), builtin_brier(2)]
        for div in polys:
            for q in grid:
                ref = div.evaluate(q, q)
                for p in grid:
                    assert div.evaluate(p, q) >= ref
        ce = SeriesDivergence(SeriesKind.CROSS_ENTROPY)
        kl = SeriesDivergence(SeriesKind.KL)
        for q in grid:
            ref_ce = ce.evaluate(q, q)
            ref_kl = kl.evaluate(q, q)
            for p in grid:
                assert ce.evaluate(p, q) >= ref_ce - 1e-12
                assert kl.evaluate(p, q) >= ref_kl - 1e-12
