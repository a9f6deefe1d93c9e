"""Limiting moments, free-cumulant conversions, and moment-matrix checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hmt.limits
import hmt.words
from hmt.errors import CapacityError, InvalidArgumentError
from hmt.limits import (
    MARKOV_ORDER_CAP,
    WORDS_EXACT_K_CAP,
    CumulantTable,
    MomentEstimate,
    check_request,
    cumulants_to_moments,
    free_cumulants,
    hankel_moment_matrix_det,
    irreducible_count,
    limit_moment,
    moment_table,
    moments_to_cumulants,
    reference_moments,
)
from hmt.rng import mix
from hmt.volumes import build_system, volume_mc
from hmt.words import enumerate_words, height, is_irreducible, is_noncrossing

F = Fraction


class TestLimitMoments:
    def test_toeplitz_fourth_moment(self):
        assert limit_moment("toeplitz", 4) == F(8, 3)

    def test_hankel_moments(self):
        assert limit_moment("hankel", 2) == 1
        assert limit_moment("hankel", 4) == 2
        assert limit_moment("hankel", 6) == F(11, 2)
        assert limit_moment("hankel", 8) == F(281, 15)

    def test_markov_second_and_fourth(self):
        assert limit_moment("markov", 2) == 2
        assert limit_moment("markov", 4) == 9
        # the markov sum is an exact integer whatever the method flag says
        assert limit_moment("markov", 4, method="mc") == 9

    def test_markov_fourth_from_heights(self):
        want = sum(2 ** height(w) for w in enumerate_words(2))
        assert limit_moment("markov", 4) == want == 4 + 4 + 1

    def test_order_zero_is_one(self):
        assert limit_moment("toeplitz", 0) == 1

    def test_order_two_is_family_variance(self):
        assert limit_moment("toeplitz", 2) == 1
        assert limit_moment("hankel", 2) == 1
        assert limit_moment("markov", 2) == 2
        assert reference_moments("semicircle", 2) == 1
        assert reference_moments("gaussian", 2) == 1

    def test_monte_carlo_brackets_exact(self):
        est = limit_moment("toeplitz", 4, method="mc", mc_samples=200_000, seed=5)
        assert isinstance(est, MomentEstimate)
        assert abs(est.value - 8.0 / 3.0) <= 3 * est.stderr

    def test_moment_bounds(self):
        # every word volume sits in [0, 1] and the fully nested word gives 1
        for family in ("toeplitz", "hankel"):
            for k in range(1, 5):
                value = limit_moment(family, 2 * k)
                assert 1 <= value <= math.prod(range(1, 2 * k, 2))

    def test_error_paths(self):
        with pytest.raises(InvalidArgumentError):
            limit_moment("toeplitz", 3)
        with pytest.raises(InvalidArgumentError):
            limit_moment("wigner", 4)
        with pytest.raises(InvalidArgumentError):
            limit_moment("toeplitz", 4, method="grid")
        with pytest.raises(CapacityError):
            limit_moment("markov", MARKOV_ORDER_CAP + 2)
        with pytest.raises(CapacityError):
            limit_moment("toeplitz", 22)  # above the exact toeplitz cap of order 20

    @pytest.mark.parametrize("family, max_order, method", [
        ("hankel", 18, "exact"),   # exact hankel cap (order 16)
        ("markov", MARKOV_ORDER_CAP + 2, "exact"),  # series cap
        ("toeplitz", 22, "exact"),  # exact toeplitz cap (order 20)
        ("toeplitz", 18, "mc"),    # word cap; the exact count would run
        ("toeplitz", 14, "mc"),    # Monte Carlo draws: 135,135 words * 100,000 * 8
        ("hankel", 16, "mc"),      # draws of the 8! = 40,320 sampled words
    ])
    def test_table_caps_checked_before_any_order(self, monkeypatch, family, max_order, method):
        calls = []
        for name in ("limit_moment", "pairing_walk_moments", "word_volumes"):
            real = getattr(hmt.limits, name)
            monkeypatch.setattr(hmt.limits, name,
                                lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
        with pytest.raises(CapacityError):
            moment_table(family, max_order, method=method)
        assert calls == []

    @pytest.mark.parametrize("families, order, words, want", [
        (("toeplitz",), 20, False, (10, "exact")),
        (("hankel",), 16, False, (8, "exact")),
        (("hankel",), 14, False, (7, "exact")),
        (("toeplitz", "hankel"), 12, True, (6, "exact")),
        (("toeplitz", "hankel"), 14, True, (7, "mc")),
        (("markov",), 16, False, (8, "exact")),
    ])
    def test_auto_is_exact_up_to_the_exact_cap(self, families, order, words, want):
        assert check_request(families, order, "auto", 1, words=words) == want

    @pytest.mark.parametrize("family, order", [("toeplitz", 22), ("hankel", 18)])
    def test_auto_above_the_exact_cap_meets_the_word_cap(self, family, order):
        with pytest.raises(CapacityError, match="words, above the cap"):
            check_request((family,), order, "auto", 1)

    def test_word_tables_keep_their_own_exact_cap(self):
        assert WORDS_EXACT_K_CAP == 6
        with pytest.raises(CapacityError, match="word-table cap 6"):
            check_request(("toeplitz", "hankel"), 14, "exact", 1, words=True)
        # the same order as a moment runs exactly
        assert check_request(("toeplitz",), 14, "exact", 1) == (7, "exact")

    def test_exact_moments_enumerate_no_words(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an exact moment enumerated words")

        monkeypatch.setattr(hmt.limits, "word_volumes", refuse)
        monkeypatch.setattr(hmt.limits, "enumerate_words", refuse)
        assert limit_moment("hankel", 10) == F(2717, 36)
        assert moment_table("toeplitz", 10).entries[10] == 415


class TestMarkovSeriesRoute:
    """Markov moments come from the free-cumulant series, with no word work."""

    @pytest.fixture
    def no_word_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the markov moment route enumerated words")

        monkeypatch.setattr(hmt.limits, "enumerate_words", refuse)
        monkeypatch.setattr(hmt.limits, "height", refuse)
        monkeypatch.setattr(hmt.words, "height", refuse)

    def test_order_sixteen_without_words(self, no_word_work):
        table = moment_table("markov", 16)
        assert table.method == "exact"
        assert table.entries[16] == 7424703
        assert limit_moment("markov", 16) == 7424703
        assert limit_moment("markov", 16, method="mc") == 7424703

    def test_table_solves_the_series_once(self, no_word_work, monkeypatch):
        calls = []
        real = hmt.limits.cumulants_to_moments
        monkeypatch.setattr(
            hmt.limits, "cumulants_to_moments", lambda *a: calls.append(a) or real(*a)
        )
        table = moment_table("markov", 16)
        assert len(calls) == 1
        assert list(table.entries) == list(range(0, 17, 2))

    def test_caps_refused_before_any_series_work(self, no_word_work, monkeypatch):
        calls = []
        real = hmt.limits.free_cumulants
        monkeypatch.setattr(
            hmt.limits, "free_cumulants", lambda *a: calls.append(a) or real(*a)
        )
        with pytest.raises(CapacityError):
            moment_table("markov", MARKOV_ORDER_CAP + 2)
        with pytest.raises(CapacityError):
            limit_moment("markov", MARKOV_ORDER_CAP + 4)
        assert calls == []

    def test_orders_beyond_the_word_cap(self, no_word_work):
        # order 18 would need k = 9 words, above the enumeration cap of 8
        assert limit_moment("markov", 18) == 120340958
        table = moment_table("markov", MARKOV_ORDER_CAP)
        assert table.entries[18] == 120340958
        assert list(table.entries) == list(range(0, MARKOV_ORDER_CAP + 1, 2))


class TestReferenceMoments:
    def test_semicircle_fourth_is_two(self):
        # Catalan number, equivalently the count of noncrossing words
        count = sum(is_noncrossing(w) for w in enumerate_words(2))
        assert reference_moments("semicircle", 4) == count == 2

    def test_gaussian_sixth_is_fifteen(self):
        assert reference_moments("gaussian", 6) == 15

    def test_total_mass(self):
        assert reference_moments("semicircle", 0) == 1

    def test_gaussian_counts_all_words(self):
        for k in range(1, 7):
            assert reference_moments("gaussian", 2 * k) == len(enumerate_words(k))

    def test_rejects_unknown(self):
        with pytest.raises(InvalidArgumentError):
            reference_moments("markov", 2)

    @pytest.mark.parametrize("family", ["semicircle", "gaussian"])
    def test_table_rejects_an_unknown_method(self, family):
        # as limit_moment does; the known methods all give the formula table
        with pytest.raises(InvalidArgumentError):
            moment_table(family, 4, method="nope")
        assert moment_table(family, 4, method="mc").entries == moment_table(family, 4).entries


class TestCumulantConversions:
    def test_semicircle_cumulants_give_catalan(self):
        table = cumulants_to_moments(free_cumulants("semicircle", 12), 12)
        for k in range(7):
            assert table.entries[2 * k] == reference_moments("semicircle", 2 * k)

    def test_markov_fourth_moment_decomposition(self):
        c = free_cumulants("markov", 4)
        assert c.entries == {2: 2, 4: 1}
        table = cumulants_to_moments(c, 4)
        assert table.entries[4] == c.entries[4] + 2 * c.entries[2] ** 2 == 9

    def test_zero_cumulants_give_point_mass(self):
        c = CumulantTable("zero", {2: F(0), 4: F(0), 6: F(0)})
        table = cumulants_to_moments(c, 6)
        assert table.entries == {0: 1, 2: 0, 4: 0, 6: 0}

    def test_markov_cumulants_from_moments(self):
        moments = moment_table("markov", 8)
        c = moments_to_cumulants(moments, 8)
        assert c.entries[2] == 2
        for r in range(2, 5):
            semicircle = 1 if r == 1 else 0
            assert c.entries[2 * r] == semicircle + irreducible_count(r)

    def test_gaussian_cumulants_count_irreducible_words(self):
        moments = moment_table("gaussian", 12)
        c = moments_to_cumulants(moments, 12)
        for r in range(1, 7):
            want = sum(is_irreducible(w) for w in enumerate_words(r))
            assert c.entries[2 * r] == want

    def test_semicircle_cumulants_from_moments(self):
        c = moments_to_cumulants(moment_table("semicircle", 10), 10)
        assert c.entries == {2: 1, 4: 0, 6: 0, 8: 0, 10: 0}

    @pytest.mark.slow
    def test_roundtrip_through_order_twelve(self, order_twelve_tables):
        for family in ("toeplitz", "hankel", "markov"):
            table = order_twelve_tables[family]
            c = moments_to_cumulants(table, 12)
            back = cumulants_to_moments(c, 12)
            for order in range(0, 13, 2):
                assert back.entries[order] == table.entries[order], (family, order)

    def test_missing_entries_raise(self):
        with pytest.raises(InvalidArgumentError):
            cumulants_to_moments(CumulantTable("x", {2: F(1)}), 6)
        with pytest.raises(InvalidArgumentError):
            moments_to_cumulants(moment_table("markov", 4), 8)

    @staticmethod
    def a000699(n):
        """Irreducible pair partitions: a(1) = 1, a(m) = sum_k (2k-1) a(k) a(m-k)."""
        a = [0, 1]
        for m in range(2, n + 1):
            a.append(sum((2 * k - 1) * a[k] * a[m - k] for k in range(1, m)))
        return a

    def test_gaussian_cumulants_follow_a000699(self):
        a = self.a000699(20)
        c = free_cumulants("gaussian", 40)
        assert c.entries == {2 * r: a[r] for r in range(1, 21)}

    def test_markov_cumulants_beyond_the_word_cap(self):
        # order 18 needs k = 9 words, above the enumeration cap of 8
        a = self.a000699(9)
        c = free_cumulants("markov", 18)
        assert c.entries == {2 * r: (r == 1) + a[r] for r in range(1, 10)}

    def test_cumulant_sandwich(self):
        gauss = free_cumulants("gaussian", 8)
        markov = free_cumulants("markov", 8)
        for r in range(1, 5):
            assert gauss.entries[2 * r] <= markov.entries[2 * r] <= 2 * gauss.entries[2 * r]

    def test_moment_sandwich(self):
        gauss = cumulants_to_moments(free_cumulants("gaussian", 8), 8)
        markov = cumulants_to_moments(free_cumulants("markov", 8), 8)
        for r in range(1, 5):
            assert (
                gauss.entries[2 * r]
                <= markov.entries[2 * r]
                <= 4**r * gauss.entries[2 * r]
            )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6),
        min_size=1,
        max_size=12,
    )
)
def test_conversion_roundtrip_random_cumulants(values):
    entries = {2 * (i + 1): v for i, v in enumerate(values)}
    up_to = 2 * len(values)
    table = cumulants_to_moments(CumulantTable("random", entries), up_to)
    back = moments_to_cumulants(table, up_to)
    assert back.entries == entries


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestHankelMomentMatrix:
    def test_weighted_determinant(self):
        table = moment_table("hankel", 8)
        assert hankel_moment_matrix_det(table, 3, weighted=True) == F(-73, 20)

    def test_weighted_matches_cofactor_expansion(self):
        # the weighted matrix is [[1, 3, 10], [3, 10, 77/2], [10, 77/2, 843/5]]
        rows = [
            [F(1), F(3), F(10)],
            [F(3), F(10), F(77, 2)],
            [F(10), F(77, 2), F(843, 5)],
        ]
        assert det3(rows) == F(-73, 20)

    def test_unweighted_positive(self):
        table = moment_table("hankel", 8)
        det = hankel_moment_matrix_det(table, 3)
        rows = [
            [F(1), F(1), F(2)],
            [F(1), F(2), F(11, 2)],
            [F(2), F(11, 2), F(281, 15)],
        ]
        assert det == det3(rows) > 0

    def test_size_one(self):
        assert hankel_moment_matrix_det(moment_table("hankel", 0), 1) == 1

    def test_missing_moments(self):
        with pytest.raises(InvalidArgumentError):
            hankel_moment_matrix_det(moment_table("hankel", 4), 3)

    @pytest.mark.parametrize("n", [2.5, 0, "2"])
    def test_rejects_a_size_that_is_not_a_positive_integer(self, n):
        with pytest.raises(InvalidArgumentError):
            hankel_moment_matrix_det(moment_table("hankel", 4), n)

    @pytest.mark.slow
    @pytest.mark.parametrize("family", ["toeplitz", "hankel", "markov"])
    def test_positive_definite_through_n4(self, family, order_twelve_tables):
        # all leading principal minors positive: legitimate moment sequences
        table = order_twelve_tables[family]
        for n in range(1, 5):
            assert hankel_moment_matrix_det(table, n) > 0, (family, n)


    @pytest.mark.parametrize("family, sizes", [("toeplitz", 6), ("hankel", 5)])
    def test_positive_definite_through_the_exact_caps(self, family, sizes,
                                                      largest_exact_tables):
        # order 16 fixes the 5 x 5 matrix, order 20 the 6 x 6 one
        table = largest_exact_tables[family]
        for n in range(1, sizes + 1):
            assert hankel_moment_matrix_det(table, n) > 0, (family, n)


class TestRecordedMoments:
    """Live exact moments against values written down here."""

    ORDER_TWELVE = {"toeplitz": F(23840, 7), "hankel": F(1052, 3)}

    def test_order_ten_matches_live_recomputation(self):
        assert limit_moment("hankel", 10) == F(2717, 36)

    @pytest.mark.slow
    def test_toeplitz_order_ten_matches_live_recomputation(self):
        assert limit_moment("toeplitz", 10) == 415

    @pytest.mark.slow
    @pytest.mark.parametrize("family", ["toeplitz", "hankel"])
    def test_order_twelve_live_at_the_default_cap(self, family, order_twelve_tables):
        assert order_twelve_tables[family].entries[12] == self.ORDER_TWELVE[family]

    @pytest.mark.slow
    @pytest.mark.parametrize("family", ["toeplitz", "hankel"])
    def test_order_twelve_bracketed_by_monte_carlo(self, family):
        total, var = 0.0, 0.0
        for index, w in enumerate(enumerate_words(6)):
            est = volume_mc(build_system(w, family), 4000, mix(88, index))
            total += float(est.value)
            var += (est.stderr or 0.0) ** 2
        exact = float(self.ORDER_TWELVE[family])
        assert abs(total - exact) <= 5 * math.sqrt(var)

    @pytest.mark.parametrize("family, order, value", [
        ("toeplitz", 14, F(325719, 10)),
        ("hankel", 14, F(1331087, 720)),
        ("toeplitz", 16, F(112135066, 315)),
        ("hankel", 16, F(9179819, 840)),
        ("toeplitz", 18, F(3065263961, 700)),
        ("toeplitz", 20, F(69174280444, 1155)),
    ])
    def test_orders_above_twelve_from_the_pairing_walk_count(self, largest_exact_tables,
                                                             family, order, value):
        assert largest_exact_tables[family].entries[order] == value

    def test_unrecorded_order_raises(self):
        # one order above each family's exact cap
        for family, order in (("toeplitz", 22), ("hankel", 18)):
            with pytest.raises(CapacityError):
                moment_table(family, order)
