from fractions import Fraction
from math import exp

import pytest

from indelkit.analysis import (coded_success_bounds, en1_1del_law,
                               lazy_1del_law, lazy_and_en_1del_analysis,
                               two_del_formulas, two_ins_formulas)


class TestTwoDelFormulas:
    def test_q2_values(self):
        f = two_del_formulas(2, 0.02, 450)
        assert f.p_run == pytest.approx(3 * 4e-4)
        assert f.p_alt == pytest.approx(2 * 4e-4)
        assert f.p_err_approx == pytest.approx(5 * 4e-4)
        assert f.p_fail_bound == pytest.approx(exp(-5 * 4e-4 * 450))

    def test_q4_values(self):
        f = two_del_formulas(4, 0.02, 450)
        assert f.p_err_approx == pytest.approx(11 / 3 * 4e-4)

    def test_vanishes_with_p(self):
        f = two_del_formulas(2, 1e-9, 100)
        assert f.p_run < 1e-17 and f.p_alt < 1e-17

    def test_domain(self):
        with pytest.raises(ValueError):
            two_del_formulas(1, 0.02, 100)
        with pytest.raises(ValueError):
            two_del_formulas(2, 0.0, 100)


class TestTwoInsFormulas:
    def test_q2_values(self):
        f = two_ins_formulas(2, 0.02, 500)
        assert f.p_err_approx == pytest.approx(2.5 * 4e-4)

    def test_del_ins_ratio_is_q(self):
        for q in (2, 3, 4, 7):
            for p in (0.005, 0.02, 0.05):
                d = two_del_formulas(q, p, 100)
                i = two_ins_formulas(q, p, 100)
                assert d.p_err_approx / i.p_err_approx == pytest.approx(q)

    def test_monotone_in_p(self):
        prev = 0.0
        for p in (0.01, 0.05, 0.1, 0.2, 0.4, 0.49):
            f = two_ins_formulas(2, p, 100)
            assert f.p_err_approx > prev
            prev = f.p_err_approx


class TestCodedBounds:
    def test_p_zero(self):
        b = coded_success_bounds(2, 0.0, 450)
        assert b == {"uncoded": 1.0, "vt": 1.0, "svt": 1.0}

    def test_ordering(self):
        for q in (2, 3):
            for p in (0.005, 0.02, 0.05):
                for n in (100, 450):
                    b = coded_success_bounds(q, p, n)
                    assert b["vt"] >= b["svt"] >= b["uncoded"]

    def test_exp_approximation_sanity(self):
        # exp bound stays within 1% of the product form while p^2 n <= 0.1
        for p, n in ((0.01, 450), (0.02, 250), (0.005, 400)):
            f = two_del_formulas(2, p, n)
            product_form = (1 - f.p_run) ** n * (1 - f.p_alt) ** n
            assert f.p_fail_bound == pytest.approx(product_form, rel=0.01)


class TestLazyEnAnalysis:
    def test_lazy_is_one_over_n(self):
        for n in (2, 10, 37):
            lazy, _ = lazy_and_en_1del_analysis(n)
            assert lazy == Fraction(1, n)

    def test_small_case(self):
        _, en_bound = lazy_and_en_1del_analysis(3)
        assert en_bound == Fraction(2, 9)  # tau(Sigma_2^3) = 2

    def test_en_bound_exceeds_lazy_from_17(self):
        for n in range(17, 26):
            lazy, en_bound = lazy_and_en_1del_analysis(n)
            assert en_bound > lazy


class TestOneDeletionLaws:
    def test_en_exceeds_lazy_beyond_two(self):
        assert en1_1del_law(2) == lazy_1del_law(2)
        for n in range(3, 64):
            assert en1_1del_law(n) > lazy_1del_law(n)

    def test_rejects_short_words(self):
        for law in (lazy_1del_law, en1_1del_law):
            with pytest.raises(ValueError):
                law(1)
