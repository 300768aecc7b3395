import cmath

import numpy as np
import pytest

from equichern.characters import (
    NEGATIVE,
    POSITIVE,
    CharacterSeries,
    WindowError,
    ahat_squared,
    ahat_squared_det_form,
    ahat_squared_series,
    geometric_expand,
    integrality_report,
    localized_index,
    monomial,
    series_from_csv,
    series_to_csv,
)


def geometric(window=(-64, 64)):
    return geometric_expand(1.0, 1, POSITIVE, window)


class TestSeriesArith:
    def test_telescoping_product(self):
        one_minus_t = CharacterSeries({0: 1.0, 1: -1.0})
        prod = one_minus_t * geometric()
        # 1 on the window: the truncation artifact falls outside
        for n in range(prod.window[0], prod.window[1] + 1):
            assert prod.coeff(n) == (1.0 if n == 0 else 0.0)

    def test_square_of_binomial(self):
        one_minus_t = CharacterSeries({0: 1.0, 1: -1.0})
        sq = one_minus_t * one_minus_t
        assert sq.coeff(0) == 1.0
        assert sq.coeff(1) == -2.0
        assert sq.coeff(2) == 1.0
        assert sq.coeff(3) == 0.0

    def test_additive_identity(self):
        a = CharacterSeries({2: 1.5, -3: 2j})
        zero = CharacterSeries({})
        assert a + zero == a

    def test_disjoint_windows_error(self):
        a = CharacterSeries({0: 1.0}, (0, 10))
        b = CharacterSeries({-5: 1.0}, (-20, -11))
        with pytest.raises(WindowError):
            a + b


class TestGeometricExpand:
    def test_positive_direction(self):
        g = geometric_expand(1.0, 1, POSITIVE, (-8, 8))
        assert all(g.coeff(n) == 1.0 for n in range(0, 9))
        assert all(g.coeff(n) == 0.0 for n in range(-8, 0))

    def test_final_index_series(self):
        # -t/(1-t) expands to minus the sum of all positive powers
        minus_t = monomial(1, -1.0, (-16, 16))
        s = minus_t * geometric_expand(1.0, 1, POSITIVE, (-16, 16))
        assert all(s.coeff(n) == -1.0 for n in range(1, 17))
        assert all(s.coeff(n) == 0.0 for n in range(-16, 1))

    def test_negative_direction_identity(self):
        # 1/(1-t) = -t^{-1}/(1-t^{-1}): all coefficients -1 on negative powers
        g = geometric_expand(1.0, 1, NEGATIVE, (-8, 8))
        assert all(g.coeff(-n) == -1.0 for n in range(1, 9))
        assert all(g.coeff(n) == 0.0 for n in range(0, 9))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            geometric_expand(1.0, 0, POSITIVE)

    def test_inverse_property(self):
        for c, m in ((1.0, 1), (0.5 + 0.1j, 2), (2.0, -1)):
            g = geometric_expand(c, m, POSITIVE, (-32, 32))
            lin = CharacterSeries({0: 1.0, m: -c}, (-32, 32))
            prod = g * lin
            for n in range(-16, 17):
                assert abs(prod.coeff(n) - (1.0 if n == 0 else 0.0)) < 1e-12

    def test_directions_differ(self):
        # negative control: the two expansions of one rational function are
        # distinct distributions, detectable on any finite window
        pos = geometric_expand(1.0, 1, POSITIVE, (-8, 8))
        neg = geometric_expand(1.0, 1, NEGATIVE, (-8, 8))
        assert pos != neg


class TestAhatSquared:
    def test_value_at_pi(self):
        # (i pi)^2 e^{i pi} / (1 - e^{i pi})^2 = pi^2 / 4
        got = ahat_squared(cmath.pi)
        assert abs(got - cmath.pi**2 / 4) < 1e-13

    def test_theta_to_zero_limit(self):
        # (i theta)^2 e^{i theta}/(1-e^{i theta})^2 -> 1
        for theta in (1e-2, 1e-3, 1e-4):
            assert abs(ahat_squared(theta) - 1.0) < 0.1 * theta + 1e-6

    def test_dual_evaluation(self):
        for theta in (cmath.pi / 2, 0.3, 2.7, 5.5, 1.0 + 0.5j):
            a = ahat_squared(theta)
            b = ahat_squared_det_form(theta)
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_pole_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ahat_squared(0.0)

    def test_array_matches_scalar_formula(self):
        # oracle: the replaced elementwise numpy evaluation of the same closed form
        thetas = np.concatenate([np.linspace(-20.0, -0.01, 500), np.linspace(0.01, 20.0, 500),
                                 np.linspace(0.1, 6.2, 50) + 0.5j])
        e = np.exp(1j * thetas)
        ref = (1j * thetas) ** 2 * e / (1.0 - e) ** 2
        got = np.array([ahat_squared(t) for t in thetas.tolist()])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-15

    def test_array_with_a_pole_rejected(self):
        # every pole 2 pi k, not only theta = 0, trips the guard
        for k in (-2, -1, 1, 2):
            with pytest.raises(ZeroDivisionError):
                ahat_squared(2 * cmath.pi * k)

    def test_series_form(self):
        series = ahat_squared_series((-16, 16))
        # e^{i theta}/(1-e^{i theta})^2 = sum n t^n
        for n in range(1, 17):
            assert series.coeff(n) == n
        assert series.coeff(0) == 0.0


class TestLocalizedIndex:
    def test_single_weight_geometric(self):
        out = localized_index(monomial(0, 1.0), [1], POSITIVE)
        assert all(out.coeff(n) == 1.0 for n in range(0, 65))

    def test_plane_index_series(self):
        out = localized_index(monomial(1, -1.0), [1], POSITIVE)
        for n in range(-64, 65):
            assert out.coeff(n) == (-1.0 if n >= 1 else 0.0)

    def test_double_weight(self):
        out = localized_index(monomial(0, 1.0), [1, 1], POSITIVE)
        for n in range(0, 33):
            assert out.coeff(n) == n + 1

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            localized_index(monomial(0, 1.0), [0], POSITIVE)

    def test_numerator_of_negative_degree_keeps_the_top_coefficients(self):
        # q^-1/(1 - q) = sum_{n >= -1} q^n: every coefficient up to the window's top
        out = localized_index(monomial(-1, 1.0, (-8, 8)), [1], POSITIVE)
        assert out.window == (-8, 8)
        assert [out.coeff(n) for n in range(-8, 9)] == [0.0] * 7 + [1.0] * 10
        # and in the other direction: q/(1 - q) = -sum_{n <= 0} q^n
        out = localized_index(monomial(1, 1.0, (-8, 8)), [1], NEGATIVE)
        assert [out.coeff(n) for n in range(-8, 9)] == [-1.0] * 9 + [0.0] * 8

    def test_linearity(self):
        a = monomial(1, -1.0)
        b = monomial(2, 0.5j)
        lhs = localized_index(a + b, [1], POSITIVE)
        rhs = localized_index(a, [1], POSITIVE) + localized_index(b, [1], POSITIVE)
        assert lhs == rhs


class TestIntegrality:
    def test_integral_series(self):
        s = localized_index(monomial(1, -1.0), [1], POSITIVE)
        assert integrality_report(s)["integral"]

    def test_violations_reported(self):
        s = CharacterSeries({0: 0.5, 1: 1.0})
        rep = integrality_report(s)
        assert not rep["integral"]
        assert "0" in rep["violations"]


class TestCsv:
    def test_round_trip(self):
        s = localized_index(monomial(1, -1.0), [1], POSITIVE).truncate((-4, 4))
        text = series_to_csv(s)
        assert text.splitlines()[0] == "n,re,im"
        back = series_from_csv(text)
        assert back.window == s.window
        for n in range(-4, 5):
            assert back.coeff(n) == s.coeff(n)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            series_from_csv("a,b,c\n1,2,3\n")
