import cmath
import csv
import io
import random

import numpy as np
import pytest

from equichern.characters import (
    NEGATIVE,
    POSITIVE,
    CharacterSeries,
    WindowError,
    ahat_squared,
    integrality_report,
    localized_index,
    monomial,
    series_to_csv,
)


# -- oracles: the replaced routes ------------------------------------------------------

def geometric_expand(c, m, direction, window):
    """Expansion of 1/(1 - c t^m) in the requested power direction, on a window.

    Positive direction: sum_k c^k t^{km}.  Negative direction uses
    1/(1 - c t^m) = -c^{-1} t^{-m} / (1 - c^{-1} t^{-m}).
    """
    lo, hi = window
    if direction == POSITIVE:
        last = (hi if m > 0 else -lo) // abs(m)
        out = {k * m: c**k for k in range(last + 1)}
    else:
        last = (-lo if m > 0 else hi) // abs(m)
        out = {-k * m: -(1.0 / c) ** k for k in range(1, last + 1)}
    return CharacterSeries(out, window)


def cauchy_product(a, b):
    """Product over the stored supports, in their dict order, on the intersection window."""
    lo, hi = max(a.window[0], b.window[0]), min(a.window[1], b.window[1])
    out = {}
    for n, c in a.coefficients.items():
        for m, d in b.coefficients.items():
            if lo <= n + m <= hi:
                out[n + m] = out.get(n + m, 0) + c * d
    return CharacterSeries(out, (lo, hi))


def localized_index_by_products(numerator, normal_weights, direction):
    """The quotient as products with geometric expansions on widened windows.

    Each expansion runs on the numerator's window widened by the span of the
    product so far beyond degree 0, so that a numerator term of any degree
    meets every term of the expansion that lands in the window.
    """
    out = numerator
    lo, hi = numerator.window
    for w in normal_weights:
        degrees = [0, *out.coefficients]
        wide = (lo - max(degrees), hi - min(degrees))
        out = cauchy_product(out, geometric_expand(1.0, w, direction, wide))
    return out


def ahat_squared_det_form(theta):
    """The squared A-hat factor via the determinant shape ((x/2)/sinh(x/2))^2, x = i theta."""
    x = 1j * theta / 2.0
    return (x / cmath.sinh(x)) ** 2


def ahat_squared_series(window):
    """e^{i theta}/(1 - e^{i theta})^2, ahat_squared without (i theta)^2, as a series."""
    return localized_index(monomial(1, 1.0, window), [1, 1], POSITIVE)


def drawn_value(rng):
    """A complex coefficient whose parts are Gaussian, small integers or -0.0."""
    def part():
        return rng.choice((rng.gauss(0.0, 1.0), float(rng.randint(-3, 3)), -0.0))
    return complex(part(), part())


WEIGHTS = (-4, -3, -2, -1, 1, 2, 3, 4)


class TestSeriesWindow:
    def test_empty_window_rejected(self):
        with pytest.raises(WindowError):
            CharacterSeries({0: 1.0}, (1, 0))

    def test_coefficient_outside_the_window_rejected(self):
        s = CharacterSeries({0: 1.0}, (-2, 2))
        assert s.coeff(2) == 0.0
        with pytest.raises(WindowError):
            s.coeff(3)


class TestSeriesArith:
    def test_telescoping_product(self):
        # (1 - t)/(1 - t) is exactly 1 on the whole window, its edges included
        out = localized_index(CharacterSeries({0: 1.0, 1: -1.0}), [1], POSITIVE)
        for n in range(out.window[0], out.window[1] + 1):
            assert out.coeff(n) == (1.0 if n == 0 else 0.0)


class TestGeometricExpand:
    """The expansions of 1/(1 - t^m), as the quotient of the numerator 1."""

    def test_positive_direction(self):
        g = localized_index(monomial(0, 1.0, (-8, 8)), [1], POSITIVE)
        assert all(g.coeff(n) == 1.0 for n in range(0, 9))
        assert all(g.coeff(n) == 0.0 for n in range(-8, 0))

    def test_final_index_series(self):
        # -t/(1-t) expands to minus the sum of all positive powers
        s = localized_index(monomial(1, -1.0, (-16, 16)), [1], POSITIVE)
        assert all(s.coeff(n) == -1.0 for n in range(1, 17))
        assert all(s.coeff(n) == 0.0 for n in range(-16, 1))

    def test_negative_direction_identity(self):
        # 1/(1-t) = -t^{-1}/(1-t^{-1}): all coefficients -1 on negative powers
        g = localized_index(monomial(0, 1.0, (-8, 8)), [1], NEGATIVE)
        assert all(g.coeff(-n) == -1.0 for n in range(1, 9))
        assert all(g.coeff(n) == 0.0 for n in range(0, 9))

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            localized_index(monomial(0, 1.0), [0], NEGATIVE)

    def test_inverse_property(self):
        # (1 - t^m) over its expansion is 1, for either sign of m, in either direction
        for m in (1, 2, -1):
            for direction in (POSITIVE, NEGATIVE):
                out = localized_index(CharacterSeries({0: 1.0, m: -1.0}, (-32, 32)), [m],
                                      direction)
                for n in range(-32, 33):
                    assert out.coeff(n) == (1.0 if n == 0 else 0.0)

    def test_directions_differ(self):
        # negative control: the two expansions of one rational function are
        # distinct distributions, detectable on any finite window
        pos = localized_index(monomial(0, 1.0, (-8, 8)), [1], POSITIVE)
        neg = localized_index(monomial(0, 1.0, (-8, 8)), [1], NEGATIVE)
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
        # summed where |t| < 1, the series is ahat_squared without (i theta)^2
        theta = 1.0 + 2.0j
        t = cmath.exp(1j * theta)
        total = sum(c * t**n for n, c in ahat_squared_series((-64, 64)).coefficients.items())
        assert abs(total - ahat_squared(theta) / (1j * theta) ** 2) < 1e-15


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

    def test_unknown_direction_rejected(self):
        # also with no weights, where no expansion would read the direction
        for weights in ([], [1]):
            with pytest.raises(ValueError, match="unknown direction"):
                localized_index(monomial(0, 1.0), weights, "bogus")

    def test_numerator_of_negative_degree_keeps_the_top_coefficients(self):
        # q^-1/(1 - q) = sum_{n >= -1} q^n: every coefficient up to the window's top
        out = localized_index(monomial(-1, 1.0, (-8, 8)), [1], POSITIVE)
        assert out.window == (-8, 8)
        assert [out.coeff(n) for n in range(-8, 9)] == [0.0] * 7 + [1.0] * 10
        # and in the other direction: q/(1 - q) = -sum_{n <= 0} q^n
        out = localized_index(monomial(1, 1.0, (-8, 8)), [1], NEGATIVE)
        assert [out.coeff(n) for n in range(-8, 9)] == [-1.0] * 9 + [0.0] * 8

    def test_linearity(self):
        both = localized_index(CharacterSeries({1: -1.0, 2: 0.5j}), [1], POSITIVE)
        a = localized_index(monomial(1, -1.0), [1], POSITIVE)
        b = localized_index(monomial(2, 0.5j), [1], POSITIVE)
        for n in range(-64, 65):
            assert both.coeff(n) == a.coeff(n) + b.coeff(n)


class TestDrawnAgainstProducts:
    """The recurrence against the product route, on derandomized draws."""

    def test_index_shaped_numerators_match_bit_for_bit(self):
        # as index_character divides: q^-a N, N of degree <= 4 stored in ascending
        # order, by 1 - q^m, expanded in positive powers of q
        rng = random.Random(0)
        for _ in range(200):
            m, a, top = rng.choice(WEIGHTS), rng.randint(-4, 4), rng.randint(0, 24)
            numerator = CharacterSeries({n - a: drawn_value(rng) for n in range(-4, 5)},
                                        (min(-top, -4 - a), top))
            direction = POSITIVE if m > 0 else NEGATIVE
            got = localized_index(numerator, [m], direction)
            want = localized_index_by_products(numerator, [m], direction)
            assert got.window == want.window
            assert ({n: repr(c) for n, c in got.coefficients.items()}
                    == {n: repr(c) for n, c in want.coefficients.items()})

    def test_general_numerators_match_to_rounding(self):
        # degrees stored in drawn order, one or two weights, either direction: the
        # products sum in the numerator's dict order, so only the rounding differs
        rng = random.Random(1)
        for _ in range(200):
            lo, hi = rng.randint(-12, 0), rng.randint(0, 12)
            numerator = CharacterSeries({rng.randint(lo, hi): drawn_value(rng)
                                         for _ in range(rng.randint(1, 9))}, (lo, hi))
            weights = [rng.choice(WEIGHTS) for _ in range(rng.randint(1, 2))]
            direction = rng.choice((POSITIVE, NEGATIVE))
            got = localized_index(numerator, weights, direction)
            want = localized_index_by_products(numerator, weights, direction)
            scale = sum(abs(c) for c in numerator.coefficients.values())
            assert got.window == want.window
            for n in range(lo, hi + 1):
                assert abs(got.coeff(n) - want.coeff(n)) <= 1e-13 * scale


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
        rows = list(csv.reader(io.StringIO(series_to_csv(s))))
        assert rows[0] == ["n", "re", "im"]
        assert [int(n) for n, _, _ in rows[1:]] == list(range(-4, 5))
        back = CharacterSeries({int(n): complex(float(re), float(im))
                                for n, re, im in rows[1:]}, (-4, 4))
        assert back == s
