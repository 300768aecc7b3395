import cmath
import itertools
import math
import statistics
import warnings

import numpy as np
import pytest

from equichern import augmentation, geometry, pairing, quadrature
from equichern.augmentation import c_plane_uv
from equichern.characters import ahat_squared, integrality_report, series_to_csv
from equichern.equivariant import PoleGuardError, chern_plan, transverse_chern, w_character
from equichern.exterior import Poly
from equichern.geometry import (
    COMPLEX,
    REAL,
    ActionModel,
    BundleSpec,
    Coordinate,
    orientation_sign,
    oriented_volume_coefficient,
)
from equichern.homotopy import c_plane
from equichern.pairing import (
    TEST_FUNCTIONS,
    delta_pairing,
    gauss_legendre,
    gaussian_test,
    richardson_extrapolate,
    shifted_gaussian_test,
    zero_op_s1,
)
from equichern.quadrature import (
    AliasError,
    DivergenceError,
    fit_fourier,
    gaussian_integral,
    index_character,
    integrate_top_form,
    _index_numerator,
)
from equichern.supermatrix import SuperMatrix, UnsupportedShapeError

from conftest import weighted_plane_uv

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # declared in the test extra, but skip where it is absent
    hypothesis = None
needs_hypothesis = pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")


def golden_index(theta):
    return -cmath.exp(1j * theta) / (1 - cmath.exp(1j * theta))


def _pairs(model):
    return [(c.name, model.algebra.conjugates[c.name])
            for c in model.coordinates_meta if c.kind == COMPLEX]


def gauss_hermite_integral(model, poly, exponent, order=16):
    """Independent oracle: poly * e^exponent on a tensor Gauss-Hermite grid.

    Each complex pair z = x + iy spans two real dimensions whose weight
    exp(-s (x^2 + y^2)) is taken from the z zbar coefficient of the exponent;
    any remaining part of the exponent is evaluated on the grid.
    """
    pairs = _pairs(model)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    grids = [g.ravel() for g in np.meshgrid(*[nodes] * (2 * len(pairs)), indexing="ij")]
    wgrid = np.ones(1)
    for _ in range(2 * len(pairs)):
        wgrid = np.multiply.outer(wgrid, weights).ravel()
    arrays, gaussian = {}, np.zeros(len(wgrid))
    idx = model.algebra.coord_index
    for k, (a, b) in enumerate(pairs):
        m = [0] * len(model.algebra.coordinates)
        m[idx[a]] = m[idx[b]] = 1
        s = -exponent.terms[tuple(m)].real
        z = (grids[2 * k] + 1j * grids[2 * k + 1]) / math.sqrt(s)
        arrays[a], arrays[b] = z, z.conj()
        gaussian -= s * np.abs(z) ** 2
        wgrid = wgrid / s
    vals = poly.eval_grid(arrays) * np.exp(exponent.eval_grid(arrays) - gaussian)
    return complex(np.dot(wgrid, vals))


def gauss_hermite_index(model, theta):
    """The index density with the fiber integral done by the oracle grid."""
    total = transverse_chern(model, theta).scale(ahat_squared(theta))
    top = oriented_volume_coefficient(model, total.form)
    return (gauss_hermite_integral(model, top, total.exponent)
            / math.pi ** len(_pairs(model)))


def mixed_model():
    """One complex pair plus a real coordinate that carries no Gaussian."""
    coords = (Coordinate("u", COMPLEX, 1, "base"), Coordinate("x", REAL, 0, "fiber"))
    return ActionModel("mixed", coords, BundleSpec((0,), (0,)))


class TestIntegrateTopForm:
    def test_half_at_pi(self):
        got = integrate_top_form(c_plane_uv(), math.pi)
        assert abs(got - 0.5) < 1e-6

    def test_quarter_turn(self):
        got = integrate_top_form(c_plane_uv(), math.pi / 2)
        assert abs(got - golden_index(math.pi / 2)) < 1e-6

    def test_oscillatory_model_diverges(self):
        with pytest.raises(DivergenceError, match="delta_pairing"):
            integrate_top_form(zero_op_s1(), 0.8)

    @pytest.mark.parametrize("model", [c_plane_uv, c_plane])
    def test_exact_moments_match_gauss_hermite(self, model):
        # the order-16 grid integrates these low-degree coefficients exactly
        m = model()
        for theta in (0.3, 1.3, math.pi, 2 + 1j, 5.9 + 1j):
            exact = integrate_top_form(m, theta)
            assert abs(exact - gauss_hermite_index(m, theta)) < 1e-12
            assert abs(exact - golden_index(theta)) < 1e-12


class TestGaussianMoments:
    def _poly(self, model, **powers):
        alg = model.algebra
        m = [0] * len(alg.coordinates)
        for name, e in powers.items():
            m[alg.coord_index[name]] = e
        return Poly(alg, {tuple(m): 1.0})

    def _exponent(self, model, su=1.0, sv=1.0):
        alg = model.algebra
        u, ub, v, vb = (alg.coord(c) for c in ("u", "ubar", "v", "vbar"))
        return -su * (u * ub) - sv * (v * vb)

    def test_unequal_powers_vanish(self):
        model = c_plane_uv()
        exponent = self._exponent(model, 2.0, 0.5)
        for powers in ({"u": 1}, {"u": 2, "ubar": 1}, {"u": 1, "vbar": 1},
                       {"u": 3, "ubar": 3, "v": 2, "vbar": 1}):
            assert gaussian_integral(model, self._poly(model, **powers), exponent) == 0

    def test_high_moment(self):
        # |u|^20 e^{-|u|^2-|v|^2} integrates to pi^2 10!
        model = c_plane_uv()
        got = gaussian_integral(model, self._poly(model, u=10, ubar=10),
                                self._exponent(model))
        want = math.pi**2 * math.factorial(10)
        assert abs(got - want) < 1e-12 * want

    def test_random_polynomial_matches_gauss_hermite(self):
        model = c_plane_uv()
        rng = np.random.default_rng(3)
        terms = {tuple(rng.integers(0, 4, size=4)):
                 complex(rng.standard_normal(), rng.standard_normal())
                 for _ in range(40)}
        terms.update({(k, k, j, j): 1.0 for k in range(4) for j in range(4)})
        poly = Poly(model.algebra, terms)
        exponent = self._exponent(model, 2.0, 0.5)
        exact = gaussian_integral(model, poly, exponent)
        oracle = gauss_hermite_integral(model, poly, exponent)
        assert abs(exact - oracle) < 1e-12 * abs(exact)

    def test_unpaired_coordinate_diverges(self):
        model = mixed_model()
        alg = model.algebra
        u, ub, x = alg.coord("u"), alg.coord("ubar"), alg.coord("x")
        with pytest.raises(DivergenceError, match="delta_pairing"):
            gaussian_integral(model, x * u * ub, -1.0 * (u * ub))


def plane_uv_with_w(even, odd):
    """c-plane-uv with W summands of the given even and odd weights."""
    coords = (Coordinate("u", COMPLEX, 1, "base"), Coordinate("v", COMPLEX, 1, "fiber"))
    m = ActionModel("c-plane-uv-w", coords, BundleSpec((0, 1), (0, 1)),
                    BundleSpec((even, odd), (0, 1)))
    alg = m.algebra
    zero = alg.zero()
    m.set_symbol([[zero, alg.scalar(alg.coord("ubar"))], [alg.scalar(alg.coord("u")), zero]])
    m.set_odd_term(augmentation.augment_by_clifford(m, alg.coord("v")).scale(1j))
    return m


def direct_index(model, plan, thetas):
    """The index density N / ch_W at each theta, straight from the plan."""
    thetas = thetas.tolist()
    return (np.array(_index_numerator(model, plan, thetas))
            / np.array([w_character(model, t) for t in thetas]))


class TestIndexCharacter:
    def test_values_and_fourier(self):
        report = index_character(c_plane_uv(), theta_samples=16, fourier_window=16)
        for t, v in zip(report.theta_samples, report.values):
            assert abs(v - golden_index(t.real)) < 1e-6
        for n in range(-16, 17):
            target = -1.0 if n >= 1 else 0.0
            assert abs(report.fourier.coeff(n) - target) < 1e-4
        # the fitted numerator terms of degree 5..7 bound its aliasing error
        assert report.diagnostics["numerator_alias_bound"] < 1e-12

    def test_conjugate_symmetry(self):
        report = index_character(c_plane_uv(), theta_samples=16, fourier_window=4)
        assert report.diagnostics["conjugate_symmetry_deviation"] < 1e-6

    def test_report_serialization(self):
        report = index_character(c_plane_uv(), theta_samples=4, fourier_window=2)
        doc = report.to_dict()
        assert doc["fourier"]["window"] == [-2, 2]
        assert len(doc["values"]) == 4

    def test_report_writes_the_whole_window(self):
        # the series is exactly zero below the numerator's lowest degree
        report = index_character(c_plane_uv(), theta_samples=4, fourier_window=24)
        assert report.fourier.coeff(-24) == 0
        coeffs = report.to_dict()["fourier"]["coefficients"]
        assert list(coeffs) == [str(n) for n in range(-24, 25)]
        rows = series_to_csv(report.fourier).splitlines()[1:]
        assert [[float(x) for x in row.split(",")[1:]] for row in rows] == list(coeffs.values())

    @pytest.mark.parametrize("even, odd", [(0, 1), (1, 0), (0, -1), (2, 1), (0, 2)])
    def test_direct_density_oracles(self, even, odd):
        # both expansion directions: W = q^a (1 - q^m) with m of either sign
        m = plane_uv_with_w(even, odd)
        report = index_character(m, theta_samples=64, fourier_window=40)
        plan = chern_plan(m)
        thetas = np.array(report.theta_samples).real
        far = np.minimum(thetas, 2 * math.pi - thetas) >= math.pi / 8
        direct = direct_index(m, plan, thetas[far])
        assert np.abs(np.array(report.values)[far] - direct).max() < 1e-12
        # the positive-power series, summed on Im theta = 1 where it converges
        contour = 2 * math.pi * (np.arange(16) + 0.5) / 16 + 1j
        ns = np.arange(-40, 41)
        abel = np.exp(1j * np.outer(contour, ns)) @ [report.fourier.coeff(int(n)) for n in ns]
        assert np.abs(abel - direct_index(m, plan, contour)).max() < 1e-11

    @pytest.mark.parametrize("even, odd", [(0, 1), (1, 0), (0, -1), (2, 1), (0, 2)])
    def test_w_character_closed_form(self, even, odd):
        # oracle: ch_W = q^a (1 - q^m) = -2i sin(m theta/2) e^{i (a + m/2) theta}
        m = odd - even
        thetas = 2 * math.pi * (np.arange(64) + 0.5) / 64
        closed = -2j * np.sin(m * thetas / 2) * np.exp(1j * (even + m / 2) * thetas)
        model = plane_uv_with_w(even, odd)
        got = np.array([w_character(model, t) for t in thetas.tolist()])
        assert np.max(np.abs(got - closed) / np.abs(closed)) < 2e-15

    def test_values_next_to_q_equal_one(self):
        # the first and last of 4096 samples sit 7.7e-4 from theta = 0
        report = index_character(c_plane_uv(), theta_samples=4096, fourier_window=2)
        assert max(abs(v - golden_index(t.real))
                   for t, v in zip(report.theta_samples, report.values)) < 6e-11

    def test_undeclared_degree_is_an_alias_error(self, monkeypatch):
        # the numerator is -q: fitting degree 0 leaves |c_1| = 1 outside the span
        monkeypatch.setattr(quadrature, "NUMERATOR_DEGREE", 0)
        with pytest.raises(AliasError, match="degree above 0"):
            index_character(c_plane_uv(), theta_samples=4, fourier_window=2)

    def test_w_pole_on_the_value_grid(self):
        # W = 1 - q^2 vanishes at theta = pi, the middle of three samples
        with pytest.raises(PoleGuardError):
            index_character(plane_uv_with_w(0, 2), theta_samples=3, fourier_window=2)

    def test_w_needs_one_even_and_one_odd_summand(self):
        with pytest.raises(UnsupportedShapeError, match="one even and one odd"):
            index_character(zero_op_s1())


class TestWeightedAction:
    """Weight m: the circle acts through its m-fold cover, chi_m(q) = chi_1(q^m)."""

    # up to the largest weights that NUMERATOR_DEGREE = 4 admits
    @pytest.mark.parametrize("m", [1, -1, 2, -2, 3, -3, 4, -4])
    def test_values_and_integral_fourier(self, m):
        # at |m| = 4 the divided-difference nodes spread past SERIES_SPREAD,
        # where the squared divided differences read 1.7e-14 and 5.8e-15 (the
        # mean-shifted series read 5.8e-13 and 1.9e-13)
        wide = abs(m) == 4
        report = index_character(weighted_plane_uv(m), theta_samples=32, fourier_window=12)
        for t, v in zip(report.theta_samples, report.values):
            q = cmath.exp(1j * m * t.real)
            want = -q / (1 - q)
            assert abs(v - want) < (5e-14 * abs(want) if wide else 1e-10)
        assert integrality_report(report.fourier)["integral"]
        # in positive powers: -1 at every positive multiple of m for m > 0, and
        # -q^m/(1 - q^m) = 1/(1 - q^|m|), 1 at every non-negative one, for m < 0
        for n in range(-12, 13):
            want = (-1.0 if n > 0 else 0.0) if m > 0 else (1.0 if n >= 0 else 0.0)
            err = abs(report.fourier.coeff(n) - (want if n % m == 0 else 0.0))
            assert err < (5e-14 if wide else 1e-9)

    def test_numerator_above_the_degree_bound_is_refused(self):
        # the numerator is -q^5, of degree above NUMERATOR_DEGREE = 4
        with pytest.raises(AliasError, match="degree above 4"):
            index_character(weighted_plane_uv(5), theta_samples=8, fourier_window=4)


class TestQuadratureInvariants:
    def test_coordinate_route_independence(self):
        # the shear has jacobian 1: forms transform covariantly, so both
        # coordinate routes give the index directly
        for theta in (1.0, 2.2, math.pi):
            a = integrate_top_form(c_plane_uv(), theta)
            b = integrate_top_form(c_plane(), theta)
            assert abs(a - b) < 1e-6

    def test_orientation_signs(self):
        assert orientation_sign(c_plane_uv()) == -1
        assert orientation_sign(zero_op_s1()) == 1

    def test_prefactor_cancellation_near_zero(self):
        # A-hat squared times the Chern top term stays bounded as theta -> 0
        from equichern.equivariant import symbolic_chern

        model = c_plane_uv()
        vals = []
        for k in range(7):
            theta = 0.1 * 2.0**-k
            gf = symbolic_chern(model, theta).scale(ahat_squared(theta))
            top = oriented_volume_coefficient(model, gf.form).constant_value()
            vals.append(abs(top))
        assert max(vals) < 10.0


class TestFitFourier:
    def test_exact_recovery_on_clean_data(self):
        rng = np.random.default_rng(5)
        coeffs = {n: complex(rng.standard_normal(), rng.standard_normal())
                  for n in range(-3, 4)}
        thetas = 2 * math.pi * (np.arange(32) + 0.5) / 32
        values = sum(c * np.exp(1j * n * thetas) for n, c in coeffs.items())
        fitted = fit_fourier(thetas, values, 3)
        for n, c in coeffs.items():
            assert abs(fitted.coeff(n) - c) < 1e-12

    def test_damped_contour_conditioning(self):
        thetas = 2 * math.pi * (np.arange(64) + 0.5) / 64 + 1j
        values = np.exp(1j * 2 * thetas) - 0.5 * np.exp(-1j * thetas)
        fitted = fit_fourier(thetas, values, 4)
        assert abs(fitted.coeff(2) - 1.0) < 1e-10
        assert abs(fitted.coeff(-1) + 0.5) < 1e-10


def lstsq_fourier(thetas, values, window):
    """Reference fit: least squares against e^{i n theta} with equilibrated columns."""
    ns = np.arange(-window, window + 1)
    design = np.exp(1j * np.outer(np.asarray(thetas, dtype=complex), ns))
    col_norm = np.linalg.norm(design, axis=0)
    coeffs, *_ = np.linalg.lstsq(design / col_norm, values, rcond=None)
    return dict(zip(ns.tolist(), coeffs / col_norm))


class TestFourierOracle:
    @pytest.mark.parametrize("window", [0, 4, 8, 12, 16, 24])
    def test_dft_is_the_least_squares_fit(self, window):
        # on a uniform contour with 2W+1 <= N both fits are the same
        # projection.  Both solve for the contour coefficients c_n e^{-n eta},
        # compared here before the undamping e^{n eta} (up to e^24) magnifies
        # the roundoff of either fit.
        eta = 1.0
        thetas = 2 * math.pi * (np.arange(128) + 0.5) / 128 + 1j * eta
        golden = np.array([golden_index(t) for t in thetas])
        noise = [1, 1j] @ np.random.default_rng(11).standard_normal((2, 128))
        for values in (golden, noise):
            dft = fit_fourier(thetas, values, window)
            for n, c in lstsq_fourier(thetas, values, window).items():
                assert abs(dft.coeff(n) - c) * math.exp(-n * eta) < 1e-13

    @pytest.mark.parametrize("n_samples, window", [(16, 7), (32, 12), (128, 24), (129, 64)])
    def test_direct_dft_is_the_numpy_fft(self, n_samples, window):
        # oracle: the replaced np.fft route, on the shifted fit grid of the
        # index numerator, a real grid and a damped contour; compared before
        # the undamping e^{n eta}
        rng = np.random.default_rng(n_samples)
        ns = np.arange(-window, window + 1)
        for x0, eta in ((math.pi / n_samples - math.pi, 0.0), (0.0, 0.0), (0.3, 1.0)):
            thetas = x0 + 2 * math.pi * np.arange(n_samples) / n_samples + 1j * eta
            values = [1, 1j] @ rng.standard_normal((2, n_samples))
            want = np.fft.fft(values)[ns % n_samples] / n_samples * np.exp(-1j * ns * thetas[0])
            got = fit_fourier(thetas, values, window)
            for n, w in zip(ns.tolist(), want):
                assert abs(got.coeff(n) - w) * math.exp(-n * eta) < 1e-15

    def test_rejects_non_uniform_contour(self):
        thetas = 2 * math.pi * (np.arange(32) + 0.5) / 32
        with pytest.raises(ValueError, match="uniform"):
            fit_fourier(thetas ** 1.01, np.ones(32), 4)
        with pytest.raises(ValueError, match="window"):
            fit_fourier(thetas, np.ones(32), 16)


# The regularization eps values the benchmark's pairing workload draws from.
EPS_POOL = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5)


# The cosine-kernel route the pairing took before it integrated xi in closed
# form, kept as its oracle beside its numpy twin: panel Gauss-Legendre rules
# over (X, xi), the xi rule folded onto xi > 0 with doubled weights (the rate
# is purely imaginary), and the kernel cos(Im r(X) xi).  The numpy twin builds
# its rule from the eigenvalues of the Jacobi matrix and applies the kernel by
# one matrix-vector product per eps.  The X rule spans |X| <= X_HALFWIDTH.
X_PANELS, XI_HALFWIDTH, XI_PANELS = 48, 14.0, 32


def oscillatory_density(model, xn):
    """Density over the W character, and Im r, at every X node."""
    plan = chern_plan(model)
    tops, (a0, a1) = pairing._oscillatory_density(model, plan)
    density = [t / w_character(model, x) for t, x in zip(plan.contract(tops, xn), xn)]
    return density, [a0 + a1 * x for x in xn]


def cosine_kernel_values(model, test_fn, eps):
    """Per-eps pairing values of the folded cosine kernel, in plain Python.

    The kernel is summed over X once, to
    g(xi) = sum_X w_X test(X) density(X) cos(Im r(X) xi), and each eps value is
    one sum over xi of w_xi e^{-eps xi^2} g(xi).
    """
    xn, xw = pairing._panel_gauss_legendre(-pairing.X_HALFWIDTH, pairing.X_HALFWIDTH,
                                           X_PANELS)
    qn, qw = pairing._panel_gauss_legendre(0.0, XI_HALFWIDTH, XI_PANELS // 2)
    density, freqs = oscillatory_density(model, xn)
    weighted = [w * test_fn(x) * t for w, x, t in zip(xw, xn, density)]
    g = [sum(v * math.cos(f * q) for v, f in zip(weighted, freqs)) for q in qn]
    values = []
    for e in eps:
        terms = [2 * w * math.exp(-e * q * q) * v for w, q, v in zip(qw, qn, g)]
        total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        # one angle coordinate: volume 2 pi, over 2 pi i and 2 pi
        values.append(total / (2j * math.pi))
    return values


def numpy_gauss_legendre(n):
    """Gauss-Legendre rule: Jacobi eigenvalues, one Newton step, symmetrized."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4 * k * k - 1), -1))

    def legendre(x):  # P_n(x) and P_n'(x) by the three-term recurrence
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / (1 - x * x)

    p, dp = legendre(x)
    x = x - p / dp
    dp = legendre(x)[1]
    w = 2 / ((1 - x * x) * dp * dp)
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2 / w.sum())


def numpy_panel_gauss_legendre(lo, hi, panels):
    x, w = numpy_gauss_legendre(pairing.PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


def numpy_delta_values(model, test_fn, eps):
    """Per-eps pairing values of the numpy cosine kernel, one matmul per eps."""
    xn, xw = numpy_panel_gauss_legendre(-pairing.X_HALFWIDTH, pairing.X_HALFWIDTH, X_PANELS)
    qn, qw = numpy_panel_gauss_legendre(0.0, XI_HALFWIDTH, XI_PANELS // 2)
    qw = 2 * qw
    density, freqs = map(np.asarray, oscillatory_density(model, xn.tolist()))
    test_vals = np.array([test_fn(x) for x in xn], dtype=complex)
    kernel = np.cos(np.outer(freqs, qn))  # (X, xi > 0)
    # one angle coordinate: volume 2 pi, over 2 pi i and 2 pi
    return [complex(np.dot(xw, test_vals * density * (kernel @ (qw * np.exp(-e * qn**2))))
                    / (2j * math.pi)) for e in eps]


def interpolate_at_zero(xs, ys):
    """Value at 0 of the polynomial through (xs, ys), by Lagrange's formula."""
    total = 0.0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        weight = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                weight *= xj / (xj - xi)
        total += weight * yi
    return total


class TestDeltaPairing:
    def test_gaussian_oracle(self):
        # closed form of the regularized double integral: 1/sqrt(1 + 4 eps)
        report = delta_pairing(zero_op_s1(), gaussian_test, [1e-3])
        oracle = 1.0 / math.sqrt(1 + 4e-3)
        assert abs(report.values[0] - oracle) < 1e-10
        assert abs(report.values[0] - 1.0) < 0.02

    def test_extrapolation_to_test_at_zero(self):
        report = delta_pairing(zero_op_s1(), gaussian_test, [1e-2, 1e-3, 1e-4])
        assert abs(report.extrapolated - 1.0) < 1e-4

    def test_zero_test_function(self):
        report = delta_pairing(zero_op_s1(), lambda x: 0.0 * np.asarray(x),
                               [1e-2, 1e-3])
        assert all(abs(v) < 1e-15 for v in report.values)

    def test_shifted_gaussian(self):
        report = delta_pairing(zero_op_s1(), shifted_gaussian_test,
                               [1e-2, 1e-3, 1e-4])
        assert abs(report.extrapolated - math.exp(-1.0)) < 1e-4

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            delta_pairing(zero_op_s1(), gaussian_test, [1e-2, 0.0])

    @pytest.mark.parametrize("eps, message", [([1e-3, 1e-3], "distinct"),
                                              ([], "no regularization")])
    def test_repeated_or_missing_eps_rejected(self, eps, message):
        # the extrapolation once divided by zero or read an empty list
        with pytest.raises(ValueError, match=message):
            delta_pairing(zero_op_s1(), gaussian_test, eps)

    def test_registry(self):
        assert "gaussian" in TEST_FUNCTIONS

    @pytest.mark.parametrize("test_fn", [gaussian_test, shifted_gaussian_test])
    def test_folded_kernel_matches_the_full_grid(self, test_fn):
        # Oracle: the complex e^{r xi} on the whole symmetric xi rule, against
        # the real cosine kernel on its positive half and against the
        # closed-form xi integral of delta_pairing.
        model = zero_op_s1()
        xn, xw = pairing._panel_gauss_legendre(-pairing.X_HALFWIDTH, pairing.X_HALFWIDTH,
                                               X_PANELS)
        qn, qw = pairing._panel_gauss_legendre(-XI_HALFWIDTH, XI_HALFWIDTH, XI_PANELS)
        density, freqs = oscillatory_density(model, xn)
        xn, xw, qn, qw, density, freqs = map(np.asarray, (xn, xw, qn, qw, density, freqs))
        phases = np.exp(1j * np.outer(freqs, qn))
        eps = [1e-2, 1e-3, 1e-4, 3e-5]
        test_vals = np.array([test_fn(x) for x in xn])
        # one angle coordinate: volume 2 pi, over 2 pi i and 2 pi
        full = [np.dot(xw, test_vals * density * (phases @ (qw * np.exp(-e * qn**2))))
                / (2j * math.pi) for e in eps]
        for values in (cosine_kernel_values(model, test_fn, eps),
                       delta_pairing(model, test_fn, eps).values):
            assert max(abs(v - f) for v, f in zip(values, full)) < 1e-15

    @pytest.mark.parametrize("test_fn", [gaussian_test, shifted_gaussian_test])
    def test_matches_the_numpy_kernel(self, test_fn):
        eps = list(EPS_POOL)
        report = delta_pairing(zero_op_s1(), test_fn, eps)
        oracle = numpy_delta_values(zero_op_s1(), test_fn, eps)
        assert max(abs(v - o) for v, o in zip(report.values, oracle)) < 1e-15

    @pytest.mark.parametrize("test_fn", [gaussian_test, shifted_gaussian_test])
    def test_matches_the_cosine_kernel(self, test_fn):
        eps = list(EPS_POOL)
        report = delta_pairing(zero_op_s1(), test_fn, eps)
        oracle = cosine_kernel_values(zero_op_s1(), test_fn, eps)
        assert max(abs(v - o) for v, o in zip(report.values, oracle)) < 1e-15

    @pytest.mark.parametrize("test_fn, shift", [(gaussian_test, 0.0),
                                                (shifted_gaussian_test, 1.0)])
    def test_closed_form_from_subnormal_to_huge_eps(self, test_fn, shift):
        # exp(-s^2/(1 + 4 eps))/sqrt(1 + 4 eps); the cosine kernel's xi
        # panels, 0.875 wide, missed it by 1.9e-10 to 4.5e-4 at eps = 1e2 to 1e4
        eps = [5e-324, 1e-300, *EPS_POOL, 1.0, 1e2, 1e3, 1e4, 1e300]
        report = delta_pairing(zero_op_s1(), test_fn, eps)
        for e, v in zip(eps, report.values):
            exact = math.exp(-shift**2 / (1 + 4 * e)) / math.sqrt(1 + 4 * e)
            assert abs(v - exact) <= 4.4e-16

    @pytest.mark.parametrize("a0, a1", [(0.3, -1.7), (-2.0, 0.6), (30.0, 1.0)])
    @pytest.mark.parametrize("test_fn, shift", [(gaussian_test, 0.0),
                                                (shifted_gaussian_test, 1.0)])
    def test_shifted_and_scaled_rate(self, monkeypatch, test_fn, shift, a0, a1):
        # The rate i (a0 + a1 X) in place of zero-op's -i X: the pairing is then
        # exp(-(a0 + s a1)^2/(4 eps + a1^2))/sqrt(4 eps + a1^2).  At a0 = 30 the
        # Gaussian in u lies outside the image of |X| <= X_HALFWIDTH.
        density = pairing._oscillatory_density
        monkeypatch.setattr(pairing, "_oscillatory_density",
                            lambda model, plan: (density(model, plan)[0], (a0, a1)))
        eps = [1e-2, 1e-3, 1e-4]
        report = delta_pairing(zero_op_s1(), test_fn, eps)
        for e, v in zip(eps, report.values):
            exact = math.exp(-(a0 + shift * a1)**2 / (4 * e + a1**2)) / math.sqrt(4 * e + a1**2)
            assert abs(v - exact) <= 4.4e-16

    @pytest.mark.parametrize("test_fn, shift", [(gaussian_test, 0.0),
                                                (shifted_gaussian_test, 1.0)])
    def test_extrapolation_precision_over_eps_subsets(self, test_fn, shift):
        # Every 3- and 4-subset of the pool, against the closed form
        # exp(-s^2/(1 + 4 eps))/sqrt(1 + 4 eps) and, for the extrapolation, the
        # polynomial through the exact values.  Each eps value is computed on
        # its own, so one run over the whole pool gives every subset's values.
        model = zero_op_s1()
        full = delta_pairing(model, test_fn, list(EPS_POOL))
        value = dict(zip(full.eps, full.values))
        sub = delta_pairing(model, test_fn, [3e-3, 1e-3, 1e-4, 3e-5])
        assert sub.values == [value[e] for e in sub.eps]
        assert sub.extrapolated == richardson_extrapolate(sub.eps, sub.values)
        worst = []
        for k in (3, 4):
            for eps in itertools.combinations(EPS_POOL, k):
                exact = [math.exp(-shift**2 / (1 + 4 * e)) / math.sqrt(1 + 4 * e) for e in eps]
                got = [value[e] for e in eps]
                extrap = richardson_extrapolate(eps, got)
                worst.append(max(max(abs(g - x) for g, x in zip(got, exact)),
                                 abs(extrap - interpolate_at_zero(eps, exact))))
        # 35 configurations per test function, 70 with the other one
        assert len(worst) == 35
        assert statistics.median(worst) <= 4e-16

    def test_fiber_rate_with_a_real_part_rejected(self):
        # a fiber rate with real part 1e-12 X: the xi integral is then no
        # Gaussian in Im r, and a cosine kernel in Im r would drop it silently
        model = zero_op_s1()
        alg = model.algebra
        liouville = alg.scalar(alg.coord("xi")) * alg.gen("dtheta")
        model.set_odd_term(SuperMatrix(alg, model.bundle_script_e.grading(),
                                       [[liouville]]).scale(1j + 1e-12))
        with pytest.raises(UnsupportedShapeError, match="purely oscillatory"):
            delta_pairing(model, gaussian_test, [1e-3])

    def test_fiber_rate_without_x_dependence_rejected(self):
        # at circle weight 0 the rate is 0 + 0 X: the density does not localize
        # at X = 0, and the pairing once returned 7.90 without an error
        coords = (Coordinate("theta", geometry.ANGLE, 0, "base"),
                  Coordinate("xi", REAL, 0, "fiber"))
        model = ActionModel("zero-op", coords, BundleSpec((0,), (0,)), BundleSpec((0,), (0,)),
                            volume=("dxi", "dtheta"))
        alg = model.algebra
        model.set_symbol([[alg.zero()]])
        liouville = alg.scalar(alg.coord("xi")) * alg.gen("dtheta")
        model.set_odd_term(SuperMatrix(alg, model.bundle_script_e.grading(),
                                       [[liouville]]).scale(1j))
        with pytest.raises(UnsupportedShapeError, match="does not depend on the parameter"):
            delta_pairing(model, gaussian_test, [1e-3])


class TestGaussLegendre:
    def test_matches_numpy_leggauss(self):
        x, w = gauss_legendre(16)
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert np.abs(x - ref_x).max() < 1e-15
        assert np.abs(w - ref_w).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 32])
    def test_matches_the_eigvalsh_rule_and_leggauss(self, n):
        x, w = gauss_legendre(n)
        for ref_x, ref_w in (numpy_gauss_legendre(n), np.polynomial.legendre.leggauss(n)):
            assert np.abs(x - ref_x).max() < 1e-15
            assert np.abs(w - ref_w).max() < 1e-15

    def test_exact_for_degree_below_2n(self):
        x, w = map(np.asarray, gauss_legendre(16))
        for k in range(32):
            assert abs(w @ x**k - (2 / (k + 1) if k % 2 == 0 else 0.0)) < 1e-14


class TestRichardson:
    def test_polynomial_exactness(self):
        eps = [1e-1, 1e-2, 1e-3]
        vals = [2.0 + 3.0 * e - 1.5 * e * e for e in eps]
        assert abs(richardson_extrapolate(eps, vals) - 2.0) < 1e-12

    def test_products_past_the_float_range_take_the_difference_form(self):
        # 1e300 * 2e10 overflows, but the extrapolated value is about 2.1e10
        eps, vals = [1e300, 1e299], [1e10, 2e10]
        want = 2e10 + (2e10 - 1e10) * (1e299 / (1e300 - 1e299))
        assert richardson_extrapolate(eps, vals) == want
        assert abs(want - 19e9 / 0.9) <= 1e-15 * want

    def test_a_value_out_of_range_is_named(self):
        with pytest.raises(OverflowError, match="Richardson extrapolation out of range"):
            richardson_extrapolate([1.0, 1.0 + 2**-52], [-1e308, 1e308])

    def test_values_that_are_not_finite_pass_through(self):
        assert cmath.isnan(richardson_extrapolate([1e-1, 1e-2], [float("nan"), 1.0]))


WEIGHTS = (*range(-8, 0), *range(1, 9))
WEIGHTED_MODELS = {}


@needs_hypothesis
def test_index_character_at_extreme_grids_is_finite_or_named():
    """Drawn weights, sample counts and windows: finite values, or AliasError or PoleGuardError.

    `weighted_plane_uv(m)` for |m| <= 8, theta_samples 2..4096 and
    fourier_window 0..63.  From |m| = 5 on the W-cleared density has terms
    past NUMERATOR_DEGREE, so AliasError; a grid point at a pole of the W
    character (theta m in 2 pi Z) raises PoleGuardError.
    """
    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(WEIGHTS), st.integers(2, 4096), st.integers(0, 63))
    @hypothesis.example(1, 4096, 63)
    @hypothesis.example(-4, 4096, 0)
    @hypothesis.example(5, 2, 63)
    @hypothesis.example(-8, 2, 0)
    def check(m, theta_samples, fourier_window):
        if m not in WEIGHTED_MODELS:
            WEIGHTED_MODELS[m] = weighted_plane_uv(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = index_character(WEIGHTED_MODELS[m], theta_samples, fourier_window)
            except AliasError:
                assert abs(m) >= 5
                return
            except PoleGuardError:
                return
        assert abs(m) < 5
        coefficients = [report.fourier.coeff(n) for n in range(-fourier_window,
                                                              fourier_window + 1)]
        assert len(report.values) == theta_samples
        assert all(cmath.isfinite(v) for v in [*report.values, *coefficients])

    check()


@needs_hypothesis
def test_delta_pairing_at_extreme_eps_and_scales_is_finite():
    """Drawn distinct eps in 5e-324..1e300 and test functions c e^{-(x - s)^2}, |c| <= 1e308.

    Every value, the extrapolation and test(0) are finite numbers.  The
    examples pair eps 1e300 with c = 1e308, where the extrapolation's
    products eps * value pass the float range.
    """
    model = zero_op_s1()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.floats(5e-324, 1e300), min_size=1, max_size=4, unique=True),
                      st.floats(-1e308, 1e308), st.floats(-20, 20))
    @hypothesis.example([5e-324, 1e300], 1e308, 0.0)
    @hypothesis.example([1e300, 1e299, 5e-324], -1e308, 3.0)
    def check(eps, c, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = delta_pairing(model, lambda x: c * math.exp(-(x - s) ** 2), eps)
        numbers = [*report.values, report.extrapolated, report.test_at_zero]
        assert all(type(v) is complex and cmath.isfinite(v) for v in numbers)

    check()
