"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import cmath
import math
import time

import numpy as np

from equichern.augmentation import c_plane_uv
from equichern.characters import POSITIVE, localized_index, monomial
from equichern.equivariant import bundle_character, chern_form
from equichern.geometry import orientation_sign
from equichern.homotopy import c_plane, homotopy_path
from equichern.kernels import closedness_residual, from_array, super_exp_duhamel, to_array
from equichern.pairing import delta_pairing, gaussian_test, zero_op_s1
from equichern.quadrature import index_character
from equichern.scan import ScanGrid, ellipticity_scan
from equichern.supermatrix import super_exp
from equichern.symbolalg import (
    condition_c_fit,
    normalized_remainder_symbol,
    transversal_ellipticity_check,
)
from conftest import Grading, constant_in_xi_symbol, corrupted_moment_model


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_plane_chern_closed_form():
    """Supertrace exponential equals the closed form at 200 points, 20 thetas."""
    model = c_plane_uv()
    alg = model.algebra
    sgn = orientation_sign(model)
    rng = np.random.default_rng(101)
    points = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
               complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
              for _ in range(200)]
    thetas = rng.uniform(0.1, 2 * math.pi - 0.1, 20)
    du, dub = alg.gen("du").evaluate({}), alg.gen("dubar").evaluate({})
    dv, dvb = alg.gen("dv").evaluate({}), alg.gen("dvbar").evaluate({})
    pair_sum = dub * du + dvb * dv
    vol = (dub * du * dvb * dv).scale(sgn)  # oriented volume form
    start = time.perf_counter()
    worst = 0.0
    for theta in thetas:
        it = 1j * theta
        fac = (1 - cmath.exp(1j * theta)) ** 2
        base = alg.one().evaluate({}) + pair_sum.scale(1 / it) - vol.scale(1 / it**2)
        for u, v in points:
            got = chern_form(model, theta, {"u": u, "v": v})
            ref = base.scale(cmath.exp(-(abs(u) ** 2 + abs(v) ** 2)) * fac)
            keys = set(got.terms) | set(ref.terms)
            err = max(abs(got.terms.get(k, 0) - ref.terms.get(k, 0))
                      / max(1.0, abs(ref.terms.get(k, 0))) for k in keys)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report("1 (plane Chern form)",
           worst < 1e-8 and elapsed < 10.0,
           f"worst rel err {worst:.2e} <= 1e-8, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_plane_index_and_fourier():
    """Index values match -e^{i theta}/(1-e^{i theta}); Fourier pattern holds."""
    model = c_plane_uv()
    start = time.perf_counter()
    result = index_character(model, theta_samples=32, fourier_window=16)
    elapsed = time.perf_counter() - start
    value_dev = max(
        abs(v - (-cmath.exp(1j * t.real) / (1 - cmath.exp(1j * t.real))))
        for t, v in zip(result.theta_samples, result.values))
    pos_dev = max(abs(result.fourier.coeff(n) + 1.0) for n in range(1, 17))
    rest_dev = max(abs(result.fourier.coeff(n)) for n in range(-16, 1))
    ok = value_dev < 1e-6 and pos_dev < 1e-4 and rest_dev < 1e-4 and elapsed < 60.0
    report("2 (plane index character)", ok,
           f"value dev {value_dev:.2e} <= 1e-6, c_1..16 dev {pos_dev:.2e} <= 1e-4, "
           f"c_<=0 dev {rest_dev:.2e} <= 1e-4, runtime {elapsed:.1f}s < 60s")


def test_criterion_3_clifford_bundle_character():
    """Signed character of the rank-2 Clifford model bundle at machine precision."""
    model = c_plane()
    worst = 0.0
    for theta in np.linspace(0.05, 2 * math.pi - 0.05, 100):
        got = bundle_character(model.bundle_w.weights, model.bundle_w.parities,
                               theta)
        worst = max(worst, abs(got - (1 - cmath.exp(1j * theta))))
    report("3 (Clifford bundle character)", worst < 1e-14,
           f"max abs dev {worst:.2e} <= 1e-14 over 100 theta values")


def test_criterion_4_zero_operator_delta_pairing():
    """Regularized pairing converges to test(0); matches the Gaussian oracle."""
    model = zero_op_s1()
    eps = [1e-2, 1e-3, 1e-4]
    result = delta_pairing(model, gaussian_test, eps)
    oracle_dev = max(abs(v - 1.0 / math.sqrt(1 + 4 * e))
                     for e, v in zip(eps, result.values))
    extrap_err = abs(result.extrapolated - 1.0)
    ok = oracle_dev < 1e-10 and extrap_err < 1e-4
    report("4 (zero operator pairing)", ok,
           f"oracle dev {oracle_dev:.2e} <= 1e-10, "
           f"extrapolation err {extrap_err:.2e} <= 1e-4")


def test_criterion_5_localized_index_series():
    """Quotient by the weight-one normal character reproduces the index series."""
    out = localized_index(monomial(1, -1.0), [1], POSITIVE)
    exact = all(out.coeff(n) == (-1.0 if n >= 1 else 0.0)
                for n in range(-64, 65))
    report("5 (localization arithmetic)", exact,
           "coefficients exactly -1 for n >= 1 and 0 otherwise on [-64, 64]")


def test_criterion_6_equivariant_closedness():
    """Cartan-differential residual below 1e-8; corrupted moment detected."""
    rng = np.random.default_rng(202)
    worst = 0.0
    model = c_plane_uv()
    for _ in range(50):
        pt = {"u": complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
              "v": complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))}
        theta = rng.uniform(0.2, 6.0)
        worst = max(worst, closedness_residual(model, theta, pt))
    circle = zero_op_s1()
    for _ in range(50):
        pt = {"theta": rng.uniform(0, 2 * math.pi), "xi": rng.uniform(-2, 2)}
        x_param = rng.uniform(0.2, 3.0)
        worst = max(worst, closedness_residual(circle, x_param, pt))
    corrupted = closedness_residual(corrupted_moment_model(), 1.0,
                                    {"u": 0.4 + 0.2j, "v": -0.3 + 0.9j})
    ok = worst < 1e-8 and corrupted > 1e-3
    report("6 (equivariant closedness)", ok,
           f"residual {worst:.2e} <= 1e-8 at 100 points, "
           f"corrupted control {corrupted:.2e} > 1e-3")


def test_criterion_7_exponential_oracle_equivalence():
    """Scaling-squaring Taylor and Duhamel expansions agree entrywise."""
    from equichern.exterior import ExteriorAlgebra

    alg = ExteriorAlgebra(["da", "db", "dc", "dd"], [])
    grading = Grading.from_string("++--")
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        arr = np.zeros((4, 4, alg.n_components), dtype=complex)
        for i in range(4):
            arr[i, i, 0] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for i in range(4):
            for j in range(4):
                for mask in range(1, alg.n_components):
                    if rng.random() < 0.25:
                        arr[i, j, mask] = complex(rng.uniform(-2, 2),
                                                  rng.uniform(-2, 2))
        m = from_array(alg, grading, arr)
        a = to_array(super_exp(m, tol=1e-14))
        b = to_array(super_exp_duhamel(m))
        worst = max(worst, float(np.abs(a - b).max()))
    report("7 (exponential oracle equivalence)", worst < 1e-10,
           f"max entrywise deviation {worst:.2e} <= 1e-10 on 50 matrices")


def test_criterion_8_symbol_algebra_membership():
    """Normalized symbol passes; constant control fails; constants stabilize."""
    model = c_plane()
    passing = transversal_ellipticity_check(model)
    control = constant_in_xi_symbol(model)
    control_c = condition_c_fit(control, model, (0.1, 0.01))
    control_pass = control_c.passed
    b = normalized_remainder_symbol(model, 1.5)
    stab = condition_c_fit(b, model, (0.1, 0.01, 0.001), r_max=1000.0)
    ratios = [e["ratio"] for e in stab.entries]
    ok = passing.passed and not control_pass and all(r < 1.1 for r in ratios)
    report("8 (symbol algebra)", ok,
           f"model PASS={passing.passed}, control PASS={control_pass}, "
           f"c_eps ratios R=500..1000 {[f'{r:.3f}' for r in ratios]} < 1.1")


def test_criterion_9_homotopy_ellipticity():
    """Determinant scan passes at 11 points on both homotopy stages."""
    model = c_plane()
    path = homotopy_path(model)
    grid = ScanGrid(radii=(2.0, 3.0, 4.5, 6.0, 8.0), samples=700,
                    refine_iters=30, threshold=1e-6)
    worst = math.inf
    for stage in range(path.stage_count):
        for s in np.linspace(0.0, 1.0, 11):
            result = ellipticity_scan(path.matrix_at(stage, float(s)), grid)
            m = min(r.min_normalized_det for r in result.shells)
            worst = min(worst, m)
            if not result.passed:
                report("9 (homotopy ellipticity)", False,
                       f"stage {stage}, s={s:.1f} failed, min det {m:.2e}")
    report("9 (homotopy ellipticity)", worst > 1e-6,
           f"min normalized |det| {worst:.2e} > 1e-6 on shells r >= 2, "
           f"11 points per stage")
