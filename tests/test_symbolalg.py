import numpy as np
import pytest

from conftest import eval_grid, odd_symbol_model
from equichern import scan
from equichern.geometry import (
    SYMBOLIC,
    ActionModel,
    BundleSpec,
    Coordinate,
    UnsupportedShapeError,
    augmented_symbol,
    c_plane,
    zero_op_s1,
)
from equichern.modelfile import builtin_model_text, parse_model_text
from equichern.scan import ScanGrid, ellipticity_scan
from equichern.symbolalg import (
    N_RADII,
    N_X,
    R_MIN,
    SymbolFunction,
    bump,
    condition_c_fit,
    constant_in_xi_symbol,
    normalized_remainder_symbol,
    restriction_decay_check,
    saturating_symbol,
    transversal_ellipticity_check,
)


@pytest.fixture(scope="module")
def plane():
    return c_plane()


class TestConditionC:
    def test_saturating_symbol_constant_is_amplitude(self, plane):
        b = saturating_symbol(plane, amplitude=3.0)
        report = condition_c_fit(b, plane, (0.1, 0.01, 0.001))
        assert report.passed
        for entry in report.entries:
            assert entry["c_eps"] <= 3.0 + 1e-9
            assert entry["c_eps"] >= 3.0 - 0.2
            assert entry["ratio"] < 1.1

    def test_constant_in_xi_fails(self, plane):
        b = constant_in_xi_symbol(plane)
        report = condition_c_fit(b, plane, (0.1, 0.01))
        assert not report.passed
        # the needed constant grows with the grid radius on transverse rays
        assert all(e["ratio"] > 1.1 for e in report.entries)

    def test_model_remainder_passes(self, plane):
        b = normalized_remainder_symbol(plane, 1.5)
        report = condition_c_fit(b, plane, (0.1, 0.01, 0.001))
        assert report.passed

    def test_as_many_directions_as_radii(self, plane):
        # a (N_X, n_dirs, N_RADII) grid of scalars with n_dirs = N_RADII is
        # not a stack of matrices: the magnitude is taken point by point
        rng = np.random.default_rng(3)
        shape = (N_X, N_RADII, N_RADII)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        xi = 10 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for b in (saturating_symbol(plane), constant_in_xi_symbol(plane),
                  normalized_remainder_symbol(plane, 1.0)):
            mag = b.magnitude(x, xi)
            flat = b.magnitude(x.ravel(), xi.ravel())
            assert mag.shape == shape
            np.testing.assert_allclose(mag.ravel(), flat, rtol=1e-13, atol=1e-15)

    def test_stabilization_between_500_and_1000(self, plane):
        b = normalized_remainder_symbol(plane, 1.5)
        report = condition_c_fit(b, plane, (0.1, 0.01, 0.001), r_max=1000.0)
        assert report.passed
        for entry in report.entries:
            assert entry["ratio"] < 1.1

    def test_outer_radius_below_twice_the_smallest_rejected(self, plane):
        # the half-radius set of condition C holds R_MIN from r_max = 2 R_MIN on
        b = normalized_remainder_symbol(plane, 1.5)
        with pytest.raises(ValueError, match="r_max"):
            condition_c_fit(b, plane, (0.1,), r_max=np.nextafter(2 * R_MIN, 0))
        report = condition_c_fit(b, plane, (0.1,), r_max=2 * R_MIN)
        assert report.entries[0]["c_eps_half_radius"] > 0


class TestRestrictionDecay:
    def test_saturating_symbol_decays(self, plane):
        b = saturating_symbol(plane)
        report = restriction_decay_check(b, plane)
        assert report.passed and not report.vacuous
        assert report.shell_sup[-1] < 1e-3

    def test_constant_fails(self, plane):
        b = constant_in_xi_symbol(plane)
        report = restriction_decay_check(b, plane)
        assert not report.passed

    def test_model_remainder_decays(self, plane):
        b = normalized_remainder_symbol(plane, 1.5)
        report = restriction_decay_check(b, plane)
        assert report.passed

    def test_circle_zero_operator_vacuous(self):
        model = zero_op_s1()
        b = normalized_remainder_symbol(model, 2.0)
        report = restriction_decay_check(b, model)
        assert report.vacuous and report.passed


class TestTransversalEllipticity:
    def test_plane_model_passes(self, plane):
        report = transversal_ellipticity_check(plane)
        assert report.passed

    def test_zero_operator_passes(self):
        report = transversal_ellipticity_check(zero_op_s1())
        assert report.passed

    def test_compactly_supported_remainder_passes(self, plane):
        # sigma with sigma^2 = 1 outside a compact set: the remainder is
        # compactly supported in both variables
        def evaluator(x, xi):
            return bump(x, 1.0) * bump(xi, 2.0)

        b = SymbolFunction(evaluator, x_support_radius=1.0)
        cr = condition_c_fit(b, plane, (0.1, 0.01, 0.001))
        dr = restriction_decay_check(b, plane)
        assert cr.passed and dr.passed

    def test_report_dictionary(self, plane):
        doc = transversal_ellipticity_check(plane).to_dict()
        assert doc["passed"] is True
        assert doc["condition_c"][0]["entries"]


class TestFiberlessModel:
    @pytest.mark.parametrize("build", [
        augmented_symbol, saturating_symbol, lambda m: normalized_remainder_symbol(m, 1.0),
        transversal_ellipticity_check,
        lambda m: condition_c_fit(SymbolFunction(lambda x, xi: bump(x, 1.0), 1.0), m, (0.1,)),
        lambda m: restriction_decay_check(SymbolFunction(lambda x, xi: bump(x, 1.0), 1.0), m)],
        ids=["augmented", "saturating", "remainder", "transversal", "condition-c", "decay"])
    def test_missing_fiber_is_named(self, build):
        # the first four once raised IndexError, and the decay check gave a
        # verdict over fiber covectors the model does not have
        graded = BundleSpec((0, 1), (0, 1))
        model = ActionModel("no-fiber", (Coordinate("z", "complex", 1, "base"),),
                            graded, graded)
        alg = model.algebra
        zero = alg.zero(SYMBOLIC)
        model.set_symbol([[zero, alg.scalar(alg.coord("zbar"))],
                          [alg.scalar(alg.coord("z")), zero]])
        with pytest.raises(UnsupportedShapeError, match="no fiber coordinate"):
            build(model)


class TestAlgebraProperties:
    def test_products_of_members_remain_members(self, plane):
        # empirical algebra property on passing pairs
        b1 = saturating_symbol(plane, amplitude=2.0)
        b2 = normalized_remainder_symbol(plane, 1.5)

        def product_eval(x, xi):
            m1 = b1.magnitude(x, xi)
            m2 = b2.magnitude(x, xi)
            return m1 * m2

        prod = SymbolFunction(product_eval, x_support_radius=1.5)
        c1 = condition_c_fit(b1, plane, (0.01,))
        c2 = condition_c_fit(b2, plane, (0.01,))
        cp = condition_c_fit(prod, plane, (0.01,))
        assert c1.passed and c2.passed and cp.passed
        # constant bounded by a combination of the factors' data
        bound = (c1.entries[0]["c_eps"] * 3.0 + c2.entries[0]["c_eps"] * 3.0 + 1.0)
        assert cp.entries[0]["c_eps"] <= bound * 10

    def test_two_conditions_agree_on_corpus(self, plane):
        corpus = [
            (saturating_symbol(plane), True),
            (normalized_remainder_symbol(plane, 1.5), True),
            (constant_in_xi_symbol(plane), False),
        ]
        for b, expected in corpus:
            c_ok = condition_c_fit(b, plane, (0.1, 0.01)).passed
            d_ok = restriction_decay_check(b, plane).passed
            assert c_ok == d_ok == expected


def einsum_svd_remainder(model, radius, x, xi):
    """The svd norm of a (1 - sigma_hat^2) by `conftest.eval_grid` and a (d, d) einsum."""
    x = np.asarray(x, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    arrays = {model.base.name: x, model.fiber.name: xi}
    for a, b in model.algebra.conjugates.items():
        arrays[b] = np.conj(arrays[a])
    d = model.symbol.dim
    sig = np.zeros(x.shape + (d, d), dtype=complex)
    for (i, j), f in np.ndenumerate(scan._entry_polys(model.symbol)):
        if f is not None:
            sig[..., i, j] = eval_grid(f, arrays)
    sig = sig / np.sqrt(1.0 + np.abs(x) ** 2 + np.abs(xi) ** 2)[..., None, None]
    a = bump(x, radius)[..., None, None]
    rem = a * (np.eye(d) - np.einsum("...ij,...jk->...ik", sig, sig))
    # the rounding scale of an entry of a sigma_hat^2
    scale = a[..., 0, 0] * (1.0 + np.sum(np.abs(sig) ** 2, axis=(-2, -1)))
    return np.linalg.svd(rem, compute_uv=False)[..., 0], scale


def sampled_grids(b, model):
    """The (x, xi) arrays that both membership checks sample b on."""
    grids = []

    def evaluator(x, xi):
        grids.append((x, xi))
        return b.evaluator(x, xi)

    probe = SymbolFunction(evaluator, b.x_support_radius)
    condition_c_fit(probe, model, (0.1,))
    restriction_decay_check(probe, model)
    return grids


REMAINDER_MODELS = {
    "c-plane": lambda rng: parse_model_text(builtin_model_text("c-plane")),
    "constant-symbol": lambda rng: parse_model_text(builtin_model_text("constant-symbol")),
    "zero-op": lambda rng: zero_op_s1(),
    "rank-4": lambda rng: odd_symbol_model(2, 2, rng),
    "rank-3": lambda rng: odd_symbol_model(1, 2, rng),
    "rank-6-svd": lambda rng: odd_symbol_model(3, 3, rng),
}


class TestRemainderOracle:
    """The blocked remainder against the full einsum and svd route."""

    @pytest.mark.parametrize("name", sorted(REMAINDER_MODELS))
    def test_matches_einsum_and_svd(self, rng, name):
        model = REMAINDER_MODELS[name](rng)
        radius = 2.0
        b = normalized_remainder_symbol(model, radius)
        grids = sampled_grids(b, model)
        assert len(grids) == (1 if name == "zero-op" else 2)
        for x, xi in grids:
            ref, scale = einsum_svd_remainder(model, radius, x, xi)
            got = b.magnitude(x, xi)
            assert np.all(np.abs(got - ref) <= 1e-13 * (ref + scale))
            if name in ("c-plane", "constant-symbol"):
                # the shipped symbols evaluate exactly: relative agreement
                assert np.all(np.abs(got - ref) <= 1e-13 * ref)


# The matrix each batched model is scanned on: the rank-6 symbol has no
# augmentation, and its 3x3 grading blocks take the svd; zero-op has no scan.
SCANNED = {"c-plane": augmented_symbol, "constant-symbol": augmented_symbol,
           "rank-6-svd": lambda model: model.symbol}


class TestBatchedGrids:
    """Slices of BATCH_POINTS points against one batch for the whole grid."""

    @pytest.mark.parametrize("name", ["c-plane", "constant-symbol", "rank-6-svd", "zero-op"])
    def test_reports_equal_the_single_batch_route(self, monkeypatch, rng, name):
        model = REMAINDER_MODELS[name](rng)
        reports = []
        # at least the 49,152-point condition-C grid; 997 divides neither grid
        for batch in (10 ** 6, 997):
            monkeypatch.setattr(scan, "BATCH_POINTS", batch)
            report = [transversal_ellipticity_check(model).to_dict()]
            if name in SCANNED:
                report.append(ellipticity_scan(SCANNED[name](model),
                                               ScanGrid(samples=777)).to_dict())
            reports.append(report)
        assert reports[0] == reports[1]
