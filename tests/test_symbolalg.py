import contextlib
import io

import numpy as np
import pytest

from conftest import (
    REAL_FIBER_MODEL,
    constant_in_xi_symbol,
    eval_grid,
    odd_symbol_model,
    saturating_symbol,
    term_scale,
)
from equichern import scan, symbolalg
from equichern.cli import main
from equichern.geometry import (
    ActionModel,
    BundleSpec,
    Coordinate,
    UnsupportedShapeError,
    augmented_symbol,
)
from equichern.homotopy import c_plane
from equichern.modelfile import builtin_model_text, parse_model_text
from equichern.pairing import zero_op_s1
from equichern.scan import ScanGrid, ellipticity_scan
from equichern.symbolalg import (
    CUTOFF_RADII,
    N_DIRS,
    N_RADII,
    N_X,
    R_MIN,
    SymbolFunction,
    bump,
    condition_c_fit,
    normalized_remainder_symbol,
    restriction_decay_check,
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
        zero = alg.zero()
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


def expanded_scale(model, radius, x, xi):
    """The rounding scale of the compiled a (s^2 1 - sigma sigma) / s^2.

    Its entries are sigma sigma expanded into terms, whose |values| sum to at
    most sum_j T_ij T_jk, with T the entries' `conftest.term_scale`, and
    s^2 = 1 + |x|^2 + |xi|^2 is a sum of positive terms: the scale is
    a (d + sum_ijk T_ij T_jk) / s^2.  It exceeds the einsum route's scale
    where an entry's terms cancel, as T_ij is then far above |sigma_ij|.
    """
    arrays = {model.base.name: x, model.fiber.name: xi}
    for a, b in model.algebra.conjugates.items():
        arrays[b] = np.conj(arrays[a])
    d = model.symbol.dim
    T = np.zeros((d, d) + np.shape(x))
    for (i, j), f in np.ndenumerate(scan._entry_polys(model.symbol)):
        if f is not None:
            T[i, j] = term_scale(f, arrays)
    s2 = 1.0 + np.abs(x) ** 2 + np.abs(xi) ** 2
    return bump(x, radius) * (d + np.einsum("ij...,jk...->...", T, T)) / s2


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
    "real-fiber": lambda rng: parse_model_text(REAL_FIBER_MODEL.replace("FIBER", "xi")),
}


def closed_form_remainder(name, radius, x, xi):
    """a sigma_max(1 - sigma_hat^2) of a shipped symbol and the scale of its rounding.

    c-plane's sigma sigma is |z + i xi|^2 = s^2 - 1 - 2 Im(xi conj(z)) times
    1, constant-symbol's is 1, with s^2 = 1 + |z|^2 + |xi|^2.
    """
    a = bump(x, radius)
    s2 = 1.0 + np.abs(x) ** 2 + np.abs(xi) ** 2
    if name == "c-plane":
        return (a * np.abs(1 + 2 * (xi * np.conj(x)).imag) / s2,
                a * (1 + 2 * np.abs(x) * np.abs(xi)) / s2)
    value = a * (np.abs(x) ** 2 + np.abs(xi) ** 2) / s2
    return value, value


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
            if model.fiber.kind != "complex":
                # a real coordinate is sampled at real values, where its
                # square in s^2 is |xi|^2
                assert np.all(xi.imag == 0)
            ref, scale = einsum_svd_remainder(model, radius, x, xi)
            got = b.magnitude(x, xi)
            assert np.all(np.abs(got - ref) <= 1e-13 * (ref + scale))
            if name in ("c-plane", "constant-symbol"):
                # the shipped symbols against their closed forms
                want, scale = closed_form_remainder(name, radius, x, xi)
                assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("name", ["c-plane", "real-fiber"])
    @pytest.mark.parametrize("r_max", [1e3, 1e8])
    def test_outer_decay_shell_is_exact(self, rng, name, r_max):
        # on the transverse variety the remainder is 1 / s^2, the largest at
        # z = 0: 1 / (1 + |xi|^2) exactly.  Forming 1 - sigma_hat^2 in floating
        # point cancels 2 log10 r_max digits; a real xi sampled at complex
        # values leaves 1 - xi^2 / |xi|^2, which does not decay
        model = REMAINDER_MODELS[name](rng)
        b = normalized_remainder_symbol(model, 2.0)
        sup = restriction_decay_check(b, model, r_max=r_max).shell_sup[-1]
        assert sup == pytest.approx(1 / (1 + r_max ** 2), rel=1e-12, abs=0)


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


try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # declared in the test extra, but skip where it is absent
    hypothesis = None


@pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
def test_drawn_symbols(tmp_path):
    """Drawn 2x2 odd symbols on the c-plane coordinates: the compiled remainder
    against the einsum oracle, and check-symbol exits cleanly and repeats itself.

    The two remainders agree within the sum of their rounding scales: the
    einsum route's, and the expanded products' (`expanded_scale`), which is
    the larger where an entry's terms cancel, as in the explicit example at
    z = 1.43i, xi = 13.6i: there the routes differ by 2e-12 relative, where
    the einsum route's scale alone allows 1.4e-12.
    """
    head = builtin_model_text("c-plane").split("[symbol]")[0]
    # a term c z^a conj(z)^b xi^e conj(xi)^f of the model-file grammar, with c
    # a small integer or i and every exponent at most 3
    terms = st.builds(
        lambda c, exps: "*".join([c] + [f"{v}^{e}" for v, e in
                                        zip(("z", "conj(z)", "xi", "conj(xi)"), exps) if e]),
        st.sampled_from(("1", "2", "3", "i", "2*i")), st.tuples(*[st.integers(0, 3)] * 4))
    entries = st.lists(terms, max_size=3).map(lambda ts: " + ".join(ts) or "0")

    @hypothesis.settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @hypothesis.given(entries, entries)
    @hypothesis.example("z*conj(z)^3*xi*conj(xi) + 2*conj(z)^2*conj(xi)^2",
                        "z^2*conj(z)^2*conj(xi)^2 + 2*conj(z)^2*conj(xi)^2")
    def check(upper, lower):
        text = f"{head}[symbol]\n0, {upper}\n{lower}, 0\n"
        model = parse_model_text(text)
        b = normalized_remainder_symbol(model, 2.0)
        for x, xi in sampled_grids(b, model):
            ref, scale = einsum_svd_remainder(model, 2.0, x, xi)
            scale = scale + expanded_scale(model, 2.0, x, xi)
            assert np.all(np.abs(b.magnitude(x, xi) - ref) <= 1e-13 * (ref + scale))
        path = tmp_path / "drawn.model"
        path.write_text(text)
        reports = []
        for out in ("a", "b"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["check-symbol", str(path), "--scan-samples", "50",
                             "--out-dir", str(tmp_path / out)])
            # every cap is 1e14 or more (`largest_r_max`), above the default 1e3
            assert code in (0, 1)
            report = tmp_path / out / "symbol_report.json"
            reports.append(report.read_bytes())
            report.unlink()
        assert reports[0] == reports[1]

    check()


# -- the angle-0 slice of a phase-invariant remainder against the full grid ----------


def max_degree(model):
    """Largest total degree of the compiled remainder s^2 1 - sigma sigma (2 for s^2)."""
    return max([2] + [2 * sum(m) for f in scan._entry_polys(model.symbol).ravel()
                      if f is not None for m in f.terms])


def assert_slice_matches_full_grid(model, r_max):
    """Condition C and the decay check on the slice and on the full grid agree.

    The rotation that carries the slice to another base angle rounds each
    coordinate of a grid point by a few ulps, and a monomial of degree n by
    about n of those; the values may move by that much, so the tolerance is
    1e-15 relative up to degree 4 and 2.5e-16 per degree beyond it.
    """
    tol = 1e-15 * max(1, max_degree(model) / 4)
    for radius in CUTOFF_RADII:
        b = normalized_remainder_symbol(model, radius)
        assert b.phase_invariant
        # the same symbol, not known to be invariant, takes the full grid
        pairs = [(f(b), f(b._replace(phase_invariant=False))) for f in (
            lambda s: condition_c_fit(s, model, (0.1, 0.01, 0.001), r_max=r_max),
            lambda s: restriction_decay_check(s, model, r_max=r_max))]
        (c_slice, c_full), (d_slice, d_full) = pairs
        assert c_slice.passed == c_full.passed and d_slice.passed == d_full.passed
        assert [e["passed"] for e in c_slice.entries] == [e["passed"] for e in c_full.entries]
        floats = [(a[k], z[k]) for a, z in zip(c_slice.entries, c_full.entries)
                  for k in ("c_eps", "c_eps_half_radius")]
        for a, z in floats + list(zip(d_slice.shell_sup, d_full.shell_sup)):
            assert abs(a - z) <= tol * max(abs(a), abs(z))


@pytest.mark.parametrize("name", ["c-plane", "constant-symbol"])
@pytest.mark.parametrize("r_max", [1e2, 1e3])
def test_template_slice_matches_full_grid(tmp_path, name, r_max):
    model = parse_model_text(builtin_model_text(name))
    assert_slice_matches_full_grid(model, r_max)
    path = tmp_path / "template.model"
    path.write_text(builtin_model_text(name))
    reports = []
    for out in ("a", "b"):
        with contextlib.redirect_stdout(io.StringIO()):
            main(["check-symbol", str(path), "--xi-max", str(r_max), "--scan-samples", "50",
                  "--out-dir", str(tmp_path / out)])
        reports.append((tmp_path / out / "symbol_report.json").read_bytes())
    assert reports[0] == reports[1]


# c-plane with a term z added to its upper entry: z (z + i xi) has charge 2
CHARGE_BREAKING = builtin_model_text("c-plane").replace(
    "0, conj(z) - i*conj(xi)", "0, conj(z) - i*conj(xi) + z")


@pytest.mark.parametrize("name, base, decay_base", [
    # 8 radii; the decay check takes 8 directions at x = 0, 2 elsewhere
    ("c-plane", 8, 8 + 7 * 2),
    # x = 0 once, then 7 radii x 8 angles
    ("charge-breaking", 1 + 7 * 8, 8 + 56 * 2)])
def test_grid_sizes(monkeypatch, name, base, decay_base):
    # the points the remainder evaluator receives, per call
    sizes = []

    def counting(out, values, width):
        sizes.append(out.size)
        return scan.fill_batches(out, values, width)

    monkeypatch.setattr(symbolalg, "fill_batches", counting)
    text = CHARGE_BREAKING if name == "charge-breaking" else builtin_model_text(name)
    transversal_ellipticity_check(parse_model_text(text))
    per_cutoff = [base * N_DIRS * N_RADII, decay_base * N_RADII]
    assert sizes == per_cutoff * len(CUTOFF_RADII)


def ringed_base_points(model, b):
    """The full base grid with the radius-0 ring's 8 copies of x = 0."""
    radii = np.linspace(0.0, b.x_support_radius, 8)
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    return (radii[:, None] * np.exp(1j * angles)).ravel()


@pytest.mark.parametrize("name", ["charge-breaking", "rank-4", "rank-3"])
def test_one_origin_leaves_the_full_grid_bit_identical(monkeypatch, rng, name):
    model = (parse_model_text(CHARGE_BREAKING) if name == "charge-breaking"
             else REMAINDER_MODELS[name](rng))
    assert not normalized_remainder_symbol(model, 1.0).phase_invariant
    once = transversal_ellipticity_check(model).to_dict()
    monkeypatch.setattr(symbolalg, "_base_points", ringed_base_points)
    assert transversal_ellipticity_check(model).to_dict() == once


@pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
def test_drawn_phase_invariant_symbols():
    """Drawn 2x2 odd symbols whose remainder has charge 0, and some that break it.

    A term c z^a conj(z)^b xi^c conj(xi)^e has charge a - b + c - e.  The upper
    entry's terms all have charge q and the lower entry's -q, so every product
    in sigma sigma has charge 0, and the slice must match the full grid.  An
    extra upper term of charge q + 1 makes products of charge 1 with the
    lower entry, which holds a term, so that symbol must take the full grid.
    """
    head = builtin_model_text("c-plane").split("[symbol]")[0]

    def term(charge):
        def build(c, exps):
            a, b, d = exps
            e = a - b + d - charge
            return "*".join([c] + [f"{v}^{k}" for v, k in
                                   zip(("z", "conj(z)", "xi", "conj(xi)"), (a, b, d, e)) if k])
        return st.builds(build, st.sampled_from(("1", "2", "3", "i", "2*i")),
                         st.tuples(*[st.integers(0, 3)] * 3).filter(
                             lambda t: 0 <= t[0] - t[1] + t[2] - charge <= 3))

    def entry(charge):
        return st.lists(term(charge), min_size=1, max_size=3).map(" + ".join)

    @st.composite
    def symbols(draw):
        q = draw(st.integers(-1, 1))
        upper, lower = draw(entry(q)), draw(entry(-q))
        extra = draw(st.none() | term(q + 1))
        return upper + (f" + {extra}" if extra else ""), lower, extra is None

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(symbols())
    def check(drawn):
        upper, lower, invariant = drawn
        model = parse_model_text(f"{head}[symbol]\n0, {upper}\n{lower}, 0\n")
        if invariant:
            assert_slice_matches_full_grid(model, 1e3)
        else:
            b = normalized_remainder_symbol(model, 1.0)
            assert not b.phase_invariant
            assert len(symbolalg._base_points(model, b)) == 1 + 7 * 8

    check()
