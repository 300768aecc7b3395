import cmath
import sys
import warnings

import numpy as np
import pytest

from equichern import geometry, pointwise, polyeval
from equichern.augmentation import c_plane_uv
from equichern.characters import ahat_squared
from equichern.equivariant import (
    POLE_GUARD_W,
    ChernPlan,
    GaussianForm,
    PoleGuardError,
    bundle_character,
    chern_form,
    chern_plan,
    curvature_plan,
    duhamel_paths,
    equivariant_curvature,
    split_body,
    symbolic_chern,
    transverse_chern,
    w_character,
)
from equichern.exterior import EvaluationError, Poly
from equichern.geometry import (
    ActionModel,
    BundleSpec,
    Coordinate,
    SuperMatrix,
    cartan_field,
    moment,
    orientation_sign,
    oriented_volume_coefficient,
)
from equichern.homotopy import c_plane
from equichern.kernels import closedness_residual, from_array, to_array
from equichern.modelfile import builtin_model_text, parse_model_text
from equichern.pairing import zero_op_s1
from equichern.pointwise import pair_plan, plan_at
from equichern.polyeval import full_point
from equichern.quadrature import (
    DivergenceError,
    gaussian_integral,
    index_character,
    integrate_top_form,
)
from equichern.supermatrix import UnsupportedShapeError, exp_divided_difference, super_exp
from conftest import corrupted_moment_model, reduceat_taylor_exp, weighted_plane_uv


def closed_form_reference(model, u, v, theta):
    """The worked closed form, with the top term read against the oriented volume."""
    alg = model.algebra
    it = 1j * theta
    fac = (1 - cmath.exp(1j * theta)) ** 2
    scale = cmath.exp(-(abs(u) ** 2 + abs(v) ** 2)) * fac
    du, dub = alg.gen("du").evaluate({}), alg.gen("dubar").evaluate({})
    dv, dvb = alg.gen("dv").evaluate({}), alg.gen("dvbar").evaluate({})
    pair_sum = dub * du + dvb * dv
    vol = (dub * du * dvb * dv).scale(orientation_sign(model))
    return (alg.one().evaluate({}) + pair_sum.scale(1 / it)
            - vol.scale(1 / it**2)).scale(scale)


def moment_only_model():
    coords = (Coordinate("x", "complex", 1, "base"),)
    e = BundleSpec((0, 1), (0, 1))
    m = ActionModel("moment-only", coords, e)
    m.set_odd_term(SuperMatrix.zero(m.algebra, e.grading()))
    return m


class TestMoment:
    def test_plane_weights(self):
        m = c_plane_uv()
        theta = 0.9
        mu = moment(m, theta)
        diag = [mu.entries[i][i].terms.get(0, m.algebra.const(0)).constant_value()
                for i in range(4)]
        assert diag == [0.0, 2j * theta, 1j * theta, 1j * theta]

    def test_zero_weights(self):
        m = moment_only_model()
        coords = (Coordinate("x", "complex", 1, "base"),)
        flat = ActionModel("flat", coords, BundleSpec((0, 0), (0, 1)))
        mu = moment(flat, 1.3)
        assert all(f.is_zero for row in mu.entries for f in row)

    def test_trivial_bundle_circle(self):
        m = zero_op_s1()
        mu = moment(m, 2.2)
        assert all(f.is_zero for row in mu.entries for f in row)

    def test_missing_bundle_unsupported(self):
        coords = (Coordinate("x", "complex", 1, "base"),)
        bare = ActionModel("bare", coords, None)
        with pytest.raises(UnsupportedShapeError):
            moment(bare, 1.0)


def bare_plane_model():
    """The c-plane coordinates and bundles with no superconnection odd term."""
    coords = (Coordinate("z", "complex", 1, "base"),
              Coordinate("xi", "complex", 1, "fiber"))
    graded = BundleSpec((0, 1), (0, 1))
    return ActionModel("bare-plane", coords, graded, graded)


class TestEquivariantCurvature:
    def test_set_odd_term_recomputes_the_curvature(self):
        m = c_plane_uv()
        old = m.curvature
        rows = [list(row) for row in m.odd_term.entries]
        rows[0][2] = rows[0][2] + m.algebra.gen("du").wedge(m.algebra.gen("dv"))
        m.set_odd_term(SuperMatrix(m.algebra, m.odd_term.grading, rows))
        a = m.odd_term
        for theta in (0.0, 1.3, 2 + 1j):
            ref = (a.d() + (a @ a) + moment(m, theta)
                   - a.interior(cartan_field(m, theta)))
            got = equivariant_curvature(m, theta)
            assert all(x == y for r1, r2 in zip(got.entries, ref.entries)
                       for x, y in zip(r1, r2))
        assert any(x != y for r1, r2 in zip(m.curvature[0].entries, old[0].entries)
                   for x, y in zip(r1, r2))

    def test_even_odd_term_rejected(self):
        m = c_plane_uv()
        old = (m.odd_term, m.curvature)
        even = SuperMatrix.identity(m.algebra, m.odd_term.grading)
        with pytest.raises(UnsupportedShapeError, match="must be odd"):
            m.set_odd_term(even)
        assert (m.odd_term, m.curvature) == old

    @pytest.mark.parametrize("call", [
        lambda m: equivariant_curvature(m, 1.3),
        lambda m: chern_plan(m),
        lambda m: symbolic_chern(m, 1.3),
        lambda m: chern_form(m, 1.3, {"z": 0.2, "xi": 0.1j}),
        lambda m: transverse_chern(m, 1.3),
    ])
    def test_model_without_odd_term_raises(self, call):
        with pytest.raises(UnsupportedShapeError, match="set_odd_term"):
            call(bare_plane_model())

    def test_parsed_model_has_no_odd_term(self):
        # a model file carries its symbol and no superconnection
        m = parse_model_text(builtin_model_text("c-plane"))
        for call in (chern_plan, lambda m: chern_form(m, 1.3, {"z": 0.2, "xi": 0.1j}),
                     lambda m: index_character(m, theta_samples=8, fourier_window=4)):
            with pytest.raises(UnsupportedShapeError, match="set_odd_term"):
                call(m)

    def test_plane_body_and_one_form_part(self):
        m = c_plane_uv()
        theta = 1.1
        curv = equivariant_curvature(m, theta)
        shared, offsets, soul = split_body(curv)
        # body: -(|u|^2 + |v|^2) plus the moment offsets
        alg = m.algebra
        expected = -(alg.coord("u") * alg.coord("ubar")
                     + alg.coord("v") * alg.coord("vbar"))
        assert shared == expected
        assert np.allclose(offsets, [0, 2j * theta, 1j * theta, 1j * theta])
        # 1-form part: i times the entrywise differential of the odd term/i
        dl = m.odd_term.scale(-1j).d().scale(1j)
        for i in range(4):
            for j in range(4):
                assert soul.entries[i][j] == dl.entries[i][j]

    def test_zero_model_zero_curvature(self):
        m = moment_only_model()
        flat = ActionModel("flat", (Coordinate("x", "complex", 1, "base"),),
                           BundleSpec((0, 0), (0, 1)))
        flat.set_odd_term(SuperMatrix.zero(flat.algebra,
                                           flat.bundle_e.grading()))
        curv = equivariant_curvature(flat, 0.7)
        assert all(f.is_zero for row in curv.entries for f in row)

    def test_circle_zero_operator(self):
        # F = i(dxi ^ dtheta - X xi) for the tautological-form superconnection
        m = zero_op_s1()
        x_param = 1.6
        curv = equivariant_curvature(m, x_param)
        f = curv.entries[0][0]
        assert f.coefficient(("dxi", "dtheta")).constant_value() == 1j
        deg0 = f.terms[0]
        assert deg0 == m.algebra.coord("xi") * (-1j * x_param)


class TestChernForm:
    def test_fixed_point_value(self):
        m = c_plane_uv()
        theta = cmath.pi
        ch = chern_form(m, theta, {"u": 0.0, "v": 0.0})
        ref = closed_form_reference(m, 0.0, 0.0, theta)
        assert abs(ref.terms[0] - 4.0) < 1e-12  # (1 - e^{i pi})^2 = 4
        assert ch.isclose(ref, 1e-10)

    def test_zero_operator_form(self):
        m = zero_op_s1()
        x_param = 0.8
        pt = {"theta": 0.3, "xi": 1.7}
        gf = symbolic_chern(m, x_param)
        ch = gf.evaluate(pt)
        osc = cmath.exp(-1j * x_param * pt["xi"])
        assert abs(ch.terms[0] - osc) < 1e-14
        assert abs(ch.coefficient(("dxi", "dtheta")) - 1j * osc) < 1e-14

    def test_moment_only_character(self):
        m = moment_only_model()
        theta = 1.3
        gf = symbolic_chern(m, theta)
        assert gf.exponent.is_zero
        got = gf.form.terms[0].constant_value()
        assert abs(got - (1 - cmath.exp(1j * theta))) < 1e-14

    @pytest.mark.parametrize("make", [c_plane_uv, c_plane, zero_op_s1])
    def test_matches_supermatrix_route(self, make):
        # the supermatrix route: F(theta) evaluated entrywise, super_exp, supertrace
        m = make()
        base = PLAN_POINTS[make.__name__]
        points = (base, {k: 0.5 * v - 0.25 for k, v in base.items()})
        for theta in PLAN_THETAS:
            for point in points:
                got = chern_form(m, theta, point)
                fnum = equivariant_curvature(m, theta).evaluate(full_point(m.algebra, point))
                ref = super_exp(fnum).supertrace()
                assert got.isclose(ref, 1e-13 * ref.norm_max())

    def test_dense_route_closed_form_digits(self):
        # acceptance 1's closed form, at a tighter bound than its 1e-8
        m = c_plane_uv()
        rng = np.random.default_rng(1306)
        worst = 0.0
        for _ in range(300):
            theta = rng.uniform(0.1, 2 * cmath.pi - 0.1)
            u, v = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
            got = chern_form(m, theta, {"u": u, "v": v})
            ref = closed_form_reference(m, u, v, theta)
            worst = max(worst, max(abs(got.terms.get(k, 0) - ref.terms.get(k, 0))
                                   / max(1.0, abs(ref.terms.get(k, 0)))
                                   for k in set(got.terms) | set(ref.terms)))
        assert worst <= 1e-13

    def test_dense_route_closed_form_fresh_seed(self):
        # the dense workload's theta range, read from the compiled Chern plan
        m = c_plane_uv()
        rng = np.random.default_rng(8128)
        worst = 0.0
        for _ in range(300):
            theta = rng.uniform(0.1, 2 * cmath.pi - 0.1)
            u, v = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
            got = chern_form(m, theta, {"u": u, "v": v})
            ref = closed_form_reference(m, u, v, theta)
            worst = max(worst, max(abs(got.terms.get(k, 0) - ref.terms.get(k, 0))
                                   / max(1.0, abs(ref.terms.get(k, 0)))
                                   for k in set(got.terms) | set(ref.terms)))
        assert worst <= 1e-14

    def test_zero_operator_dense_route_is_exact(self):
        # a 1x1 curvature is its own trace shift plus a nilpotent soul
        m = zero_op_s1()
        for x_param in (0.8, 1.7 * cmath.pi, 5.9):
            for pt in ({"theta": 0.3, "xi": 1.7}, {"theta": -1.2, "xi": -4.4}):
                ch = chern_form(m, x_param, pt)
                osc = cmath.exp(-1j * x_param * pt["xi"])
                assert abs(ch.terms[0] - osc) <= 1e-15
                assert abs(ch.coefficient(("dxi", "dtheta")) - 1j * osc) <= 1e-15

    def test_missing_coordinate_is_named(self):
        with pytest.raises(EvaluationError, match="'v'"):
            chern_form(c_plane_uv(), 1.3, {"u": 0.2})
        with pytest.raises(EvaluationError, match="'xi'"):
            chern_form(zero_op_s1(), 1.3, {"theta": 0.2})

    def test_empty_point_names_the_first_coordinate(self):
        with pytest.raises(EvaluationError, match="'u'"):
            chern_form(c_plane_uv(), 1.3, {})

    def test_new_odd_term_recompiles_the_dense_route(self):
        m = c_plane_uv()
        rows = [list(row) for row in m.odd_term.entries]
        rows[0][1] = rows[0][1] + m.algebra.gen("du").scale(m.algebra.coord("v"))
        m.set_odd_term(SuperMatrix(m.algebra, m.odd_term.grading, rows))
        point = {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j}
        for theta in (0.3, 2 + 1j):
            got = chern_form(m, theta, point)
            fnum = equivariant_curvature(m, theta).evaluate(full_point(m.algebra, point))
            ref = super_exp(fnum).supertrace()
            assert got.isclose(ref, 1e-13 * ref.norm_max())

    def test_parsed_model_builds_no_augmented_symbol_per_call(self, monkeypatch):
        m = parsed_plane_model()
        calls = []

        def counted(model):
            calls.append(model)
            return geometry.augmented_symbol(model)

        for name, module in list(sys.modules.items()):
            if name.startswith("equichern") and hasattr(module, "augmented_symbol"):
                monkeypatch.setattr(module, "augmented_symbol", counted)
        a = chern_form(m, 1.3, PLAN_POINTS["c_plane"])
        b = chern_form(m, 1.3, PLAN_POINTS["c_plane"])
        assert not calls
        assert a.isclose(b, 0.0)

    def test_finite_near_two_pi_z(self):
        # the supertrace of exp(F0 + theta F1) is entire in theta; only the W
        # character (the transverse form) has poles at 2 pi Z
        m = c_plane_uv()
        for theta in (2 * cmath.pi, 2 * cmath.pi + 1e-9, 4 * cmath.pi - 1e-7):
            for u, v in ((0.0, 0.0), (0.3 + 0.2j, -0.5 + 0.1j)):
                got = chern_form(m, theta, {"u": u, "v": v})
                assert got.isclose(closed_form_reference(m, u, v, theta), 1e-12)

    def test_symbolic_route_matches_dense_exponential(self, rng):
        m = c_plane_uv()
        for _ in range(10):
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            theta = rng.uniform(0.2, 6.0)
            dense = chern_form(m, theta, {"u": u, "v": v})
            sym = symbolic_chern(m, theta).evaluate(full_point(m.algebra, {"u": u, "v": v}))
            assert dense.isclose(sym, 1e-10 * max(1.0, sym.norm_max()))


class TestBundleCharacter:
    def test_clifford_model_bundle(self):
        m = c_plane()
        for theta in np.linspace(0.1, 6.2, 7):
            got = bundle_character(m.bundle_w.weights, m.bundle_w.parities, theta)
            assert got == 1 - cmath.exp(1j * theta)

    def test_trivial_line_bundle(self):
        assert bundle_character((0,), (0,), 1.7) == 1.0

    def test_rank_four_square(self):
        theta = 0.45
        got = bundle_character((0, 1, 1, 2), (0, 1, 1, 0), theta)
        e = cmath.exp(1j * theta)
        assert abs(got - (1 - 2 * e + e * e)) < 1e-15
        assert abs(got - (1 - e) ** 2) < 1e-15


def numpy_bundle_character(weights, parities, thetas):
    """The replaced elementwise numpy route of bundle_character, kept as an oracle."""
    total = np.zeros(len(thetas), dtype=complex)
    for w, p in zip(weights, parities):
        term = np.exp(1j * w * thetas)
        total += -term if p else term
    return total


class TestArrayCharacters:
    THETAS = np.linspace(-20.0, 20.0, 1001)

    def test_bundle_character_array_is_the_scalar_calls(self):
        w, p = (0, 1, 1, 2), (0, 1, 1, 0)
        want = numpy_bundle_character(w, p, self.THETAS)
        got = np.array([bundle_character(w, p, t) for t in self.THETAS.tolist()])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_w_character_array_is_the_scalar_calls(self):
        m = c_plane_uv()
        thetas = self.THETAS[np.abs(np.sin(self.THETAS / 2)) > 1e-6]
        want = numpy_bundle_character(m.bundle_w.weights, m.bundle_w.parities, thetas)
        got = np.array([w_character(m, t) for t in thetas.tolist()])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_w_pole_guard_on_any_element(self):
        m = c_plane_uv()
        for k in (-2, -1, 0, 1, 2):
            with pytest.raises(PoleGuardError):
                w_character(m, 2 * np.pi * k)
        assert abs(w_character(m, 2 * np.pi + 2e-8)) > POLE_GUARD_W


class TestTransverseChern:
    def test_quotient_cancels_one_character_factor(self, rng):
        m = c_plane_uv()
        theta = 2.1
        gf = transverse_chern(m, theta)
        u, v = 0.5 + 0.25j, -0.3j
        got = gf.evaluate(full_point(m.algebra, {"u": u, "v": v}))
        ref = closed_form_reference(m, u, v, theta).scale(
            1.0 / (1 - cmath.exp(1j * theta)))
        assert got.isclose(ref, 1e-11)

    def test_trivial_clifford_bundle_is_identity(self):
        m = zero_op_s1()
        a = symbolic_chern(m, 0.9)
        b = transverse_chern(m, 0.9)
        assert a.form == b.form and a.exponent == b.exponent

    def test_top_coefficient_at_fixed_point(self):
        m = c_plane_uv()
        theta = cmath.pi
        gf = transverse_chern(m, theta)
        top = oriented_volume_coefficient(m, gf.form).constant_value()
        # -(1/(i pi)^2) (1 - e^{i pi}) = 2 / pi^2 against the oriented volume
        assert abs(top - 2.0 / cmath.pi**2) < 1e-13

    def test_pole_guard_near_two_pi(self):
        m = c_plane_uv()
        with pytest.raises(PoleGuardError):
            transverse_chern(m, 1e-9)


class TestClosedness:
    def test_plane_residual_small(self, rng):
        m = c_plane_uv()
        pt = {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j}
        assert closedness_residual(m, 1.0, pt) < 1e-8

    def test_constant_model_exactly_closed(self):
        flat = ActionModel("flat", (Coordinate("x", "complex", 1, "base"),),
                           BundleSpec((0, 0), (0, 1)))
        flat.set_odd_term(SuperMatrix.zero(flat.algebra,
                                           flat.bundle_e.grading()))
        assert closedness_residual(flat, 1.0, {"x": 0.7 + 0.1j}) == 0.0

    def test_corrupted_moment_detected(self):
        pt = {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j}
        res = closedness_residual(corrupted_moment_model(), 1.0, pt)
        assert res > 1e-3

    def test_corrupted_moment_reaches_both_chern_routes(self):
        # the control once kept the sound pair's compiled array, so the dense
        # route read the sound model (difference 0.0) and the plan did not (1.27)
        bad = corrupted_moment_model()
        theta, pt = 1.3, {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j}
        dense = chern_form(bad, theta, pt)
        plan = symbolic_chern(bad, theta).evaluate(full_point(bad.algebra, pt))
        assert dense.isclose(plan, 1e-12 * max(1.0, plan.norm_max()))
        sound = chern_form(c_plane_uv(), theta, pt).terms  # over another algebra
        assert max(abs(c - sound.get(k, 0)) for k, c in dense.terms.items()) > 1e-3
        # the compiled pair is memoised on the pair, not on the model, so a
        # model given a new curvature is never read through an old table
        corrupted = bad.curvature
        bad.set_odd_term(bad.odd_term)  # the sound pair again
        again = chern_form(bad, theta, pt).terms
        assert max(abs(c - sound.get(k, 0)) for k, c in again.items()) <= 1e-12
        bad.curvature = corrupted
        assert chern_form(bad, theta, pt) == dense

    def test_circle_model_residual(self):
        m = zero_op_s1()
        assert closedness_residual(m, 0.8, {"theta": 0.3, "xi": 1.7}) < 1e-12


class TestInvariants:
    def test_closed_form_random_sweep(self, rng):
        m = c_plane_uv()
        for _ in range(40):
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            theta = rng.uniform(0.1, 3.0) * (1 if rng.random() < 0.5 else -1) % (
                2 * np.pi)
            theta = min(max(theta, 0.1), 2 * np.pi - 0.1)
            ch = chern_form(m, theta, {"u": u, "v": v})
            ref = closed_form_reference(m, u, v, theta)
            keys = set(ch.terms) | set(ref.terms)
            for k in keys:
                a, b = ch.terms.get(k, 0), ref.terms.get(k, 0)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_conjugation_naturality(self, rng):
        m = c_plane_uv()
        theta = 1.3
        curv = equivariant_curvature(m, theta)
        pt = full_point(m.algebra, {"u": 0.4 - 0.1j, "v": 0.2 + 0.3j})
        fnum = curv.evaluate(pt)
        g = np.eye(4, dtype=complex)
        g[0, 1], g[1, 0], g[2, 3], g[3, 2] = 0.2, -0.3j, 0.15 + 0.1j, 0.4
        g += np.eye(4)
        conj = np.einsum("ij,jkc,kl->ilc", g, to_array(fnum), np.linalg.inv(g))
        lhs = super_exp(from_array(m.algebra, fnum.grading, conj), tol=1e-14).supertrace()
        rhs = super_exp(fnum, tol=1e-14).supertrace()
        assert (lhs - rhs).norm_max() < 1e-10

    def test_top_coefficient_pole_order(self):
        # (i theta)^2 times the top coefficient converges as theta -> 0
        m = c_plane_uv()
        pt = full_point(m.algebra, {"u": 0.0, "v": 0.0})
        vals = []
        for k in range(7):
            theta = 0.01 * 2.0**-k
            gf = symbolic_chern(m, theta)
            top = gf.form.coefficient(m.volume).constant_value()
            vals.append((1j * theta) ** 2 * top)
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert abs(vals[-1]) < 1e-3  # limit (1 - e^{i theta})^2 -> 0

    def test_cartan_field_matches_moment_orientation(self):
        # the pair (moment, field) must cancel in the closedness residual;
        # flipping the field sign must break it
        m = c_plane_uv()
        zeta = cartan_field(m, 1.0)
        assert zeta["du"] == m.algebra.coord("u") * 1j
        assert zeta["dubar"] == m.algebra.coord("ubar") * (-1j)


def per_theta_chern(model, theta):
    """Reference route: curvature at theta, split, path walk, scalar divided differences."""
    curv = equivariant_curvature(model, theta)
    shared, offsets, soul = split_body(curv)
    grading = curv.grading
    total = model.algebra.zero()
    for i, o in enumerate(offsets):
        total = total + model.algebra.scalar(grading.sign(i) * cmath.exp(o))
    for i, j, prod, nodes in duhamel_paths([soul], offsets):
        if i == j:
            dd = exp_divided_difference(list(nodes))
            total = total + prod[0].scale(grading.sign(i) * dd)
    return GaussianForm(exponent=shared, form=total)


def per_theta_index(model, theta):
    """The index density at theta by the reference route and exact moments."""
    chw = bundle_character(model.bundle_w.weights, model.bundle_w.parities, theta)
    gform = per_theta_chern(model, theta).scale(ahat_squared(theta) / chw)
    top = oriented_volume_coefficient(model, gform.form)
    return gaussian_integral(model, top, gform.exponent) / cmath.pi ** 2


def sloped_soul_model():
    """c-plane-uv with 0.3 du^dv added to odd-term entry (0,2).

    The contraction slope iota_zeta A then has a degree-1 entry, so the soul
    of the curvature depends on theta; the change is a homotopy of the
    superconnection, so the index is unchanged.
    """
    m = c_plane_uv()
    alg = m.algebra
    rows = [list(row) for row in m.odd_term.entries]
    rows[0][2] = rows[0][2] + alg.gen("du").wedge(alg.gen("dv")).scale(0.3)
    m.set_odd_term(SuperMatrix(alg, m.odd_term.grading, rows))
    return m


PLAN_THETAS = (0.3, 1.3, cmath.pi, 2 + 1j, 5.9 + 1j)
PLAN_POINTS = {
    "c_plane_uv": {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j},
    "c_plane": {"z": 0.45 + 0.2j, "xi": -0.3 + 0.9j},
    "zero_op_s1": {"theta": 0.3, "xi": 1.7},
    "sloped_soul_model": {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j},
}


def plan_weights(plan, thetas):
    """The weight formula written out: a row per form, a column per theta.

    Row f holds theta^p times the divided difference of exp at its group's
    nodes, for the form forms_g[p]; ``ChernPlan.weights`` must give these
    rows, and ``ChernPlan.contract`` sums the values against them.
    """
    rows = []
    for nodes, forms in plan.groups:
        if any(o1 for _, o1 in nodes):
            dd = exp_divided_difference([[o0 + o1 * t for t in thetas] for o0, o1 in nodes])
        else:
            dd = [exp_divided_difference([o0 for o0, _ in nodes])] * len(thetas)
        rows += [[x * t**p for x, t in zip(dd, thetas)] for p in range(len(forms))]
    return rows


class TestChernPlan:
    @pytest.mark.parametrize("make", [c_plane_uv, zero_op_s1, lambda: weighted_plane_uv(2),
                                      sloped_soul_model],
                             ids=["c-plane-uv", "zero-op", "weight-2", "sloped-soul"])
    def test_contraction_is_the_weight_rows_against_the_values(self, make, rng):
        m = make()
        plan = chern_plan(m)
        thetas = list(PLAN_THETAS)
        rows = plan_weights(plan, thetas)
        assert len(rows) == len(plan.forms)
        assert plan.weights(thetas) == rows
        numbers = [complex(*rng.standard_normal(2)) for _ in plan.forms]
        assert plan.contract(numbers, thetas) == [
            sum(v * w for v, w in zip(numbers, column)) for column in zip(*rows)]
        zero = m.algebra.zero()
        forms = plan.contract(plan.forms, thetas, zero)
        for j, got in enumerate(forms):
            want = zero
            for f, row in zip(plan.forms, rows):
                want = want + f.scale(row[j])
            assert got == want

    @pytest.mark.parametrize("make", [c_plane, c_plane_uv, zero_op_s1,
                                      sloped_soul_model])
    def test_forms_match_per_theta_route(self, make):
        m = make()
        plan = chern_plan(m)
        pt = full_point(m.algebra, PLAN_POINTS[make.__name__])
        for theta in PLAN_THETAS:
            got = plan.evaluate(theta)
            ref = per_theta_chern(m, theta)
            assert got.exponent == ref.exponent
            a, b = got.evaluate(pt), ref.evaluate(pt)
            assert a.isclose(b, 1e-12 * max(1.0, b.norm_max()))

    @pytest.mark.parametrize("make", [c_plane, c_plane_uv, sloped_soul_model])
    def test_index_density_matches_per_theta_route(self, make):
        m = make()
        for theta in PLAN_THETAS:
            assert abs(integrate_top_form(m, theta) - per_theta_index(m, theta)) < 1e-12

    def test_oscillatory_model_has_theta_dependent_body(self):
        plan = chern_plan(zero_op_s1())
        assert plan.shared[0].is_zero and not plan.shared[1].is_zero
        with pytest.raises(DivergenceError, match="delta_pairing"):
            integrate_top_form(zero_op_s1(), 0.8)

    def test_plane_paths_collapse_to_seven_groups(self):
        # 24 closed paths reach the top degree; they share 7 node multisets,
        # each with the nodes 0, i theta, 2 i theta
        m = c_plane_uv()
        plan = chern_plan(m)
        top = [nodes for nodes, forms in plan.groups
               if not oriented_volume_coefficient(m, forms[0]).is_zero]
        assert len(top) == 7
        for nodes in top:
            assert len(nodes) == 5
            assert {o0 for o0, _ in nodes} == {0} and {o1 for _, o1 in nodes} <= {0, 1j, 2j}

    def test_a_plan_form_with_no_top_component_has_a_zero_top_polynomial(self):
        # the index and pairing routes read .terms and .is_constant of every top
        m = c_plane_uv()
        forms = chern_plan(m).forms
        top_mask, _ = m.algebra.mask_of(m.volume)
        tops = [oriented_volume_coefficient(m, f) for f in forms if top_mask not in f.terms]
        assert len(forms) == 14 and len(tops) == 7
        assert all(isinstance(t, Poly) and t.is_zero and t.is_constant for t in tops)

    def test_theta_dependent_soul_keeps_the_index(self):
        m = sloped_soul_model()
        plan = chern_plan(m)
        assert any(len(forms) > 1 for _, forms in plan.groups)
        ref = c_plane_uv()
        for theta in PLAN_THETAS:
            assert abs(integrate_top_form(m, theta) - integrate_top_form(ref, theta)) < 1e-12
        a = index_character(m, theta_samples=8, fourier_window=4)
        b = index_character(ref, theta_samples=8, fourier_window=4)
        assert max(abs(x - y) for x, y in zip(a.values, b.values)) < 1e-12
        assert all(abs(a.fourier.coeff(n) - b.fourier.coeff(n)) < 1e-12
                   for n in range(-4, 5))

    def test_plan_is_not_stored_on_the_model(self):
        m = c_plane_uv()
        before = dict(vars(m))
        chern_plan(m)
        integrate_top_form(m, 1.3)
        chern_form(m, 1.3, PLAN_POINTS["c_plane_uv"])
        assert vars(m).keys() == before.keys()
        assert all(vars(m)[k] is v for k, v in before.items())


def parsed_plane_model():
    """The parsed c_plane.model with i times its augmented symbol as the odd term."""
    m = parse_model_text(builtin_model_text("c-plane"))
    m.set_odd_term(geometry.augmented_symbol(m).scale(1j))
    return m


try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # declared in the test extra, but skip where it is absent
    hypothesis = None


def taylor_route(model, theta, point):
    """The supertrace of the dense Taylor exponential of the curvature at a point."""
    fnum = equivariant_curvature(model, theta).evaluate(full_point(model.algebra, point))
    return super_exp(fnum).supertrace()


def reduceat_route(model, theta, point):
    """The supertrace of the curvature's exponential at a point by `reduceat_taylor_exp`.

    The Taylor side of `chern_form` is `super_exp`, so its checks read this
    oracle, which shares no code with `kernels.taylor_exp`.
    """
    fnum = equivariant_curvature(model, theta).evaluate(full_point(model.algebra, point))
    expf = reduceat_taylor_exp(to_array(fnum), model.algebra, 1e-15)
    return from_array(model.algebra, fnum.grading, expf).supertrace()


@pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
def test_chern_form_matches_the_taylor_route():
    """Drawn weights, angles and points: `chern_form` against the Taylor route.

    `chern_form` reads the Chern plan for every pair that splits, so its
    oracle is the independent Taylor sum of `reduceat_route` on the
    curvature evaluated at the point.  Models are `weighted_plane_uv(m)` for
    m in +-1..+-4 and the theta-dependent soul of `sloped_soul_model`; both
    routes are entire in theta.  The explicit examples spread their nodes on
    both sides of `supermatrix.SERIES_SPREAD`: with the divided-difference
    series alone, c-plane-uv at theta 20 is 5.8e-13 off, at 100 it raises
    ConvergenceError, and weight 4 at theta 6 is 1e-11 off.
    """
    coordinate = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))

    @hypothesis.settings(max_examples=7, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(st.integers(-4, -1), st.integers(1, 4)).map(weighted_plane_uv),
                      st.floats(-7, 7), coordinate, coordinate)
    @hypothesis.example(sloped_soul_model(), 1.3, 0.45 + 0.2j, -0.3 + 0.9j)
    @hypothesis.example(c_plane_uv(), 20.0, 0.1 + 0j, 0.1j)
    @hypothesis.example(c_plane_uv(), 100.0, -1.1 + 0.4j, 0.7 - 1.6j)
    @hypothesis.example(weighted_plane_uv(4), 6.0, 0.45 + 0.2j, -0.3 + 0.9j)
    def check(m, theta, u, v):
        point = {"u": u, "v": v}
        got = chern_form(m, theta, point)
        ref = reduceat_route(m, theta, point)
        assert got.isclose(ref, 1e-12 * max(1.0, ref.norm_max()))

    check()


POINT_UV = {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j}


def taylor_side(model, theta, point):
    """The Taylor side of `chern_form`, written out: `super_exp` of F0 + theta F1 at the point."""
    f0, f1 = (m.evaluate(full_point(model.algebra, point)) for m in model.curvature)
    return super_exp(f0 + f1.scale(theta)).supertrace()


def non_splitting_model():
    """c-plane-uv with v du added to odd-term entry (0,1): iota_zeta of it is degree 0."""
    m = c_plane_uv()
    rows = [list(row) for row in m.odd_term.entries]
    rows[0][1] = rows[0][1] + m.algebra.gen("du").scale(m.algebra.coord("v"))
    m.set_odd_term(SuperMatrix(m.algebra, m.odd_term.grading, rows))
    return m


class TestPointwiseSides:
    """Which side `chern_form` takes, and what each side returns."""

    @pytest.mark.parametrize("make, theta", [
        (c_plane_uv, 20.0), (c_plane_uv, 40.0), (c_plane_uv, 100.0), (c_plane_uv, 1000.0),
        (lambda: weighted_plane_uv(4), 6.0), (lambda: weighted_plane_uv(4), 8.0),
    ], ids=["uv-20", "uv-40", "uv-100", "uv-1000", "weight-4-6", "weight-4-8"])
    def test_wide_spreads_match_the_taylor_route(self, make, theta, monkeypatch):
        # nodes spread past supermatrix.SERIES_SPREAD: the plan side squares
        # the divided differences, and never runs the Taylor side
        m = make()
        ref = reduceat_route(m, theta, POINT_UV)

        def refuse(x):
            raise AssertionError("a wide spread ran the Taylor side")

        monkeypatch.setattr(pointwise, "super_exp", refuse)
        got = chern_form(m, theta, POINT_UV)
        assert plan_at(m.curvature, theta) is not None
        assert all(cmath.isfinite(c) for c in got.terms.values())
        assert got.isclose(ref, 1e-12 * max(1.0, ref.norm_max()))

    @pytest.mark.parametrize("make, theta", [
        (non_splitting_model, 0.3), (non_splitting_model, 2 + 1j),
    ], ids=["non-splitting-0.3", "non-splitting-complex"])
    def test_taylor_side_is_the_compiled_taylor_route_bit_for_bit(self, make, theta):
        m = make()
        got = chern_form(m, theta, POINT_UV)
        assert got == taylor_side(m, theta, POINT_UV)
        ref = reduceat_route(m, theta, POINT_UV)
        assert got.isclose(ref, 1e-12 * max(1.0, ref.norm_max()))

    def test_taylor_side_builds_no_compiled_table(self, monkeypatch):
        # SuperMatrix.evaluate reads each coefficient with the scalar evaluator
        m = non_splitting_model()
        want = taylor_side(m, 0.3, POINT_UV)

        def refuse(self, algebra, polys):
            raise AssertionError("a scalar evaluation built a CompiledPolys")

        monkeypatch.setattr(polyeval.CompiledPolys, "__init__", refuse)
        for mat in m.curvature:
            mat.evaluate(full_point(m.algebra, POINT_UV))
        assert chern_form(m, 0.3, POINT_UV) == want

    def test_a_pair_the_plan_refuses_compiles_no_plan(self, monkeypatch):
        m = non_splitting_model()
        with pytest.raises(UnsupportedShapeError, match="outside the diagonal body"):
            chern_plan(m)
        with pytest.raises(UnsupportedShapeError, match="outside the diagonal body"):
            pair_plan(m.curvature)

        def refuse(self, theta):
            raise AssertionError("a refused pair evaluated a Chern plan")

        monkeypatch.setattr(ChernPlan, "evaluate", refuse)
        got = chern_form(m, 0.3, POINT_UV)
        with pytest.raises(UnsupportedShapeError, match="outside the diagonal body"):
            plan_at(m.curvature, 0.3)
        assert got == taylor_side(m, 0.3, POINT_UV)

    def test_the_dense_workload_range_takes_the_plan_side(self, monkeypatch):
        # perfbench/dense_op.py draws theta in [0.1, 2 pi - 0.1] on c-plane-uv
        m = c_plane_uv()
        theta = 2 * cmath.pi - 0.1

        def refuse(x):
            raise AssertionError("the dense workload range ran the Taylor side")

        monkeypatch.setattr(pointwise, "super_exp", refuse)
        got = chern_form(m, theta, POINT_UV)
        assert plan_at(m.curvature, theta) is not None
        assert got.isclose(closed_form_reference(m, POINT_UV["u"], POINT_UV["v"], theta), 1e-14)

    def test_latest_theta_memo_is_bit_identical_to_a_fresh_model(self):
        m = c_plane_uv()
        thetas = (1.3, 2.9, 1.3, 1.3 + 0j)
        got = [chern_form(m, theta, POINT_UV).terms for theta in thetas]
        fresh = [chern_form(c_plane_uv(), theta, POINT_UV).terms for theta in thetas]
        assert got == fresh
        assert got[0] == got[2]

    def test_the_theta_memo_keeps_theta_types_apart(self):
        pair = c_plane_uv().curvature
        plan_at.cache_clear()
        first = plan_at(pair, 1.3)
        assert plan_at(pair, 1.3) is first
        assert plan_at(pair, 1.3 + 0j) is not first
        assert plan_at.cache_info().misses == 2

    def test_set_odd_term_and_curvature_assignment_recompile(self):
        m = c_plane_uv()
        theta = 1.3
        before = chern_form(m, theta, POINT_UV)
        plans = [pair_plan(m.curvature)]
        m.set_odd_term(m.odd_term.scale(2.0))  # A^2 stays diagonal: the pair splits
        after = chern_form(m, theta, POINT_UV)
        plans.append(pair_plan(m.curvature))
        assert after.isclose(taylor_route(m, theta, POINT_UV), 1e-13)
        assert not after.isclose(before, 1e-3)
        f0, f1 = m.curvature
        bump = SuperMatrix.diagonal(m.algebra, f0.grading,
                                    [m.algebra.scalar(1.0 if i == 1 else 0.0)
                                     for i in range(f0.dim)])
        m.curvature = (f0 + bump, f1)
        bumped = chern_form(m, theta, POINT_UV)
        plans.append(pair_plan(m.curvature))
        assert bumped.isclose(taylor_route(m, theta, POINT_UV), 1e-13)
        assert not bumped.isclose(after, 1e-3)
        # each new pair built its own plan, the one its curvature gives
        assert len({id(p) for p in plans}) == 3
        assert plans[-1] == curvature_plan(m.curvature)

    @pytest.mark.parametrize("point", [{"u": 1e160, "v": 0}, {"u": 0.3, "v": -1e200j}],
                             ids=["u", "v"])
    def test_overflowing_square_gives_the_zero_form(self, point):
        # |u|^2 = 1e320 overflows, so exp(-|u|^2) is exactly 0 and so is the
        # form: no coefficient may be inf times 0 (NaN) or raise a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chern_form(c_plane_uv(), 1.0, point)
        assert got.is_zero

    @pytest.mark.parametrize("make, theta, point, message", [
        (non_splitting_model, 1.0, {"u": 1e160, "v": 0}, "exponent has entries that are not finite"),
        (non_splitting_model, 1 - 800j, POINT_UV, "Taylor exponential overflows"),
        (parsed_plane_model, 1.0, {"z": 1e160, "xi": 0.5}, "Chern form overflows"),
        (non_splitting_model, 0.3, {"u": 0.5, "v": 1e154}, "trace or norm past the float range"),
        (c_plane_uv, 1 - 800j, POINT_UV, "divided difference of exp out of range"),
    ], ids=["taylor-side-square", "taylor-side-theta", "plan-side-inf-minus-inf",
            "taylor-side-norm", "plan-side-theta"])
    def test_overflow_is_named(self, make, theta, point, message):
        # the unsplit curvature's |u|^2 is inf; its exponential at theta =
        # 1 - 800i exceeds the float range (about e^260 at 1 - 300i); the
        # parsed c-plane's Gaussian exponent is inf - inf at z = 1e160; at
        # v = 1e154 |v|^2 is finite but the trace and the row sums are not;
        # at theta = 1 - 800i the plan's divided differences of exp pass the
        # float range before any point is read
        m = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                chern_form(m, theta, point)

    def test_a_missing_coefficient_of_a_form_of_numbers_is_0j(self):
        # exp(-900) underflows to 0, so the form is empty; a reader of .real
        # (perfbench/dense_op.py) gets a positive complex zero for any ordering
        got = chern_form(c_plane_uv(), 1.0, {"u": 30.0, "v": 0})
        assert got.is_zero
        assert repr(got.coefficient(("dubar", "du"))) == "0j"
        assert repr(got.coefficient(("du", "dubar"))) == "0j"

    def test_a_zero_gaussian_factor_is_not_multiplied_by_inf(self):
        # a coefficient that overflows where the factor underflows: u ubar e^{-u ubar}
        alg = c_plane_uv().algebra
        r2 = alg.coord("u") * alg.coord("ubar")
        g = GaussianForm(-r2, alg.scalar(r2))
        got = g.evaluate(full_point(alg, {"u": 1e160}))
        assert got.is_zero
        finite = g.evaluate(full_point(alg, {"u": 3.0}))
        assert abs(finite.terms[0] - 9 * cmath.exp(-9)) <= 1e-16

    def test_subnormal_gaussian_keeps_its_digits(self):
        # exp(-729) is subnormal, about 2.5e-317: it is not flushed to 0
        m = c_plane_uv()
        got = chern_form(m, 1.0, {"u": 27, "v": 0})
        ref = closed_form_reference(m, 27, 0, 1.0)
        assert set(got.terms) == set(ref.terms)
        for mask, want in ref.terms.items():
            assert 0 < abs(want) < 1e-316
            assert abs(got.terms[mask] - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("theta, point, name", [
        (float("nan"), POINT_UV, "theta"),
        (float("inf"), POINT_UV, "theta"),
        (complex(1.3, -float("inf")), POINT_UV, "theta"),
        (1.3, {"u": float("nan"), "v": 0.3}, "coordinate 'u'"),
        (1.3, {"u": 0.2, "v": complex(0.3, float("inf"))}, "coordinate 'v'"),
    ], ids=["nan-theta", "inf-theta", "complex-inf-theta", "nan-u", "inf-v"])
    @pytest.mark.parametrize("make", [c_plane_uv, non_splitting_model],
                             ids=["plan-side", "taylor-side"])
    def test_non_finite_input_is_named(self, make, theta, point, name):
        m = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                chern_form(m, theta, point)


EXTREME_THETAS = (0, 1e-12, 0.3, 6.2, 100, 1e4, 1e6, -1e6, 1 + 50j, 1 - 50j, 1 - 800j, 1e6j)


@pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
@pytest.mark.parametrize("make", [c_plane_uv, lambda: weighted_plane_uv(3), non_splitting_model],
                         ids=["c-plane-uv", "weight-3", "non-splitting"])
def test_extreme_inputs_give_a_finite_form_or_a_named_error(make):
    """Drawn theta and points over 400 decades: a finite form, or a ValueError or OverflowError.

    Each component of u and v is 0 or +-10^k for k in -200..200, and theta
    runs from 0 to 1e6 along the real and imaginary axes.  A call returns a
    form whose coefficients are finite numbers or raises one of the two
    errors, and emits no RuntimeWarning.  The explicit example is a finite
    point whose trace and row sums overflow on the Taylor side.
    """
    m = make()
    part = st.one_of(st.just(0.0), st.builds(lambda sign, k: sign * 10.0**k,
                                             st.sampled_from([1, -1]), st.integers(-200, 200)))
    coordinate = st.builds(complex, part, part)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(EXTREME_THETAS), coordinate, coordinate)
    @hypothesis.example(0.3, 0.5 + 0j, 1e154 + 0j)
    def check(theta, u, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                form = chern_form(m, theta, {"u": u, "v": v})
            except (ValueError, OverflowError):
                return
        assert all(type(c) is complex and cmath.isfinite(c) for c in form.terms.values())

    check()
