import cmath
import sys

import numpy as np
import pytest

from equichern import geometry
from equichern.characters import ahat_squared
from equichern.equivariant import (
    POLE_GUARD_W,
    GaussianForm,
    PoleGuardError,
    bundle_character,
    chern_form,
    chern_plan,
    closedness_residual,
    equivariant_curvature,
    split_body,
    symbolic_chern,
    transverse_chern,
    w_character,
)
from equichern.exterior import NUMERIC, SYMBOLIC, EvaluationError
from equichern.geometry import (
    ActionModel,
    BundleSpec,
    Coordinate,
    SuperMatrix,
    c_plane,
    c_plane_uv,
    cartan_field,
    moment,
    orientation_sign,
    oriented_volume_coefficient,
    zero_op_s1,
)
from equichern.kernels import Blocks, affine_at
from equichern.modelfile import builtin_model_text, parse_model_text
from equichern.quadrature import (
    DivergenceError,
    gaussian_integral,
    index_character,
    integrate_top_form,
)
from equichern.supermatrix import (
    UnsupportedShapeError,
    duhamel_paths,
    exp_divided_difference,
    super_exp,
)
from conftest import weighted_plane_uv


def closed_form_reference(model, u, v, theta):
    """The worked closed form, with the top term read against the oriented volume."""
    alg = model.algebra
    it = 1j * theta
    fac = (1 - cmath.exp(1j * theta)) ** 2
    scale = cmath.exp(-(abs(u) ** 2 + abs(v) ** 2)) * fac
    du, dub = alg.gen("du", NUMERIC), alg.gen("dubar", NUMERIC)
    dv, dvb = alg.gen("dv", NUMERIC), alg.gen("dvbar", NUMERIC)
    pair_sum = dub * du + dvb * dv
    vol = (dub * du * dvb * dv).scale(orientation_sign(model))
    return (alg.one(NUMERIC) + pair_sum.scale(1 / it)
            - vol.scale(1 / it**2)).scale(scale)


def moment_only_model():
    coords = (Coordinate("x", "complex", 1, "base"),)
    e = BundleSpec((0, 1), (0, 1))
    m = ActionModel("moment-only", coords, e)
    m.set_odd_term(SuperMatrix.zero(m.algebra, e.grading(), SYMBOLIC))
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
                                           flat.bundle_e.grading(), SYMBOLIC))
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
                fnum = equivariant_curvature(m, theta).evaluate(m.full_point(point))
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
        # the compiled curvature and the trace-shifted blocked kernel together
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
            fnum = equivariant_curvature(m, theta).evaluate(m.full_point(point))
            ref = super_exp(fnum).supertrace()
            assert got.isclose(ref, 1e-13 * ref.norm_max())

    def test_parsed_model_builds_no_augmented_symbol_per_call(self, monkeypatch):
        m = parse_model_text(builtin_model_text("c-plane"))
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
            sym = symbolic_chern(m, theta).evaluate(m.full_point({"u": u, "v": v}))
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
        got = gf.evaluate(m.full_point({"u": u, "v": v}))
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
                                           flat.bundle_e.grading(), SYMBOLIC))
        assert closedness_residual(flat, 1.0, {"x": 0.7 + 0.1j}) == 0.0

    def test_corrupted_moment_detected(self):
        m = c_plane_uv()
        pt = {"u": 0.45 + 0.2j, "v": -0.3 + 0.9j}
        res = closedness_residual(m, 1.0, pt, moment_perturbation=(1, 1.0))
        assert res > 1e-3

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
        pt = m.full_point({"u": 0.4 - 0.1j, "v": 0.2 + 0.3j})
        fnum = curv.evaluate(pt)
        g = np.eye(4, dtype=complex)
        g[0, 1], g[1, 0], g[2, 3], g[3, 2] = 0.2, -0.3j, 0.15 + 0.1j, 0.4
        g += np.eye(4)
        lhs = super_exp(fnum.similarity(g), tol=1e-14).supertrace()
        rhs = super_exp(fnum, tol=1e-14).supertrace()
        assert (lhs - rhs).norm_max() < 1e-10

    def test_top_coefficient_pole_order(self):
        # (i theta)^2 times the top coefficient converges as theta -> 0
        m = c_plane_uv()
        pt = m.full_point({"u": 0.0, "v": 0.0})
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
    total = model.algebra.zero(SYMBOLIC)
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
    """The replaced ``ChernPlan.weights``: a row per form, a column per theta.

    Row f holds theta^p times the divided difference of exp at its group's
    nodes, for the form forms_g[p]; ``ChernPlan.contract`` sums the values
    against these rows.
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
        numbers = [complex(*rng.standard_normal(2)) for _ in plan.forms]
        assert plan.contract(numbers, thetas) == [
            sum(v * w for v, w in zip(numbers, column)) for column in zip(*rows)]
        zero = m.algebra.zero(SYMBOLIC)
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
        pt = m.full_point(PLAN_POINTS[make.__name__])
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
    return parse_model_text(builtin_model_text("c-plane"))


@pytest.mark.parametrize("make", [c_plane, c_plane_uv, zero_op_s1, sloped_soul_model,
                                  parsed_plane_model])
def test_compiled_curvature_matches_poly_evaluation(make, rng):
    # the compiled route (power tables, one product) against Poly.evaluate
    m = make()
    curv = m.curvature_array
    for theta in (0.3, cmath.pi, 2 + 1j):
        for _ in range(3):
            point = {c.name: complex(*rng.uniform(-1.5, 1.5, 2)) if c.kind == "complex"
                     else rng.uniform(-3, 3) for c in m.coordinates_meta}
            point = m.full_point(point)
            got = Blocks.of(curv.layout).unblock(affine_at(curv, theta, point))
            ref = equivariant_curvature(m, theta).evaluate(point).to_array()
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
