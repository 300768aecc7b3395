import itertools

import pytest

from equichern.exterior import Form
from equichern.ring import (
    AlgebraError,
    AlgebraMismatchError,
    BackendError,
    EvaluationError,
    ExteriorAlgebra,
    Poly,
)

from equichern.pointwise import poly_value
from equichern.polyeval import CompiledPolys

from conftest import eval_grid, random_form, random_poly, term_scale

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # declared in the test extra, but skip where it is absent
    hypothesis = None


class TestWedge:
    def test_adjacent_generators(self, plane_algebra):
        du = plane_algebra.gen("du")
        dubar = plane_algebra.gen("dubar")
        prod = du.wedge(dubar)
        mask, _ = plane_algebra.mask_of(("du", "dubar"))
        assert prod.terms[mask].constant_value() == 1.0

    def test_transposition_sign(self, plane_algebra):
        du = plane_algebra.gen("du")
        dubar = plane_algebra.gen("dubar")
        assert dubar.wedge(du) == -du.wedge(dubar)

    def test_one_form_squares_to_zero(self, plane_algebra):
        a = plane_algebra.gen("du") + plane_algebra.gen("dv")
        assert a.wedge(a).is_zero

    def test_bilinear_and_associative(self, plane_algebra, rng):
        a, b, c = (random_form(plane_algebra, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c

    def test_algebra_mismatch(self, plane_algebra):
        other = ExteriorAlgebra(["dx"], ["x"])
        with pytest.raises(AlgebraMismatchError):
            plane_algebra.gen("du").wedge(other.gen("dx"))

    @pytest.mark.parametrize("conjugates", [{"u": "w"}, {"u": "v", "v": "ubar"}])
    def test_conjugates_must_be_disjoint_declared_coordinates(self, conjugates):
        with pytest.raises(AlgebraError):
            ExteriorAlgebra(["du"], ["u", "ubar", "v"], conjugates=conjugates)

    def test_odd_anticommutativity(self, plane_algebra, rng):
        for _ in range(20):
            a = random_form(plane_algebra, rng, degrees={1})
            b = random_form(plane_algebra, rng, degrees={1})
            assert a * b == -(b * a)


class TestMaskOf:
    def test_sign_is_permutation_parity(self, plane_algebra):
        gens = plane_algebra.generators
        for size in range(len(gens) + 1):
            for names in itertools.permutations(gens, size):
                idx = [gens.index(n) for n in names]
                inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
                assert plane_algebra.mask_of(names) == (sum(1 << i for i in idx),
                                                        (-1) ** inversions)

    def test_repeated_generator_rejected(self, plane_algebra):
        with pytest.raises(AlgebraError, match="repeated"):
            plane_algebra.mask_of(("dv", "du", "dv"))

    def test_unknown_generator_rejected(self, plane_algebra):
        for read in (plane_algebra.mask_of, plane_algebra.one().coefficient):
            with pytest.raises(AlgebraError, match="unknown generator 'dq'"):
                read(("du", "dq"))


class TestInteriorProduct:
    def test_liouville_contraction(self):
        alg = ExteriorAlgebra(["dtheta", "dxi"], ["theta", "xi"])
        form = alg.scalar(alg.coord("xi")) * alg.gen("dtheta")
        x_big = 2.5
        out = form.interior({"dtheta": x_big})
        assert out == alg.scalar(x_big * alg.coord("xi"))

    def test_degree_zero_input(self, plane_algebra):
        assert plane_algebra.one().interior({"du": 1.0}).is_zero

    def test_nilpotency_exact_on_single_component(self, plane_algebra, rng):
        # one nonzero component: the cancellation shares one float path, so
        # the result is exactly empty
        vec = {"du": 1.5 - 0.25j}
        for _ in range(20):
            omega = random_form(plane_algebra, rng, degrees={2, 3})
            assert omega.interior(vec).interior(vec).is_zero

    def test_nilpotency_general_fields(self, plane_algebra, rng):
        # Grassmann cancellation is structural; mixed components leave only
        # coefficient roundoff (double-precision products in two orders)
        vec = {"du": random_poly(plane_algebra, rng),
               "dv": -0.75,
               "dvbar": random_poly(plane_algebra, rng)}
        for _ in range(20):
            omega = random_form(plane_algebra, rng, degrees={2, 3})
            out = omega.interior(vec).interior(vec)
            assert out.norm_max() < 1e-12

    def test_graded_derivation_degree_minus_one(self, plane_algebra, rng):
        vec = {"du": 1.5 + 0.5j, "dv": -0.25j}
        a = random_form(plane_algebra, rng, degrees={1})
        b = random_form(plane_algebra, rng, degrees={1})
        lhs = (a * b).interior(vec)
        rhs = a.interior(vec) * b - a * b.interior(vec)
        assert lhs == rhs


class TestExteriorDerivative:
    def test_coordinate_differential(self, plane_algebra):
        f = plane_algebra.scalar(plane_algebra.coord("u"))
        assert f.d() == plane_algebra.gen("du")

    def test_leibniz(self, plane_algebra):
        u = plane_algebra.coord("u")
        vbar = plane_algebra.coord("vbar")
        d = plane_algebra.scalar(u * vbar).d()
        expected = (plane_algebra.gen("du").scale(vbar)
                    + plane_algebra.gen("dvbar").scale(u))
        assert d == expected

    def test_d_squared_zero(self, plane_algebra, rng):
        for _ in range(20):
            f = random_form(plane_algebra, rng)
            assert f.d().d().is_zero

    def test_numeric_backend_rejected(self, plane_algebra):
        with pytest.raises(BackendError):
            plane_algebra.one().evaluate({}).d()

    def test_cartan_formula_on_functions(self, plane_algebra, rng):
        # (d iota + iota d) f = derivative of f along the linear field
        vec = {"du": plane_algebra.coord("u") * 2.0,
               "dvbar": plane_algebra.coord("vbar") * (-1.5)}
        for _ in range(10):
            f = plane_algebra.scalar(random_poly(plane_algebra, rng))
            lhs = f.d().interior(vec) + f.interior(vec).d()
            p = f.terms.get(0, plane_algebra.const(0))
            directional = (p.diff("u") * (plane_algebra.coord("u") * 2.0)
                           + p.diff("vbar") * (plane_algebra.coord("vbar") * (-1.5)))
            assert lhs == plane_algebra.scalar(directional)


class TestEvaluate:
    def test_direct_substitution(self, plane_algebra):
        u = plane_algebra.coord("u")
        form = plane_algebra.gen("du").scale(u) + plane_algebra.gen("dv")
        out = form.evaluate({"u": 2 + 1j, "v": 0})
        du_mask, _ = plane_algebra.mask_of(("du",))
        dv_mask, _ = plane_algebra.mask_of(("dv",))
        assert out.terms[du_mask] == 2 + 1j
        assert out.terms[dv_mask] == 1.0

    def test_differential_matches_finite_differences(self, plane_algebra):
        # oracle: central differences of u*ubar in each independent variable
        u, ubar = plane_algebra.coord("u"), plane_algebra.coord("ubar")
        form = plane_algebra.scalar(u * ubar).d()
        pt = {"u": 1 + 1j, "ubar": 1 - 1j}
        out = form.evaluate(pt)
        h = 1e-6

        def f(uu, ub):
            return uu * ub

        fd_u = (f(pt["u"] + h, pt["ubar"]) - f(pt["u"] - h, pt["ubar"])) / (2 * h)
        fd_ubar = (f(pt["u"], pt["ubar"] + h) - f(pt["u"], pt["ubar"] - h)) / (2 * h)
        du_mask, _ = plane_algebra.mask_of(("du",))
        dubar_mask, _ = plane_algebra.mask_of(("dubar",))
        assert abs(out.terms[du_mask] - fd_u) < 1e-8
        assert abs(out.terms[dubar_mask] - fd_ubar) < 1e-8
        assert abs(out.terms[du_mask] - (1 - 1j)) < 1e-8
        assert abs(out.terms[dubar_mask] - (1 + 1j)) < 1e-8

    def test_zero(self, plane_algebra):
        assert plane_algebra.zero().evaluate({}).is_zero

    def test_missing_coordinate_named(self, plane_algebra):
        form = plane_algebra.scalar(plane_algebra.coord("vbar"))
        with pytest.raises(EvaluationError, match="vbar"):
            form.evaluate({"u": 1.0})

    def test_homomorphism_under_wedge(self, plane_algebra, rng):
        point = {c: complex(rng.standard_normal(), rng.standard_normal())
                 for c in plane_algebra.coordinates}
        for _ in range(100):
            a = random_form(plane_algebra, rng)
            b = random_form(plane_algebra, rng)
            lhs = (a * b).evaluate(point)
            rhs = a.evaluate(point) * b.evaluate(point)
            assert lhs.isclose(rhs, 1e-12 * max(1.0, lhs.norm_max()))
            lhs_sum = (a + b).evaluate(point)
            rhs_sum = a.evaluate(point) + b.evaluate(point)
            assert lhs_sum.isclose(rhs_sum, 1e-12)


@pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
class TestEvaluateOracle:
    """``Poly.evaluate`` and ``Form.evaluate`` (the plain-Python scalar
    evaluator ``pointwise.poly_value``) against the compiled table
    ``CompiledPolys.entries`` and the term-by-term numpy loop
    ``conftest.eval_grid``, at drawn points of scalars, on drawn polynomials."""

    @staticmethod
    def strategies(algebra):
        number = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
        exponents = st.tuples(*[st.integers(0, 3)] * len(algebra.coordinates))
        polys = st.dictionaries(exponents, number, max_size=6).map(
            lambda terms: Poly(algebra, terms))
        points = st.fixed_dictionaries({c: number for c in algebra.coordinates})
        return polys, points

    def test_poly_matches_the_term_loop(self, plane_algebra):
        polys, points = self.strategies(plane_algebra)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(polys, points)
        def check(p, point):
            got = p.evaluate(point)
            assert isinstance(got, complex)
            assert abs(got - eval_grid(p, point)) <= 1e-14 * term_scale(p, point)

        check()

    def test_form_matches_the_term_loop(self, plane_algebra):
        polys, points = self.strategies(plane_algebra)
        forms = st.dictionaries(st.integers(0, plane_algebra.n_components - 1), polys,
                                max_size=4).map(lambda t: Form(plane_algebra, t))

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @hypothesis.given(forms, points)
        def check(f, point):
            got = f.evaluate(point)
            assert set(got.terms) <= set(f.terms)
            assert all(type(c) is complex for c in got.terms.values())
            for mask, p in f.terms.items():
                want = eval_grid(p, point)
                assert abs(got.terms.get(mask, 0) - want) <= 1e-14 * term_scale(p, point)

        check()

    def test_scalar_evaluator_matches_the_compiled_table(self, plane_algebra):
        polys, points = self.strategies(plane_algebra)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.lists(polys, min_size=1, max_size=4), points)
        def check(ps, point):
            table = CompiledPolys(plane_algebra, ps).entries(point)
            for p, compiled in zip(ps, table):
                got = poly_value(p, point)
                scale = term_scale(p, point)
                assert abs(got - compiled) <= 1e-14 * scale
                assert abs(got - eval_grid(p, point)) <= 1e-14 * scale
                assert got == p.evaluate(point)

        check()

    def test_the_first_missing_coordinate_is_named(self, plane_algebra):
        polys, points = self.strategies(plane_algebra)
        coords = plane_algebra.coordinates

        @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
        @hypothesis.given(polys, points, st.sets(st.sampled_from(coords), min_size=1))
        def check(p, point, dropped):
            rest = {c: x for c, x in point.items() if c not in dropped}
            read = [c for k, c in enumerate(coords) if any(m[k] for m in p.terms)]
            missing = [c for c in read if c in dropped]
            if not missing:
                assert p.evaluate(rest) == p.evaluate(point)
                return
            # the compiled table names the same coordinate
            for evaluate in (p.evaluate, CompiledPolys(plane_algebra, p).entries):
                with pytest.raises(EvaluationError, match=f"coordinate {missing[0]!r}$"):
                    evaluate(rest)

        check()

    def test_a_missing_coordinate_is_named(self, plane_algebra):
        polys, points = self.strategies(plane_algebra)

        @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
        @hypothesis.given(polys, points)
        def check(p, point):
            form = plane_algebra.scalar(p)
            for k, name in enumerate(plane_algebra.coordinates):
                if not any(m[k] for m in p.terms):
                    continue
                rest = {c: x for c, x in point.items() if c != name}
                for evaluate in (p.evaluate, form.evaluate):
                    with pytest.raises(EvaluationError, match=f"coordinate {name!r}$"):
                        evaluate(rest)

        check()


class TestPoly:
    def test_leibniz_on_random_products(self, plane_algebra, rng):
        for _ in range(25):
            p = random_poly(plane_algebra, rng)
            q = random_poly(plane_algebra, rng)
            lhs = (p * q).diff("u")
            rhs = p.diff("u") * q + p * q.diff("u")
            assert lhs == rhs

    def test_commutative_associative(self, plane_algebra, rng):
        p, q, r = (random_poly(plane_algebra, rng) for _ in range(3))
        assert p * q == q * p
        assert p + q == q + p
        lhs, rhs = (p * q) * r, p * (q * r)
        assert ((lhs - rhs).max_abs_coeff()
                <= 1e-14 * max(1.0, lhs.max_abs_coeff()))

    def test_zero_coefficients_absent(self, plane_algebra):
        p = plane_algebra.coord("u") - plane_algebra.coord("u")
        assert p.terms == {}

    def test_eval_grid_matches_pointwise(self, plane_algebra, rng):
        p = random_poly(plane_algebra, rng)
        arrays = {c: rng.standard_normal(5) + 1j * rng.standard_normal(5)
                  for c in plane_algebra.coordinates}
        grid = p.eval_grid(arrays)
        for k in range(5):
            pt = {c: arrays[c][k] for c in plane_algebra.coordinates}
            # the term-by-term numpy loop, at each point of the grid
            assert abs(grid[k] - eval_grid(p, pt)) < 1e-12
