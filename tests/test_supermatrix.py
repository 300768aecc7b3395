import cmath
import math
import warnings

import numpy as np
import pytest

from equichern.augmentation import c_plane_uv
from equichern.exterior import BackendError, ExteriorAlgebra, Form
from equichern.kernels import (
    _array_norm,
    from_array,
    right_operator,
    super_exp_duhamel,
    taylor_exp,
    taylor_parameters,
    to_array,
)
from equichern.polyeval import full_point
from equichern import supermatrix
from equichern.supermatrix import (
    SERIES_SPREAD,
    EVEN,
    ConvergenceError,
    ShapeError,
    SuperMatrix,
    UnsupportedShapeError,
    exp_divided_difference,
    super_exp,
)
from conftest import (
    Grading,
    graded_commutator,
    reduceat_matmul,
    reduceat_table,
    reduceat_taylor_exp,
)

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # declared in the test extra, but skip where it is absent
    hypothesis = None



@pytest.fixture
def grading():
    return Grading.from_string("++--")


def random_supermatrix(algebra, grading, rng, coeff_scale=1.0, soul_degrees=(1, 2)):
    """Random numeric matrix with a diagonal degree-0 body and graded soul."""
    d = grading.dim
    arr = np.zeros((d, d, algebra.n_components), dtype=complex)
    for i in range(d):
        arr[i, i, 0] = coeff_scale * (rng.standard_normal() + 1j * rng.standard_normal())
    masks = [m for m in range(algebra.n_components) if m.bit_count() in soul_degrees]
    for i in range(d):
        for j in range(d):
            for m in masks:
                if rng.random() < 0.3:
                    arr[i, j, m] = coeff_scale * (
                        rng.standard_normal() + 1j * rng.standard_normal())
    return from_array(algebra, grading, arr)


class TestProduct:
    def test_identity(self, plane_algebra, grading, rng):
        m = random_supermatrix(plane_algebra, grading, rng)
        eye = SuperMatrix.identity(plane_algebra, grading).evaluate({})
        assert (eye @ m).isclose(m, 0.0)

    def test_normal_form_squares_to_scalar(self):
        # the constant-coefficient 4x4 endpoint squares to (|u|^2+|v|^2) I
        model = c_plane_uv()
        ltilde = model.odd_term.scale(-1j)
        sq = (ltilde @ ltilde).evaluate(full_point(model.algebra, {"u": 1.0, "v": 1j}))
        eye = SuperMatrix.identity(model.algebra, ltilde.grading).evaluate({})
        assert sq.isclose(eye.scale(2.0), 1e-12)

    def test_associative(self, plane_algebra, grading, rng):
        a = random_supermatrix(plane_algebra, grading, rng)
        b = random_supermatrix(plane_algebra, grading, rng)
        c = random_supermatrix(plane_algebra, grading, rng)
        assert ((a @ b) @ c).isclose(a @ (b @ c), 1e-10)

    def test_distributes(self, plane_algebra, grading, rng):
        a = random_supermatrix(plane_algebra, grading, rng)
        b = random_supermatrix(plane_algebra, grading, rng)
        c = random_supermatrix(plane_algebra, grading, rng)
        assert ((a + b) @ c).isclose(a @ c + b @ c, 1e-10)

    def test_dimension_mismatch(self, plane_algebra, grading):
        small = SuperMatrix.identity(plane_algebra, Grading.from_string("+-")).evaluate({})
        big = SuperMatrix.identity(plane_algebra, grading).evaluate({})
        with pytest.raises(ShapeError):
            small @ big


class TestSupertrace:
    def test_identity_balanced_grading(self, plane_algebra, grading):
        eye = SuperMatrix.identity(plane_algebra, grading).evaluate({})
        assert eye.supertrace().is_zero

    def test_signed_character_diagonal(self, plane_algebra, grading):
        # oracle: direct scalar arithmetic of the signed exponential sum
        theta = 1.37
        diag = [1.0, cmath.exp(2j * theta), cmath.exp(1j * theta), cmath.exp(1j * theta)]
        m = SuperMatrix.diagonal(plane_algebra, grading, diag).evaluate({})
        got = m.supertrace().terms.get(0, 0.0)
        oracle = diag[0] + diag[1] - diag[2] - diag[3]
        assert abs(got - oracle) < 1e-15
        assert abs(got - (1 - cmath.exp(1j * theta)) ** 2) < 1e-14

    def test_vanishes_on_graded_commutators(self, plane_algebra, grading, rng):
        # homogeneous pairs of equal total parity
        for parity in (0, 1):
            for _ in range(10):
                a = _homogeneous(plane_algebra, grading, rng, parity)
                b = _homogeneous(plane_algebra, grading, rng, parity)
                st = graded_commutator(a, b).supertrace()
                assert st.norm_max() < 1e-12


def _homogeneous(algebra, grading, rng, parity):
    d = grading.dim
    arr = np.zeros((d, d, algebra.n_components), dtype=complex)
    for i in range(d):
        for j in range(d):
            for m in range(algebra.n_components):
                if (grading.parities[i] + grading.parities[j] + m.bit_count()) % 2 != parity:
                    continue
                if rng.random() < 0.25:
                    arr[i, j, m] = rng.standard_normal() + 1j * rng.standard_normal()
    return from_array(algebra, grading, arr)


class TestSuperExp:
    def test_exp_zero(self, plane_algebra, grading):
        z = SuperMatrix.zero(plane_algebra, grading)
        eye = SuperMatrix.identity(plane_algebra, grading).evaluate({})
        assert super_exp(z).isclose(eye, 1e-15)

    def test_nilpotent(self, plane_algebra, grading):
        da = plane_algebra.gen("du").evaluate({})
        z = plane_algebra.zero()
        n = SuperMatrix(plane_algebra, grading,
                        [[z, da, z, z], [z, z, z, z], [z, z, z, z], [z, z, z, z]])
        eye = SuperMatrix.identity(plane_algebra, grading).evaluate({})
        assert super_exp(n).isclose(eye + n, 1e-14)

    def test_scaling_additivity_for_scalar_multiples(self, plane_algebra, grading, rng):
        m = random_supermatrix(plane_algebra, grading, rng)
        full = super_exp(m, tol=1e-14)
        half = super_exp(m.scale(0.5), tol=1e-14)
        assert (half @ half).isclose(full, 1e-10)

    def test_backend_and_tol_contracts(self, plane_algebra, grading):
        sym = SuperMatrix.identity(plane_algebra, grading)
        with pytest.raises(BackendError):
            super_exp(sym)
        num = SuperMatrix.identity(plane_algebra, grading).evaluate({})
        with pytest.raises(ValueError):
            super_exp(num, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, -float("inf")])
    def test_tol_that_is_not_positive_is_rejected(self, tol):
        # NaN compares false with everything, so a check of tol <= 0 lets it through
        model = c_plane_uv()
        f0, f1 = model.curvature
        fnum = (f0 + f1.scale(2.0)).evaluate(full_point(model.algebra, {"u": 0.3, "v": 0.1j}))
        with pytest.raises(ValueError, match="tol must be positive"):
            super_exp(fnum, tol=tol)

    def test_curvature_point_against_duhamel(self):
        # the worked curvature at the fixed point, both exponential routes
        from equichern.equivariant import equivariant_curvature

        model = c_plane_uv()
        curv = equivariant_curvature(model, cmath.pi)
        fnum = curv.evaluate(full_point(model.algebra, {"u": 0.0, "v": 0.0}))
        a = super_exp(fnum, tol=1e-14)
        b = super_exp_duhamel(fnum)
        assert a.isclose(b, 1e-10)
        st = a.supertrace()
        fac = (1 - cmath.exp(1j * cmath.pi)) ** 2
        assert abs(st.terms[0] - fac) < 1e-12


def array_exp(A, algebra, grading=None):
    """``super_exp`` on the matrix of a component array (all rows even when None)."""
    grading = grading or Grading((EVEN,) * len(A))
    return to_array(super_exp(from_array(algebra, grading, A)))


# -- the unshifted Taylor route, the oracle of the trace shift ------------------------
#
# The Taylor sum with no trace shift.  Its products are the kernel's, which
# test_products_match_form_wedge checks against Form.wedge.


def unshifted_taylor_exp(A, algebra, tol=1e-12):
    pairs = [np.array(column) for column in zip(*algebra.pair_table())]
    s, m = taylor_parameters(_array_norm(A), tol)
    d, _, K = A.shape
    R = right_operator(A / 2.0**s, pairs)
    term = np.zeros((d, d * K), dtype=np.complex128)
    term[np.arange(d), np.arange(d) * K] = 1.0
    acc = term.copy()
    for k in range(1, m + 1):
        term = term @ R / k
        acc += term
    for _ in range(s):
        acc = acc @ right_operator(acc.reshape(d, d, K), pairs)
    return acc.reshape(d, d, K)


def random_even_array(d, n_gen, rng):
    """A d x d array, even for a random grading, 30 % of its allowed components non-zero."""
    alg = ExteriorAlgebra([f"e{i}" for i in range(n_gen)])
    parities = tuple(int(p) for p in rng.integers(0, 2, d))
    deg = np.array([m.bit_count() for m in range(alg.n_components)])
    p = np.array(parities)
    allowed = (p[:, None, None] + p[None, :, None] + deg) % 2 == 0
    shape = allowed.shape
    arr = np.where(allowed & (rng.random(shape) < 0.3),
                   rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.0)
    return alg, Grading(parities), arr


def random_array(n_gen, rng):
    """A 4x4 array over n_gen generators, 30 % of its components non-zero."""
    alg = ExteriorAlgebra([f"e{i}" for i in range(n_gen)])
    shape = (4, 4, alg.n_components)
    arr = np.where(rng.random(shape) < 0.3,
                   rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.0)
    return alg, arr


class TestTaylorKernel:
    @pytest.mark.parametrize("n_gen", [4, 6])
    def test_products_match_form_wedge(self, n_gen, rng):
        alg, A = random_array(n_gen, rng)
        _, B = random_array(n_gen, rng)
        d, _, K = A.shape
        gr = Grading((0,) * d)
        want = to_array(from_array(alg, gr, A) @ from_array(alg, gr, B))
        pairs = [np.array(column) for column in zip(*alg.pair_table())]
        kernel = A.reshape(d, d * K) @ right_operator(B, pairs)
        oracle = reduceat_matmul(A, B, reduceat_table(alg))
        scale = np.abs(want).max()
        assert np.abs(kernel.reshape(d, d, K) - want).max() <= 1e-12 * scale
        assert np.abs(oracle - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_gen", [4, 6])
    @pytest.mark.parametrize("target", [0.4, 30.0])
    def test_exp_matches_reduceat_route(self, n_gen, target, rng):
        alg, A = random_array(n_gen, rng)
        A *= target / _array_norm(A)
        s, _ = taylor_parameters(_array_norm(A), 1e-12)
        assert s == 0 if target < 0.5 else s >= 5
        got = array_exp(A, alg)
        want = reduceat_taylor_exp(A, alg, 1e-15)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_gen", [2, 4, 6])
    @pytest.mark.parametrize("target", [0.4, 30.0])
    def test_blocked_exp_matches_unblocked_route(self, d, n_gen, target, rng):
        # an even array, such as a curvature, against the route with no trace shift
        alg, gr, A = random_even_array(d, n_gen, rng)
        A *= target / _array_norm(A)
        assert from_array(alg, gr, A).homogeneous_parity() == EVEN
        got = array_exp(A, alg, gr)
        want = unshifted_taylor_exp(A, alg)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_gen", [2, 4, 6])
    @pytest.mark.parametrize("target", [0.4, 30.0])
    def test_inhomogeneous_exp_is_one_block(self, n_gen, target, rng):
        # a matrix of no one parity, under either grading, takes the same route
        alg, A = random_array(n_gen, rng)
        A *= target / _array_norm(A)
        gr = Grading.from_string("+-+-")
        assert from_array(alg, gr, A).homogeneous_parity() != EVEN
        want = unshifted_taylor_exp(A, alg)
        for grading in (None, gr):
            got = array_exp(A, alg, grading)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_unequal_classes_are_one_block(self):
        # no generators: a diagonal body with two even rows and one odd row
        alg = ExteriorAlgebra([])
        body = np.array([0.3, -1.1j, 0.0])
        got = array_exp(np.diag(body)[:, :, None], alg, Grading((0, 0, 1)))
        assert np.abs(got[:, :, 0] - np.diag(np.exp(body))).max() <= 1e-12

    def test_central_shift_factors_out(self, rng):
        alg, gr, A = random_even_array(4, 4, rng)
        A *= 6.0 / _array_norm(A)
        c = 2.3 - 7.9j
        shifted = A.copy()
        shifted[np.arange(4), np.arange(4), 0] += c
        got = array_exp(shifted, alg, gr)
        want = cmath.exp(c) * array_exp(A, alg, gr)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_array_is_identity(self, plane_algebra):
        A = np.zeros((4, 4, plane_algebra.n_components), dtype=complex)
        assert taylor_parameters(0.0, 1e-12) == (0, 0)
        want = np.zeros_like(A)
        want[np.arange(4), np.arange(4), 0] = 1.0
        assert np.array_equal(array_exp(A, plane_algebra), want)

    def test_nilpotent_soul_above_half(self, plane_algebra, grading, rng):
        # exp of a pure soul is its Taylor sum through the generator count,
        # taken here by pure-Python wedge products
        m = random_supermatrix(plane_algebra, grading, rng, coeff_scale=2.0)
        arr = to_array(m)
        arr[:, :, 0] = 0.0
        assert taylor_parameters(_array_norm(arr), 1e-12)[0] > 0
        soul = from_array(plane_algebra, grading, arr)
        term = SuperMatrix.identity(plane_algebra, grading).evaluate({})
        want = term
        for k in range(1, len(plane_algebra.generators) + 1):
            term = (term @ soul).scale(1.0 / k)
            want = want + term
        got = array_exp(arr, plane_algebra)
        want = to_array(want)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_norm_at_the_scaling_boundary(self, plane_algebra):
        assert taylor_parameters(0.5, 1e-12)[0] == 0
        assert taylor_parameters(np.nextafter(0.5, 1.0), 1e-12)[0] == 1
        body = np.array([0.5, -0.5, 0.5j, -0.5j])
        A = np.zeros((4, 4, plane_algebra.n_components), dtype=complex)
        A[np.arange(4), np.arange(4), 0] = body
        assert _array_norm(A) == 0.5
        got = np.diagonal(array_exp(A, plane_algebra)[:, :, 0])
        assert np.abs(got - np.exp(body)).max() <= 1e-12 * np.exp(0.5)

    def test_smaller_tol_never_lowers_the_degree(self):
        norms = [0.0, 1e-300, 1e-8, 0.25, 0.5, float(np.nextafter(0.5, 1.0)),
                 0.75, 1.0, 3.7, 16.0, 40.0, 1e6]
        tols = [1e-2, 1e-6, 1e-10, 1e-12, 1e-14, 1e-16, 1e-20]
        for norm in norms:
            params = [taylor_parameters(norm, tol) for tol in tols]
            assert len({s for s, _ in params}) == 1
            degrees = [m for _, m in params]
            assert degrees == sorted(degrees)

    def test_scaling_is_the_least_that_reaches_half(self):
        # a norm just above a power of two takes one more halving, which
        # log2 of it rounded away
        for norm in (float(np.nextafter(8.0, 9.0)), 2.0**100, 1e308):
            s, _ = taylor_parameters(norm, 1e-12)
            assert norm * 2.0**-s <= 0.5 < norm * 2.0**(1 - s)

    @pytest.mark.parametrize("entry", [5e307, 1e308])
    def test_norm_near_the_float_limit(self, plane_algebra, entry):
        # X = entry E_01 du squares to 0, so exp(X) = I + X exactly; its
        # scaling 2^-s and degree bound tol 2^-s are finite for a finite norm
        X = np.zeros((4, 4, plane_algebra.n_components), dtype=complex)
        X[0, 1, plane_algebra.mask_of(("du",))[0]] = entry
        want = X.copy()
        want[np.arange(4), np.arange(4), 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = taylor_exp(X, plane_algebra)
        assert np.array_equal(got, want)


class TestDuhamel:
    def test_reduces_to_taylor_for_pure_soul(self, plane_algebra, grading, rng):
        m = random_supermatrix(plane_algebra, grading, rng)
        arr = to_array(m)
        arr[:, :, 0] = 0.0  # body zero: series is the degree-truncated Taylor sum
        n = from_array(plane_algebra, grading, arr)
        assert super_exp_duhamel(n).isclose(super_exp(n, tol=1e-15), 1e-11)

    def test_worked_supertrace_matches_closed_form(self, rng):
        from equichern.equivariant import equivariant_curvature
        from equichern.geometry import orientation_sign

        model = c_plane_uv()
        sgn = orientation_sign(model)
        alg = model.algebra
        for _ in range(5):
            u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            theta = rng.uniform(0.3, 5.9)
            curv = equivariant_curvature(model, theta)
            fnum = curv.evaluate(full_point(model.algebra, {"u": u, "v": v}))
            st = super_exp_duhamel(fnum).supertrace()
            it = 1j * theta
            fac = (1 - cmath.exp(1j * theta)) ** 2
            scale = cmath.exp(-(abs(u) ** 2 + abs(v) ** 2)) * fac
            du, dub = alg.gen("du").evaluate({}), alg.gen("dubar").evaluate({})
            dv, dvb = alg.gen("dv").evaluate({}), alg.gen("dvbar").evaluate({})
            vol = (dub * du * dvb * dv).scale(sgn)
            ref = (alg.one().evaluate({}) + (dub * du + dvb * dv).scale(1 / it)
                   - vol.scale(1 / it**2)).scale(scale)
            assert st.isclose(ref, 1e-10 * max(1.0, ref.norm_max()))

    def test_two_by_two_off_diagonal_closed_form(self, plane_algebra):
        # entry (1,2) of exp(diag(alpha,beta) + e12 w) is w (e^a - e^b)/(a - b)
        gr = Grading.from_string("+-")
        alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
        w = plane_algebra.gen("du").evaluate({})
        z = plane_algebra.zero()
        m = SuperMatrix(plane_algebra, gr,
                        [[Form(plane_algebra, {0: alpha}), w], [z, Form(plane_algebra, {0: beta})]])
        out = super_exp_duhamel(m)
        du_mask, _ = plane_algebra.mask_of(("du",))
        got = out.entries[0][1].terms[du_mask]
        oracle = (cmath.exp(alpha) - cmath.exp(beta)) / (alpha - beta)
        assert abs(got - oracle) < 1e-13

    def test_non_diagonal_body_rejected(self, plane_algebra):
        gr = Grading.from_string("+-")
        one = plane_algebra.one().evaluate({})
        m = SuperMatrix(plane_algebra, gr, [[one, one], [one, one]])
        with pytest.raises(UnsupportedShapeError):
            super_exp_duhamel(m)

    def test_a_matrix_of_numbers_gives_number_coefficients(self):
        # each path walk starts from the number 1, so its products of numbers
        # stay numbers; a polynomial 1 would turn them all into polynomials
        model = c_plane_uv()
        f0, f1 = model.curvature
        fnum = (f0 + f1.scale(1.3)).evaluate(full_point(model.algebra, {"u": 0.45, "v": 0.9j}))
        coeffs = [c for row in super_exp_duhamel(fnum).entries for f in row
                  for c in f.terms.values()]
        assert len(coeffs) > 4 and all(type(c) is complex for c in coeffs)

    def test_agreement_on_random_diagonal_body(self, plane_algebra, grading, rng):
        worst = 0.0
        for _ in range(20):
            m = random_supermatrix(plane_algebra, grading, rng, coeff_scale=2.0)
            a = to_array(super_exp(m, tol=1e-14))
            b = to_array(super_exp_duhamel(m))
            worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 1e-10


class TestDividedDifferences:
    def test_first_order_quotient(self):
        a, b = 1.0, 3.0
        assert abs(exp_divided_difference([a, b])
                   - (cmath.exp(a) - cmath.exp(b)) / (a - b)) < 1e-14

    def test_confluent_pair_is_derivative(self):
        assert abs(exp_divided_difference([2.0, 2.0]) - cmath.exp(2.0)) < 1e-14
        assert abs(exp_divided_difference([2.0, 2.0 + 1e-12]) - cmath.exp(2.0)) < 1e-11

    @pytest.mark.parametrize("a, b", [
        (1, 1 + 2e-8), (1, 1 + 1e-6), (3j, 3j + 1e-6j),
        (0, 0.5), (0, 3), (100j, 100.5j), (0, -700),
    ])
    def test_two_nodes_keep_their_digits(self, a, b):
        # the quotient (e^a - e^b)/(a - b) loses about 2^-53/|a - b|: it read
        # 1.1e-9 relative at [1, 1 + 2e-8], so pairs closer than 1 take the series
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x, y = mpmath.mpc(a), mpmath.mpc(b)
            ref = (mpmath.exp(x) - mpmath.exp(y)) / (x - y)
            err = abs(mpmath.mpc(exp_divided_difference([a, b])) - ref) / abs(ref)
        assert err <= 2.2e-16

    @pytest.mark.parametrize("nodes", [[800, 800.5], [800, 900], [0, 720], [710, 710.5, 711]])
    def test_out_of_range_is_named(self, nodes):
        # cmath's unnamed "math range error" of e^x at a node, in the series'
        # e^shift ([800, 800.5] and the triple) or the quotient's e^a, is named
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="divided difference of exp out of range"):
                exp_divided_difference(nodes)

    @pytest.mark.parametrize("nodes", [[710, 0], [0, 710 + 3j], [710, 710, 710], [709.5, 0]])
    def test_value_in_range_past_e709(self, nodes):
        # e^710 alone passes the float range, but the value fits: these three
        # once raised OverflowError; 709.5 keeps the unshifted route
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_divided_difference(nodes)
        with mpmath.workdps(50):
            xs = [mpmath.mpc(x) for x in nodes]
            if len(set(nodes)) == 1:
                ref = mpmath.exp(xs[0]) / mpmath.factorial(len(xs) - 1)
            else:
                ref = (mpmath.exp(xs[0]) - mpmath.exp(xs[1])) / (xs[0] - xs[1])
            assert abs(mpmath.mpc(got) - ref) / abs(ref) <= 1e-15

    def test_fully_confluent(self):
        # exp divided difference at k+1 equal nodes is e^x / k!
        x = 0.31j
        assert abs(exp_divided_difference([x] * 4) - cmath.exp(x) / 6.0) < 1e-14

    def test_symmetry_and_recurrence(self, rng):
        nodes = [complex(rng.standard_normal(), rng.standard_normal())
                 for _ in range(4)]
        base = exp_divided_difference(nodes)
        perm = [nodes[2], nodes[0], nodes[3], nodes[1]]
        assert abs(exp_divided_difference(perm) - base) < 1e-12
        # well-separated recurrence: f[x0..x3] = (f[x1..x3]-f[x0..x2])/(x3-x0)
        hi = exp_divided_difference(nodes[1:])
        lo = exp_divided_difference(nodes[:-1])
        assert abs(base - (hi - lo) / (nodes[3] - nodes[0])) < 1e-10


    def test_series_stops_at_400_terms(self, monkeypatch):
        # the series' safety stop, reached by keeping it past SERIES_SPREAD:
        # the spread r = 200 about the mean 100i needs about e r terms
        monkeypatch.setattr(supermatrix, "SERIES_SPREAD", math.inf)
        with pytest.raises(ConvergenceError, match="did not converge"):
            exp_divided_difference([0, 0, 300j])

    def test_wide_spread_matches_opitz(self):
        # the spread 200 that the series alone cannot sum in 400 terms
        ref = opitz_divided_difference([0, 0, 300j])
        assert abs(exp_divided_difference([0, 0, 300j]) - ref) <= 1e-13 * abs(ref)

    def test_huge_spread_is_scaled_by_float_powers_of_two(self):
        # s = 997: 2^-2s underflows to 0 rather than overflowing an int
        # conversion, and Delta[0, 0, -L]exp = 1/L - 1/L^2 to the last digit
        assert abs(exp_divided_difference([0, 0, -1e300]) - 1e-300) <= 1e-15 * 1e-300
        # the 997 squarings of e^{i y} drift off the unit circle: a named error
        with pytest.raises(OverflowError, match="out of range"):
            exp_divided_difference([0, 0, 1e300j])

    @pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
    def test_every_spread_matches_opitz(self):
        """Drawn node sets of 2-6 nodes spread up to 200 against `opitz_divided_difference`.

        Distinct nodes lie at least spread / 10 apart, on a grid.  When drawn
        so, the first node is repeated exactly (confluent) or moved by
        delta = 1e-9 (near-confluent).  scipy's ``expm`` is off by about
        2^-53 / delta there (6e-8 at nodes 8i, 8i, 8i + 1e-9), so the oracle
        of that set is its first-order expansion in delta, Delta[..., x0] +
        delta Delta[..., x0, x0], whose error is about delta^2.  The
        explicit examples sit just inside and just outside `SERIES_SPREAD`,
        where the squaring takes over.
        """
        sides = set()
        tenth = st.integers(-7, 7).map(lambda n: n / 10)
        unit = st.builds(complex, tenth, tenth)

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.lists(unit, min_size=2, max_size=5, unique=True),
                          st.one_of(st.just(0.0), st.floats(1, 200)),
                          st.builds(complex, st.floats(-3, 3), st.floats(-50, 50)),
                          st.sampled_from([None, 0.0, 1e-9]))
        @hypothesis.example([-1, 1], 0.99 * SERIES_SPREAD, 0j, None)
        @hypothesis.example([-1j, 1j, 0.5j], 1.01 * SERIES_SPREAD, 0j, 0.0)
        @hypothesis.example([-1, 1, 1j], 0.99 * SERIES_SPREAD, 0.3j, 1e-9)
        def check(units, spread, center, cluster):
            nodes = [center + spread * x for x in units]
            ref = 0j
            if cluster:
                ref = cluster * opitz_divided_difference([*nodes, nodes[0], nodes[0]])
            if cluster is not None:
                ref += opitz_divided_difference([*nodes, nodes[0]])
                nodes.append(nodes[0] + cluster)
            else:
                ref = opitz_divided_difference(nodes)
            mean = sum(nodes) / len(nodes)
            sides.add(max(abs(x - mean) for x in nodes) > SERIES_SPREAD)
            assert abs(exp_divided_difference(nodes) - ref) <= 1e-12 * abs(ref)

        check()
        assert sides == {False, True}


def opitz_divided_difference(nodes):
    """Independent oracle: Delta[x0..xk]exp = (exp J)_{0k}, J = diag(x) + superdiagonal 1."""
    from scipy.linalg import expm

    k = len(nodes) - 1
    jordan = np.diag(np.asarray(nodes, dtype=complex)) + np.diag(np.ones(k), 1)
    return expm(jordan)[0, k]


def mixed_node_batch(k):
    """k+1 nodes per column: separated, confluent and nearly confluent columns."""
    theta = 5.9 + 1j
    cols = {
        1: [(1.0, 3.0), (0.5j, -2.0), (2.0, 2.0), (2.0, 2.0 + 1e-12),
            (0.31j, 0.31j + 1e-9), (1j * theta, 2j * theta), (0.0, 0.0)],
        3: [(0.2, -1.1 + 0.4j, 0.7j, 1.5), (0.31j,) * 4,
            (1.0, 1.0, -0.5, -0.5 + 1e-10), (0.0, 1j * theta, 2j * theta, 2j * theta),
            (0.0, 0.3, 0.0, 0.3)],
    }[k]
    return np.array(cols, dtype=complex).T


def numpy_divided_difference(nodes):
    """The replaced batched numpy route, kept as an oracle.

    Nodes along the first axis, any further axes a batch; the confluent
    series of every batch element runs to the term count of the batch's
    largest spread.
    """
    xs = np.asarray(nodes, dtype=complex)
    k = len(xs) - 1
    shift = xs.sum(axis=0) / (k + 1)
    separated = False
    if k == 1:
        scale = np.maximum(1.0, np.maximum(abs(xs[0]), abs(xs[1])))
        separated = abs(xs[0] - xs[1]) >= 1e-8 * scale
    ds = np.where(separated, 0.0, xs - shift)
    r = float(np.abs(ds).max(initial=0.0))
    log_r = math.log(r) if r > 0 else -math.inf
    m_max = 0
    while (r + (m_max + 1) * log_r - math.lgamma(m_max + 2) - math.lgamma(k + 1)
           >= math.log(1e-18)):
        m_max += 1
    prev = np.ones_like(ds)
    coeff = 1.0 / math.factorial(k)
    total = np.full(shift.shape, coeff, dtype=complex)
    for m in range(1, m_max + 1):
        cur = np.empty_like(ds)
        cur[0] = prev[0] * ds[0]
        for j in range(1, k + 1):
            cur[j] = cur[j - 1] + ds[j] * prev[j]
        coeff /= m + k
        total = total + cur[k] * coeff
        prev = cur
    out = np.exp(shift) * total
    if k == 1:
        diff = np.where(separated, xs[0] - xs[1], 1.0)
        out = np.where(separated, (np.exp(xs[0]) - np.exp(xs[1])) / diff, out)
    return out


class TestBatchedDividedDifferences:
    @pytest.mark.parametrize("k", [1, 3])
    def test_batch_matches_scalar_calls(self, k):
        nodes = mixed_node_batch(k)
        batch = exp_divided_difference(nodes)
        assert isinstance(batch, list) and len(batch) == nodes.shape[1]
        for col in range(nodes.shape[1]):
            one = exp_divided_difference(list(nodes[:, col]))
            assert isinstance(one, complex)
            assert batch[col] == one

    @pytest.mark.parametrize("k", [1, 3])
    def test_batch_matches_the_numpy_route(self, k):
        nodes = mixed_node_batch(k)
        batch = exp_divided_difference(nodes)
        ref = numpy_divided_difference(nodes)
        for got, want in zip(batch, ref):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("k", [1, 3])
    def test_batch_matches_opitz_identity(self, k):
        nodes = mixed_node_batch(k)
        batch = exp_divided_difference(nodes)
        for col in range(nodes.shape[1]):
            ref = opitz_divided_difference(nodes[:, col])
            assert abs(batch[col] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_batch_with_a_column_past_e709(self):
        # only the column whose e^x passes the float range is shifted
        nodes = [[710.0, 1.0, 800.0], [0.0, 2.0, 900.0]]
        with pytest.raises(OverflowError, match="divided difference of exp out of range"):
            exp_divided_difference(nodes)
        batch = exp_divided_difference([col[:2] for col in nodes])
        assert batch == [exp_divided_difference([710.0, 0.0]),
                         exp_divided_difference([1.0, 2.0])]
        assert batch[1] == (cmath.exp(1.0) - cmath.exp(2.0)) / (1.0 - 2.0)
        assert math.isclose(batch[0].real, math.exp(355) / 710 * math.exp(355), rel_tol=1e-14)

    def test_batch_of_lists_is_the_array_batch(self):
        # a trailing sequence of any kind is a batch; the node order within a
        # column does not matter (divided differences are symmetric)
        nodes = mixed_node_batch(3)
        lists = exp_divided_difference(nodes[::-1].tolist())
        out = exp_divided_difference(nodes)
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(lists, out))
        assert exp_divided_difference([[], []]) == []
        with pytest.raises(ValueError, match="at least one node"):
            exp_divided_difference([])


class TestInvariants:
    def test_supertrace_derivative_by_finite_differences(self, plane_algebra,
                                                         grading, rng):
        f = random_supermatrix(plane_algebra, grading, rng)
        h = 1e-5

        def val(s):
            return super_exp(f.scale(s), tol=1e-14).supertrace().terms.get(0, 0.0)

        lhs = (val(1 + h) - val(1 - h)) / (2 * h)
        rhs = (f @ super_exp(f, tol=1e-14)).supertrace().terms.get(0, 0.0)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))

    def test_conjugation_invariance(self, plane_algebra, grading, rng):
        f = random_supermatrix(plane_algebra, grading, rng)
        # even invertible degree-0 conjugator: block-diagonal in the grading
        g = np.eye(4, dtype=complex) * 2.0
        g[0, 1] = 0.3 + 0.2j
        g[1, 0] = -0.1j
        g[2, 3] = 0.4
        g[3, 2] = 0.25 - 0.5j
        conj = np.einsum("ij,jkc,kl->ilc", g, to_array(f), np.linalg.inv(g))
        lhs = super_exp(from_array(plane_algebra, grading, conj), tol=1e-14).supertrace()
        rhs = super_exp(f, tol=1e-14).supertrace()
        assert (lhs - rhs).norm_max() < 1e-10

    def test_parity_audit(self, plane_algebra, grading):
        z = plane_algebra.zero()
        du = plane_algebra.gen("du").evaluate({})
        one = plane_algebra.one().evaluate({})
        odd = SuperMatrix(plane_algebra, grading,
                          [[z, z, one, z], [z, z, z, z],
                           [z, z, z, z], [z, z, z, z]])
        assert odd.homogeneous_parity() == 1
        even = SuperMatrix(plane_algebra, grading,
                           [[z, z, du, z], [z, z, z, z],
                            [z, z, z, z], [z, z, z, z]])
        assert even.homogeneous_parity() == 0
        mixed = odd + even
        assert mixed.homogeneous_parity() is None

    def test_is_odd(self, plane_algebra, grading):
        z = plane_algebra.zero()
        du = plane_algebra.gen("du").evaluate({})
        one = plane_algebra.one().evaluate({})

        def single(i, j, f):
            rows = [[z] * 4 for _ in range(4)]
            rows[i][j] = f
            return SuperMatrix(plane_algebra, grading, rows)

        assert SuperMatrix.zero(plane_algebra, grading).is_odd()
        assert single(0, 2, one).is_odd()
        assert single(0, 1, du).is_odd()
        assert not single(0, 2, du).is_odd()
        assert not (single(0, 2, one) + single(0, 2, du)).is_odd()
