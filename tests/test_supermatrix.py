import cmath
import math

import numpy as np
import pytest

from equichern.exterior import NUMERIC, SYMBOLIC, BackendError, ExteriorAlgebra, Form
from equichern.geometry import c_plane_uv
from equichern.kernels import Blocks, _array_norm, is_even, taylor_exp_array
from equichern.supermatrix import (
    ODD,
    ConvergenceError,
    Grading,
    ShapeError,
    SuperMatrix,
    UnsupportedShapeError,
    block_layout,
    exp_divided_difference,
    graded_commutator,
    super_exp,
    super_exp_duhamel,
    taylor_parameters,
)



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
    return SuperMatrix.from_array(algebra, grading, arr)


class TestProduct:
    def test_identity(self, plane_algebra, grading, rng):
        m = random_supermatrix(plane_algebra, grading, rng)
        eye = SuperMatrix.identity(plane_algebra, grading, NUMERIC)
        assert (eye @ m).isclose(m, 0.0)

    def test_normal_form_squares_to_scalar(self):
        # the constant-coefficient 4x4 endpoint squares to (|u|^2+|v|^2) I
        model = c_plane_uv()
        ltilde = model.odd_term.scale(-1j)
        sq = (ltilde @ ltilde).evaluate(model.full_point({"u": 1.0, "v": 1j}))
        eye = SuperMatrix.identity(model.algebra, ltilde.grading, NUMERIC)
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
        small = SuperMatrix.identity(plane_algebra, Grading.from_string("+-"), NUMERIC)
        big = SuperMatrix.identity(plane_algebra, grading, NUMERIC)
        with pytest.raises(ShapeError):
            small @ big


class TestSupertrace:
    def test_identity_balanced_grading(self, plane_algebra, grading):
        eye = SuperMatrix.identity(plane_algebra, grading, NUMERIC)
        assert eye.supertrace().is_zero

    def test_signed_character_diagonal(self, plane_algebra, grading):
        # oracle: direct scalar arithmetic of the signed exponential sum
        theta = 1.37
        diag = [1.0, cmath.exp(2j * theta), cmath.exp(1j * theta), cmath.exp(1j * theta)]
        m = SuperMatrix.diagonal(plane_algebra, grading, diag, NUMERIC)
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
    return SuperMatrix.from_array(algebra, grading, arr)


class TestSuperExp:
    def test_exp_zero(self, plane_algebra, grading):
        z = SuperMatrix.zero(plane_algebra, grading, NUMERIC)
        eye = SuperMatrix.identity(plane_algebra, grading, NUMERIC)
        assert super_exp(z).isclose(eye, 1e-15)

    def test_nilpotent(self, plane_algebra, grading):
        da = plane_algebra.gen("du", NUMERIC)
        z = plane_algebra.zero(NUMERIC)
        n = SuperMatrix(plane_algebra, grading,
                        [[z, da, z, z], [z, z, z, z], [z, z, z, z], [z, z, z, z]])
        eye = SuperMatrix.identity(plane_algebra, grading, NUMERIC)
        assert super_exp(n).isclose(eye + n, 1e-14)

    def test_scaling_additivity_for_scalar_multiples(self, plane_algebra, grading, rng):
        m = random_supermatrix(plane_algebra, grading, rng)
        full = super_exp(m, tol=1e-14)
        half = super_exp(m.scale(0.5), tol=1e-14)
        assert (half @ half).isclose(full, 1e-10)

    def test_backend_and_tol_contracts(self, plane_algebra, grading):
        sym = SuperMatrix.identity(plane_algebra, grading, SYMBOLIC)
        with pytest.raises(BackendError):
            super_exp(sym)
        num = SuperMatrix.identity(plane_algebra, grading, NUMERIC)
        with pytest.raises(ValueError):
            super_exp(num, tol=0.0)

    def test_curvature_point_against_duhamel(self):
        # the worked curvature at the fixed point, both exponential routes
        from equichern.equivariant import equivariant_curvature

        model = c_plane_uv()
        curv = equivariant_curvature(model, cmath.pi)
        fnum = curv.evaluate(model.full_point({"u": 0.0, "v": 0.0}))
        a = super_exp(fnum, tol=1e-14)
        b = super_exp_duhamel(fnum)
        assert a.isclose(b, 1e-10)
        st = a.supertrace()
        fac = (1 - cmath.exp(1j * cmath.pi)) ** 2
        assert abs(st.terms[0] - fac) < 1e-12


# -- the replaced Taylor route, kept as an oracle for taylor_exp_array ----------------
#
# Wedge products by gathering every pair (a, b) of disjoint components, one
# batched matmul per pair and a reduceat over the pairs of each result
# component c = a | b; the Taylor sum stops adaptively.  The signs come from
# Form.wedge, not from the kernel's table.


def reduceat_table(algebra):
    ai, bi, sg, starts = [], [], [], []
    for c in range(algebra.n_components):
        starts.append(len(ai))
        for a in range(algebra.n_components):
            if a & c == a:
                left = Form(algebra, NUMERIC, {a: 1.0})
                right = Form(algebra, NUMERIC, {c ^ a: 1.0})
                ai.append(a)
                bi.append(c ^ a)
                sg.append(left.wedge(right).terms[c])
    return np.array(ai), np.array(bi), np.array(sg), np.array(starts)


def reduceat_matmul(A, B, table):
    ai, bi, sg, starts = table
    ap = np.ascontiguousarray((A[:, :, ai] * sg).transpose(2, 0, 1))
    bp = np.ascontiguousarray(B[:, :, bi].transpose(2, 0, 1))
    return np.add.reduceat(ap @ bp, starts, axis=0).transpose(1, 2, 0)


def reduceat_taylor_exp(A, algebra, tol):
    table = reduceat_table(algebra)
    norm = _array_norm(A)
    s = 0 if norm <= 0.5 else max(0, int(np.ceil(np.log2(norm / 0.5))))
    As = A / 2.0**s
    d = A.shape[0]
    acc = np.zeros_like(A)
    acc[np.arange(d), np.arange(d), 0] = 1.0
    term = acc.copy()
    for k in range(1, 120):
        term = reduceat_matmul(term, As, table) / k
        acc += term
        if np.abs(term).max() < tol * max(np.abs(acc).max(), 1.0):
            break
    else:
        raise AssertionError("oracle Taylor sum did not converge")
    for _ in range(s):
        acc = reduceat_matmul(acc, acc, table)
    return acc


# -- the unblocked, unshifted Taylor route, kept as an oracle -------------------------
#
# The right-multiplication operator as a dense (d 2^n)^2 matrix over the whole
# row space, built by 4-D fancy assignment, and the Taylor sum with no trace
# shift: the kernel taylor_exp_array had before the grading blocks.


def full_right_operator(B, table):
    ai, bi, ci, sg = map(np.array, zip(*table))
    d, _, K = B.shape
    R = np.zeros((d, K, d, K), dtype=np.complex128)
    R[:, ai, :, ci] = (B[:, :, bi] * sg).transpose(2, 0, 1)
    return R.reshape(d * K, d * K)


def unshifted_taylor_exp(A, algebra, tol=1e-12):
    table = algebra.pair_table()
    s, m = taylor_parameters(_array_norm(A), tol)
    d, _, K = A.shape
    R = full_right_operator(A / 2.0**s, table)
    term = np.zeros((d, d * K), dtype=np.complex128)
    term[np.arange(d), np.arange(d) * K] = 1.0
    acc = term.copy()
    for k in range(1, m + 1):
        term = term @ R / k
        acc += term
    for _ in range(s):
        acc = acc @ full_right_operator(acc.reshape(d, d, K), table)
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


# -- the replaced numpy construction of block_layout, kept as an oracle ---------------


def numpy_block_layout(algebra, parities, even):
    """Every field of the layout by the array formulas block_layout had before."""
    K = algebra.n_components
    d = len(parities)
    p = np.asarray(parities, dtype=int)
    degrees = np.array([m.bit_count() for m in range(K)])
    cls = ((p[:, None] + degrees[None, :]) % 2).ravel()
    nb = 2 if even and 2 * cls.sum() == d * K else 1
    if nb == 1:
        cls = np.zeros_like(cls)
    h = d * K // nb
    where = np.empty(d * K, dtype=int)
    where[np.argsort(cls, kind="stable")] = np.arange(d * K)
    q, t = where // h, where % h
    index = (q * d * h + np.arange(d)[:, None] * h + t).reshape(d, d, K)
    ai, bi, ci, sg = map(np.array, zip(*algebra.pair_table()))
    j, k = (x.ravel()[:, None] for x in np.indices((d, d)))
    rows, cols = j * K + ai, k * K + ci
    keep = (cls[rows] == cls[cols]).ravel()
    cls2 = cls.reshape(d, K)
    masks = np.flatnonzero((cls2 == cls2[:, :1]).all(axis=0))
    diag = np.arange(d)
    return {"shape": (nb, d, h), "index": index.ravel().tolist(),
            "dest": (q[rows] * h * h + t[rows] * h + t[cols]).ravel()[keep].tolist(),
            "src": index[j, k, bi].ravel()[keep].tolist(),
            "sign": np.broadcast_to(sg, rows.shape).ravel()[keep].tolist(),
            "trace_masks": tuple(masks.tolist()),
            "trace_index": index[diag, diag][:, masks].ravel(order="F").tolist(),
            "signs": np.where(p == ODD, -1.0, 1.0).tolist()}


class TestBlockLayout:
    @pytest.mark.parametrize("parities, n_gen, even", [
        ((0, 1), 4, True),            # balanced, two class blocks
        ((0, 0, 1, 1), 2, True),
        ((0, 0, 1), 3, True),         # odd rank: the classes still split evenly
        ((0, 0, 1), 0, True),         # no generators, unequal classes: one block
        ((0, 1, 1), 0, True),
        ((1, 0, 1, 0), 2, False),     # an array that is not even: one block
        ((0, 0, 0, 0), 4, False),
    ])
    def test_fields_match_the_numpy_construction(self, parities, n_gen, even):
        alg = ExteriorAlgebra([f"e{i}" for i in range(n_gen)])
        layout = block_layout(alg, parities, even)
        want = numpy_block_layout(alg, parities, even)
        assert layout.shape == want["shape"]
        assert layout.trace_masks == want["trace_masks"]
        for name in ("index", "dest", "src", "trace_index", "signs"):
            assert list(getattr(layout, name)) == want[name], name
        # the signs as complex pairs
        assert list(layout.sign[::2]) == want["sign"] and not any(layout.sign[1::2])


class TestTaylorKernel:
    @pytest.mark.parametrize("n_gen", [4, 6])
    def test_products_match_form_wedge(self, n_gen, rng):
        alg, A = random_array(n_gen, rng)
        _, B = random_array(n_gen, rng)
        d, _, K = A.shape
        gr = Grading((0,) * d)
        want = (SuperMatrix.from_array(alg, gr, A)
                @ SuperMatrix.from_array(alg, gr, B)).to_array()
        layout = Blocks.of(block_layout(alg, gr.parities, even=False))
        kernel = layout.unblock(layout.block(A) @ layout.operator(layout.block(B)))
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
        got = taylor_exp_array(A, alg)
        want = reduceat_taylor_exp(A, alg, 1e-15)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_gen", [2, 4, 6])
    @pytest.mark.parametrize("target", [0.4, 30.0])
    def test_blocked_exp_matches_unblocked_route(self, d, n_gen, target, rng):
        alg, gr, A = random_even_array(d, n_gen, rng)
        A *= target / _array_norm(A)
        assert is_even(A, gr.parities)
        assert block_layout(alg, gr.parities, even=True).shape == (2, d, d * 2**(n_gen - 1))
        got = taylor_exp_array(A, alg, grading=gr)
        want = unshifted_taylor_exp(A, alg)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_gen", [2, 4, 6])
    @pytest.mark.parametrize("target", [0.4, 30.0])
    def test_inhomogeneous_exp_is_one_block(self, n_gen, target, rng):
        alg, A = random_array(n_gen, rng)
        A *= target / _array_norm(A)
        gr = Grading.from_string("+-+-")
        assert not is_even(A, gr.parities)
        assert block_layout(alg, gr.parities, even=False).shape == (1, 4, 4 * 2**n_gen)
        want = unshifted_taylor_exp(A, alg)
        for grading in (None, gr):
            got = taylor_exp_array(A, alg, grading=grading)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_unequal_classes_are_one_block(self):
        # no generators: the classes are the parities themselves
        alg = ExteriorAlgebra([])
        assert block_layout(alg, (0, 0, 1), even=True).shape == (1, 3, 3)
        assert block_layout(alg, (0, 1), even=True).shape == (2, 2, 1)
        body = np.array([0.3, -1.1j, 0.0])
        got = taylor_exp_array(np.diag(body)[:, :, None], alg, grading=Grading((0, 0, 1)))
        assert np.abs(got[:, :, 0] - np.diag(np.exp(body))).max() <= 1e-12

    def test_central_shift_factors_out(self, rng):
        alg, gr, A = random_even_array(4, 4, rng)
        A *= 6.0 / _array_norm(A)
        c = 2.3 - 7.9j
        shifted = A.copy()
        shifted[np.arange(4), np.arange(4), 0] += c
        got = taylor_exp_array(shifted, alg, grading=gr)
        want = cmath.exp(c) * taylor_exp_array(A, alg, grading=gr)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_array_is_identity(self, plane_algebra):
        A = np.zeros((4, 4, plane_algebra.n_components), dtype=complex)
        assert taylor_parameters(0.0, 1e-12) == (0, 0)
        want = np.zeros_like(A)
        want[np.arange(4), np.arange(4), 0] = 1.0
        assert np.array_equal(taylor_exp_array(A, plane_algebra), want)

    def test_nilpotent_soul_above_half(self, plane_algebra, grading, rng):
        # exp of a pure soul is its Taylor sum through the generator count,
        # taken here by pure-Python wedge products
        m = random_supermatrix(plane_algebra, grading, rng, coeff_scale=2.0)
        arr = m.to_array()
        arr[:, :, 0] = 0.0
        assert taylor_parameters(_array_norm(arr), 1e-12)[0] > 0
        soul = SuperMatrix.from_array(plane_algebra, grading, arr)
        term = SuperMatrix.identity(plane_algebra, grading, NUMERIC)
        want = term
        for k in range(1, len(plane_algebra.generators) + 1):
            term = (term @ soul).scale(1.0 / k)
            want = want + term
        got = taylor_exp_array(arr, plane_algebra)
        want = want.to_array()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_norm_at_the_scaling_boundary(self, plane_algebra):
        assert taylor_parameters(0.5, 1e-12)[0] == 0
        assert taylor_parameters(np.nextafter(0.5, 1.0), 1e-12)[0] == 1
        body = np.array([0.5, -0.5, 0.5j, -0.5j])
        A = np.zeros((4, 4, plane_algebra.n_components), dtype=complex)
        A[np.arange(4), np.arange(4), 0] = body
        assert _array_norm(A) == 0.5
        got = np.diagonal(taylor_exp_array(A, plane_algebra)[:, :, 0])
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


class TestDuhamel:
    def test_reduces_to_taylor_for_pure_soul(self, plane_algebra, grading, rng):
        m = random_supermatrix(plane_algebra, grading, rng)
        arr = m.to_array()
        arr[:, :, 0] = 0.0  # body zero: series is the degree-truncated Taylor sum
        n = SuperMatrix.from_array(plane_algebra, grading, arr)
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
            fnum = curv.evaluate(model.full_point({"u": u, "v": v}))
            st = super_exp_duhamel(fnum).supertrace()
            it = 1j * theta
            fac = (1 - cmath.exp(1j * theta)) ** 2
            scale = cmath.exp(-(abs(u) ** 2 + abs(v) ** 2)) * fac
            du, dub = alg.gen("du", NUMERIC), alg.gen("dubar", NUMERIC)
            dv, dvb = alg.gen("dv", NUMERIC), alg.gen("dvbar", NUMERIC)
            vol = (dub * du * dvb * dv).scale(sgn)
            ref = (alg.one(NUMERIC) + (dub * du + dvb * dv).scale(1 / it)
                   - vol.scale(1 / it**2)).scale(scale)
            assert st.isclose(ref, 1e-10 * max(1.0, ref.norm_max()))

    def test_two_by_two_off_diagonal_closed_form(self, plane_algebra):
        # entry (1,2) of exp(diag(alpha,beta) + e12 w) is w (e^a - e^b)/(a - b)
        gr = Grading.from_string("+-")
        alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
        w = plane_algebra.gen("du", NUMERIC)
        z = plane_algebra.zero(NUMERIC)
        m = SuperMatrix(plane_algebra, gr,
                        [[plane_algebra.scalar(alpha, NUMERIC), w],
                         [z, plane_algebra.scalar(beta, NUMERIC)]])
        out = super_exp_duhamel(m)
        du_mask, _ = plane_algebra.mask_of(("du",))
        got = out.entries[0][1].terms[du_mask]
        oracle = (cmath.exp(alpha) - cmath.exp(beta)) / (alpha - beta)
        assert abs(got - oracle) < 1e-13

    def test_non_diagonal_body_rejected(self, plane_algebra):
        gr = Grading.from_string("+-")
        one = plane_algebra.one(NUMERIC)
        m = SuperMatrix(plane_algebra, gr, [[one, one], [one, one]])
        with pytest.raises(UnsupportedShapeError):
            super_exp_duhamel(m)

    def test_agreement_on_random_diagonal_body(self, plane_algebra, grading, rng):
        worst = 0.0
        for _ in range(20):
            m = random_supermatrix(plane_algebra, grading, rng, coeff_scale=2.0)
            a = super_exp(m, tol=1e-14).to_array()
            b = super_exp_duhamel(m).to_array()
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


    def test_series_stops_at_400_terms(self):
        # the spread r = 200 about the mean 100i needs about e r terms
        with pytest.raises(ConvergenceError, match="did not converge"):
            exp_divided_difference([0, 0, 300j])


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
        lhs = super_exp(f.similarity(g), tol=1e-14).supertrace()
        rhs = super_exp(f, tol=1e-14).supertrace()
        assert (lhs - rhs).norm_max() < 1e-10

    def test_parity_audit(self, plane_algebra, grading):
        z = plane_algebra.zero(NUMERIC)
        du = plane_algebra.gen("du", NUMERIC)
        one = plane_algebra.one(NUMERIC)
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
        z = plane_algebra.zero(NUMERIC)
        du = plane_algebra.gen("du", NUMERIC)
        one = plane_algebra.one(NUMERIC)

        def single(i, j, f):
            rows = [[z] * 4 for _ in range(4)]
            rows[i][j] = f
            return SuperMatrix(plane_algebra, grading, rows)

        assert SuperMatrix.zero(plane_algebra, grading, NUMERIC).is_odd()
        assert single(0, 2, one).is_odd()
        assert single(0, 1, du).is_odd()
        assert not single(0, 2, du).is_odd()
        assert not (single(0, 2, one) + single(0, 2, du)).is_odd()
