import numpy as np
import pytest

from equichern import supermatrix, symbolalg
from equichern.exterior import EvaluationError, ExteriorAlgebra, Poly


@pytest.fixture
def plane_algebra():
    return ExteriorAlgebra(
        ["du", "dubar", "dv", "dvbar"], ["u", "ubar", "v", "vbar"])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_poly(algebra, rng, max_degree=2, n_terms=3):
    n = len(algebra.coordinates)
    terms = {}
    for _ in range(n_terms):
        m = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(n))
        terms[m] = complex(rng.standard_normal(), rng.standard_normal())
    return Poly(algebra, terms)


def eval_grid(poly, arrays):
    """A polynomial on coordinate arrays of a common shape, term by term.

    The oracle for `CompiledPolys.entries` (and so for `Poly.eval_grid`,
    `Poly.evaluate` and `Form.evaluate`):
    each term is its coefficient times numpy powers of the coordinate arrays.
    """
    coords = poly.algebra.coordinates
    shape = None
    for a in arrays.values():
        shape = np.shape(a)
        break
    total = np.zeros(shape if shape is not None else (), dtype=np.complex128)
    for m, c in poly.terms.items():
        val = np.full(total.shape, c, dtype=np.complex128)
        for i, e in enumerate(m):
            if e == 0:
                continue
            name = coords[i]
            if name not in arrays:
                raise EvaluationError(f"no value assigned to coordinate {name!r}")
            val = val * np.asarray(arrays[name]) ** e
        total = total + val
    return total


def term_scale(poly, arrays):
    """Sum of |coefficient x monomial| over the terms: the rounding scale of a value."""
    absolute = Poly(poly.algebra, {m: abs(c) for m, c in poly.terms.items()})
    return eval_grid(absolute, {k: np.abs(v) for k, v in arrays.items()}).real


def random_form(algebra, rng, degrees=None, n_terms=4):
    from equichern.exterior import Form

    ngen = len(algebra.generators)
    terms = {}
    for _ in range(n_terms):
        mask = int(rng.integers(0, 1 << ngen))
        if degrees is not None and mask.bit_count() not in degrees:
            continue
        terms[mask] = random_poly(algebra, rng)
    return Form(algebra, terms)


# complex base, real fiber named FIBER; the c-plane symbol with xi -> FIBER
REAL_FIBER_MODEL = """model real-fiber
[coordinates]
z  complex weight=1 role=base
FIBER real weight=0 role=fiber
[bundle.E]
summand weight=0 parity=even
summand weight=1 parity=odd
[bundle.W]
summand weight=0 parity=even
summand weight=1 parity=odd
[symbol]
0, conj(z) - i*FIBER
z + i*FIBER, 0
"""


def odd_symbol_model(n_even, n_odd, rng):
    """A model on (z, xi) whose E has n_even even and n_odd odd summands.

    Its symbol is odd, with random polynomial entries of degree up to four
    (see `random_poly`) and one structurally zero entry in each odd block.
    """
    from equichern.geometry import COMPLEX, ActionModel, BundleSpec, Coordinate

    coords = (Coordinate("z", COMPLEX, 1, "base"), Coordinate("xi", COMPLEX, 1, "fiber"))
    parities = (0,) * n_even + (1,) * n_odd
    model = ActionModel(f"odd-symbol-{n_even}-{n_odd}", coords,
                        BundleSpec(tuple(range(len(parities))), parities))
    alg = model.algebra
    rows = [[alg.scalar(random_poly(alg, rng, max_degree=1)) if p != q else 0.0
             for q in parities] for p in parities]
    rows[0][n_even] = rows[n_even][0] = 0.0
    model.set_symbol(rows)
    return model


def weighted_plane_uv(m):
    """c-plane-uv with the circle acting with weight m on both coordinates.

    The base u and the fiber v carry weight m and E = W = (0, m) with
    parities (0, 1); the symbol is [[0, ubar], [u, 0]] and the odd term is
    i times its augmentation by c(v), as `augmentation.c_plane_uv` builds the
    weight-one model.  The circle acts through its m-fold cover, so the
    index character is -q^m/(1 - q^m).
    """
    from equichern.augmentation import augment_by_clifford
    from equichern.geometry import COMPLEX, ActionModel, BundleSpec, Coordinate

    coords = (Coordinate("u", COMPLEX, m, "base"), Coordinate("v", COMPLEX, m, "fiber"))
    spec = BundleSpec((0, m), (0, 1))
    model = ActionModel(f"c-plane-uv-weight-{m}", coords, spec, spec)
    alg = model.algebra
    zero = alg.zero()
    model.set_symbol([[zero, alg.scalar(alg.coord("ubar"))], [alg.scalar(alg.coord("u")), zero]])
    model.set_odd_term(augment_by_clifford(model, alg.coord("v")).scale(1j))
    return model


def corrupted_moment_model():
    """`c_plane_uv()` with the curvature pair (F0 + e_11, F1): a corrupted moment.

    The constant 1 on the second diagonal entry of F0 no longer matches the
    Cartan vector field, so the Chern form is not equivariantly closed; this
    is the closedness negative control.  The Taylor side evaluates the pair
    it is given, so it reads the same pair as the plan.
    """
    from equichern.augmentation import c_plane_uv
    from equichern.supermatrix import SuperMatrix

    model = c_plane_uv()
    alg = model.algebra
    f0, f1 = model.curvature
    bump = SuperMatrix.diagonal(alg, f0.grading,
                                [alg.scalar(1.0 if i == 1 else 0.0) for i in range(f0.dim)])
    model.curvature = (f0 + bump, f1)
    return model


# -- an independent Taylor exponential, the oracle of kernels.taylor_exp -------------
#
# Wedge products by gathering every pair (a, b) of disjoint components, one
# batched matmul per pair and a reduceat over the pairs of each result
# component c = a | b; no trace shift, and the Taylor sum stops adaptively.
# The signs come from Form.wedge, not from ExteriorAlgebra.pair_table, and
# nothing here is shared with the kernel.


def reduceat_table(algebra):
    from equichern.exterior import Form

    ai, bi, sg, starts = [], [], [], []
    for c in range(algebra.n_components):
        starts.append(len(ai))
        for a in range(algebra.n_components):
            if a & c == a:
                left = Form(algebra, {a: 1.0})
                right = Form(algebra, {c ^ a: 1.0})
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
    """exp of a ``(d, d, 2^n)`` component array, scaled so its norm is at most 0.5."""
    table = reduceat_table(algebra)
    norm = np.abs(A).sum(axis=2).sum(axis=1).max(initial=0.0)
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


# -- test-only constructions, kept out of the package ----------------------------------


class Grading(supermatrix.Grading):
    """`supermatrix.Grading` that also reads a sign string, "+" even and "-" odd."""

    __slots__ = ()

    @classmethod
    def from_string(cls, signs: str) -> "Grading":
        return cls(tuple({"+": supermatrix.EVEN, "-": supermatrix.ODD}[ch] for ch in signs))


def graded_commutator(a, b):
    """[a, b] = ab - (-1)^{|a||b|} ba for totally homogeneous a, b."""
    pa, pb = a.homogeneous_parity(), b.homogeneous_parity()
    if pa is None or pb is None:
        raise supermatrix.UnsupportedShapeError("graded commutator requires homogeneous operands")
    ba = b @ a
    return (a @ b) - (ba if (pa * pb) % 2 == 0 else -ba)


SUPPORT_RADIUS = 1.5  # x-support of the saturating and constant-in-xi symbols


def saturating_symbol(model, amplitude=3.0):
    """f(x) (1 + |phi|^2)/(1 + |xi|^2): saturates the membership bound by design."""
    symbolalg._fiber(model)

    def evaluator(x, xi):
        return amplitude * symbolalg.bump(x, SUPPORT_RADIUS) * symbolalg._bound_core(model, x, xi)

    return symbolalg.SymbolFunction(evaluator=evaluator, x_support_radius=SUPPORT_RADIUS)


def constant_in_xi_symbol(model):
    """f(x), constant in xi: the negative control failing transverse decay."""
    def evaluator(x, xi):
        return symbolalg.bump(x, SUPPORT_RADIUS) * np.ones_like(np.abs(xi))

    return symbolalg.SymbolFunction(evaluator=evaluator, x_support_radius=SUPPORT_RADIUS)
