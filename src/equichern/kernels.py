"""The dense numpy route of the Chern form, and its oracles.

`BlockLayout` places the components of dense ``(d, d, 2^n)`` arrays in
grading blocks and carries the products and traces that read them;
`dense_curvature` compiles a symbolic pair M0 + t M1 into one
`polyeval.CompiledPolys` table in that layout, an `AffineArray`, memoised on
the pair, so the Taylor side of the pointwise Chern form compiles a model's
curvature where it evaluates it and the model carries no compiled state.
`taylor_exp_blocked` is that side's dense exponential: the trace shift, then
scaling-and-squaring of a truncated Taylor sum (`taylor_parameters`) with the
wedge as a block-diagonal right-multiplication operator.  The module also
holds the component array of a supermatrix and the two independent checks of
the pointwise Chern form: `super_exp_duhamel`, the Duhamel exponential that
is the oracle of the Taylor route, and `closedness_residual`.  Only the
Taylor side of `equivariant.chern_form` (`pointwise.pointwise_chern`, for a
curvature pair the Chern plan refuses or a theta past
`pointwise.SPREAD_MAX`), `supermatrix.super_exp` and the tests load it; no
command does, and neither does a Chern form the plan evaluates.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .equivariant import diagonal_body, duhamel_paths, symbolic_chern
from .exterior import NUMERIC, BackendError, ExteriorAlgebra
from .geometry import ActionModel, cartan_field
from .polyeval import CompiledPolys, full_point
from .supermatrix import EVEN, ODD, TAYLOR_TOL, SuperMatrix, exp_divided_difference


def to_array(a: SuperMatrix) -> np.ndarray:
    """``SuperMatrix.to_array``: components ``(d, d, 2^n)`` of a numeric matrix."""
    if a.backend != NUMERIC:
        raise BackendError("component arrays need numeric entries")
    d = a.dim
    out = np.zeros((d, d, a.algebra.n_components), dtype=np.complex128)
    for i, row in enumerate(a.entries):
        for j, f in enumerate(row):
            for mask, c in f.terms.items():
                out[i, j, mask] = c
    return out


# -- the blocked layout of dense component arrays ----------------------------------


class BlockLayout(NamedTuple):
    """Where the components of a ``(d, d, 2^n)`` array sit in the blocked form.

    A component array X is a ``d``-row matrix over the row space of pairs
    (k, c), column and generator subset, and ``X B = X @ R(B)`` with R the
    right-multiplication operator of B, wedge signs included.  The class of
    (k, c) is p_k + |c| mod 2.  When B is even, right multiplication keeps
    the class, so R is block diagonal; with two classes of one size (any
    algebra with generators), the blocked form of X is ``(2, d, d 2^n / 2)``,
    block q holding the columns of class q, and every product is one batched
    matmul.  Otherwise there is one block, the whole row space.

    ``index`` is the flat blocked position of every component, in row-major
    ``(d, d, 2^n)`` order; ``dest``, ``src`` and ``sign`` scatter a blocked
    array into its operator; the supertrace reads the diagonal components
    ``trace_masks`` (for two blocks, the even ones: the odd ones of an even
    array are zero) at ``trace_index``, ``(d, len(trace_masks))``, the
    transposed view of a row-major ``(len(trace_masks), d)`` table, and
    weights its rows with ``signs``.
    """

    shape: tuple[int, int, int]
    index: np.ndarray
    dest: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    trace_masks: tuple[int, ...]
    trace_index: np.ndarray
    signs: np.ndarray

    def block(self, A: np.ndarray) -> np.ndarray:
        out = np.empty(A.size, dtype=np.complex128)
        out[self.index] = A.ravel()
        return out.reshape(self.shape)

    def unblock(self, X: np.ndarray) -> np.ndarray:
        d = self.shape[1]
        return X.ravel()[self.index].reshape(d, d, -1)

    def operator(self, X: np.ndarray) -> np.ndarray:
        """Right-multiplication operator ``(blocks, h, h)`` of a blocked array."""
        nb, _, h = self.shape
        R = np.zeros(nb * h * h, dtype=np.complex128)
        R[self.dest] = X.ravel()[self.src] * self.sign
        return R.reshape(nb, h, h)

    def supertrace(self, X: np.ndarray) -> np.ndarray:
        """Grading-signed trace of a blocked array, one value per ``trace_masks``."""
        return self.signs @ X.ravel()[self.trace_index]


def block_layout(algebra: ExteriorAlgebra, parities: Sequence[int],
                 even: bool) -> BlockLayout:
    """The layout of ``(d, d, 2^n)`` arrays, in two class blocks when ``even`` allows.

    ``even`` says that the arrays to be multiplied are even
    (``SuperMatrix.homogeneous_parity``); the classes are split only then and
    when they are equal in size.
    """
    K = algebra.n_components
    d = len(parities)
    cls = [(p + c.bit_count()) % 2 for p in parities for c in range(K)]
    nb = 2 if even and 2 * sum(cls) == d * K else 1
    if nb == 1:
        cls = [0] * (d * K)
    h = d * K // nb
    # block q and position t of every row-space element (k, c), class 0 first
    where = [0] * (d * K)
    for pos, x in enumerate(sorted(range(d * K), key=cls.__getitem__)):
        where[x] = pos
    q, t = [w // h for w in where], [w % h for w in where]
    index = [q[x] * d * h + i * h + t[x] for i in range(d) for x in range(d * K)]
    # R[(j, a), (k, c)] = sign(a, b) B[j, k, b] with b = c ^ a, kept within a class
    dest, src, sign = [], [], []
    pairs = algebra.pair_table()
    for j in range(d):
        for k in range(d):
            for a, b, c, sg in pairs:
                row, col = j * K + a, k * K + c
                if cls[row] == cls[col]:
                    dest.append(q[row] * h * h + t[row] * h + t[col])
                    src.append(index[(j * d + k) * K + b])
                    sign.append(sg)
    masks = [c for c in range(K) if all(cls[k * K + c] == cls[k * K] for k in range(d))]
    trace_index = [index[(i * d + i) * K + c] for c in masks for i in range(d)]
    return BlockLayout(shape=(nb, d, h), index=np.array(index), dest=np.array(dest),
                       src=np.array(src), sign=np.array(sign, dtype=np.complex128),
                       trace_masks=tuple(masks),
                       trace_index=np.array(trace_index).reshape(len(masks), d).T,
                       signs=np.array([-1.0 if p == ODD else 1.0 for p in parities]))


class AffineArray(NamedTuple):
    """Component arrays of M0 + t M1, two symbolic supermatrices, compiled.

    ``table`` holds the coefficient polynomials of both, ``(2, d d 2^n)`` in
    the blocked order of ``layout``, so the blocked array at a point is one
    product of coefficients and monomials (``at``).
    """

    table: CompiledPolys
    layout: BlockLayout

    def at(self, t: complex, point: Mapping[str, complex]) -> np.ndarray:
        """The blocked array of M0 + t M1 at a point."""
        r = self.table.entries(point)
        return (r[0] + t * r[1]).reshape(self.layout.shape)


@functools.lru_cache(maxsize=4)
def dense_curvature(pair: tuple[SuperMatrix, SuperMatrix]) -> AffineArray:
    """A pair (M0, M1), such as a model's curvature (F0, F1), compiled and memoised.

    Supermatrices compare by identity, so a model given a new ``curvature``
    compiles afresh; the cache keeps the last few pairs, and every caller
    shares (and only reads) their tables.  The layout is in two grading
    blocks when both matrices are even, as a curvature is.
    """
    m0, m1 = pair
    m0._check(m1)
    alg, d = m0.algebra, m0.dim
    K = alg.n_components
    layout = block_layout(alg, m0.grading.parities,
                          m0.homogeneous_parity() == m1.homogeneous_parity() == EVEN)
    polys = [[None] * (d * d * K) for _ in range(2)]
    for t, mat in enumerate(pair):
        for i, row in enumerate(mat.entries):
            for j, f in enumerate(row):
                for mask, poly in f.terms.items():
                    polys[t][layout.index[(i * d + j) * K + mask]] = poly
    return AffineArray(table=CompiledPolys(alg, polys), layout=layout)


def _array_norm(A: np.ndarray) -> float:
    # max row sum of coefficient l1-norms: submultiplicative for the wedge kernel
    return float(np.abs(A).sum(axis=2).sum(axis=1).max(initial=0.0))


def taylor_parameters(norm: float, tol: float) -> tuple[int, int]:
    """Scaling exponent s, least with r = norm / 2^s <= 0.5, and Taylor degree m.

    The degree-m sum of exp(X), ||X|| = r, is exp(X)(I + E) with ||E|| at most
    e^r r^(m+1) / (m+1)! (m+2) / (m+2-r); m is the least with 2^s ||E|| <= tol,
    so the 2^s-th power is within about ``tol ||exp(A)||`` of exp(A).
    """
    s = 0 if norm <= 0.5 else max(0, math.ceil(math.log2(norm / 0.5)))
    r = norm / 2.0**s
    m, tail = 0, r  # tail = r^(m+1) / (m+1)!
    while 2.0**s * math.exp(r) * tail * (m + 2) / (m + 2 - r) > tol:
        m += 1
        tail *= r / (m + 1)
    return s, m


def taylor_exp_blocked(X: np.ndarray, layout: BlockLayout,
                       tol: float = TAYLOR_TOL) -> np.ndarray:
    """Exponential of a blocked component array, in the same layout.

    The trace shift mu = tr(X_0) / d, the mean of the degree-0 diagonal, is
    taken off first and e^mu multiplied back at the end, which is exact as
    mu 1 is central; it lowers the norm and so the scaling.  Then
    scaling-and-squaring with a truncated Taylor sum of the scaling and
    degree of ``taylor_parameters``: every product is one batched matmul of
    the running ``(blocks, d, h)`` term against the factor's block-diagonal
    right-multiplication operator, each squaring's operator gathered straight
    from the blocked accumulator.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    diag = layout.trace_index[:, 0]  # the degree-0 diagonal: trace mask 0 comes first
    flat = X.astype(np.complex128).ravel()
    mu = flat[diag].sum() / len(diag)
    flat[diag] -= mu
    shifted = flat.reshape(layout.shape)
    s, m = taylor_parameters(_array_norm(shifted.transpose(1, 0, 2)), tol)
    R = layout.operator(shifted / 2.0**s)
    term = np.zeros(flat.size, dtype=np.complex128)
    term[diag] = 1.0
    term = term.reshape(layout.shape)
    acc = term.copy()
    for k in range(1, m + 1):
        term = term @ R / k
        acc += term
    for _ in range(s):
        acc = acc @ layout.operator(acc)
    return acc * cmath.exp(mu)


# -- the independent checks of the pointwise route ------------------------------------


def super_exp_duhamel(a: SuperMatrix) -> SuperMatrix:
    """Matrix exponential via the Duhamel expansion around a diagonal body.

    exp(body + soul) is the sum over products of soul entries weighted by
    simplex integrals of body exponentials, which reduce to divided
    differences of exp at the diagonal entries.  The sum is finite because
    each soul factor raises the form degree.  The body is the degree-0 part
    of the diagonal; degree-0 content off the diagonal is rejected.  It walks
    the soul paths of the Chern plan (`equivariant.duhamel_paths`) and is the
    oracle of the Taylor route of `supermatrix.super_exp`.
    """
    if a.backend != NUMERIC:
        raise BackendError("super_exp_duhamel requires the numeric backend")
    d = a.dim
    z = a.algebra.zero(NUMERIC)
    diag, soul = diagonal_body(a)
    beta = [f.terms.get(0, 0.0 + 0.0j) for f in diag]
    out = [[z for _ in range(d)] for _ in range(d)]
    for i in range(d):
        out[i][i] = a.algebra.scalar(cmath.exp(beta[i]), NUMERIC)
    for i, j, prod, nodes in duhamel_paths([soul], beta):
        out[i][j] = out[i][j] + prod[0].scale(exp_divided_difference(nodes))
    return SuperMatrix(a.algebra, a.grading, out)


def closedness_residual(model: ActionModel, theta: complex,
                        point: Mapping[str, complex]) -> float:
    """Max coefficient norm of (d - iota_zeta) applied to the Chern form at a point.

    Vanishes for a consistent moment/vector-field pair, that is for the
    curvature ``set_odd_term`` builds; a model whose ``curvature`` pair has a
    constant added to one diagonal entry of F0 (a corrupted moment) is the
    negative control.
    """
    g = symbolic_chern(model, theta)
    zeta = cartan_field(model, theta)
    # (d - iota)(e^g w) = e^g (dg ^ w + dw - iota w)
    dg = model.algebra.scalar(g.exponent).d()
    residual = dg.wedge(g.form) + g.form.d() - g.form.interior(zeta)
    pt = full_point(model.algebra, point)
    value = residual.evaluate(pt)
    return value.norm_max() * abs(g.prefactor(pt))
