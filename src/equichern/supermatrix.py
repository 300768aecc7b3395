"""Z2-graded square matrices with exterior-form entries.

Provides the graded product (entrywise wedge), the grading-signed
supertrace, and two independent matrix exponentials: a scaling-and-squaring
truncated Taylor sum on a dense component array, of degree fixed up front;
and a Duhamel expansion in divided differences of the diagonal degree-0
part.  The Taylor route first takes off the trace shift (the mean of the
degree-0 diagonal, central, so its exponential factors out exactly) and
applies the wedge as a right-multiplication operator; for an even array,
such as a superconnection's curvature, the operator keeps the class
p_k + |c| of a row-space element (column k, generator subset c) and splits
into two half-size grading blocks, so each product is one batched matmul.
A symbolic pair M0 + t M1 compiles once into polynomial component arrays in
that blocked order.  This module is plain Python: the layout and the
compiled pair are tables in stdlib buffers, and the Taylor route and the
component-array conversions run in `equichern.kernels`, the numpy module,
which loads on first use.  The Duhamel route is a finite sum (the soul
terminates by form degree) and serves as the oracle for the Taylor route.
Its soul-path walk (duhamel_paths) also compiles the symbolic Chern plan,
whose soul is a polynomial in theta, and the divided differences of exp take
batches of nodes (a whole theta axis) column by column.  Matrix grading is
metadata consumed by the supertrace and the grading blocks; products carry
no Koszul signs beyond those of the wedge.
"""
from __future__ import annotations

import cmath
import math
from array import array
from itertools import accumulate
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

from .exterior import (
    NUMERIC,
    SYMBOLIC,
    AlgebraMismatchError,
    BackendError,
    CompiledPolys,
    ExteriorAlgebra,
    Form,
)

EVEN = 0
ODD = 1

# Relative forward-error target of the dense Taylor exponential.
TAYLOR_TOL = 1e-12
# Tail bound of the divided-difference series of exp.
DD_TOL = 1e-18


class ShapeError(ValueError):
    """Dimension or grading mismatch between graded matrices."""


class UnsupportedShapeError(ValueError):
    """Matrix shape outside what an algorithm supports (e.g. non-diagonal body)."""


class ConvergenceError(RuntimeError):
    """A truncated series failed to meet its tolerance."""


class Grading:
    """Parity per row/column, encoding the even/odd bundle splitting."""

    __slots__ = ("parities",)

    def __init__(self, parities: Sequence[int]):
        self.parities = tuple(parities)
        if any(p not in (EVEN, ODD) for p in self.parities):
            raise ShapeError("parities must be 0 (even) or 1 (odd)")

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        return self.parities == other.parities

    def __hash__(self):
        return hash(self.parities)

    @classmethod
    def from_string(cls, signs: str) -> "Grading":
        table = {"+": EVEN, "-": ODD}
        return cls(tuple(table[ch] for ch in signs))

    @property
    def dim(self) -> int:
        return len(self.parities)

    def sign(self, i: int) -> int:
        return -1 if self.parities[i] else 1


class SuperMatrix:
    """Square matrix of forms over one exterior algebra, with a grading."""

    __slots__ = ("algebra", "grading", "entries")

    def __init__(self, algebra: ExteriorAlgebra, grading: Grading, entries):
        rows = []
        for row in entries:
            cells = []
            for x in row:
                if isinstance(x, Form):
                    if x.algebra is not algebra:
                        raise AlgebraMismatchError("entry from a different algebra")
                    cells.append(x)
                else:
                    cells.append(algebra.scalar(x, SYMBOLIC))
            rows.append(tuple(cells))
        self.entries = tuple(rows)
        dim = len(self.entries)
        if any(len(r) != dim for r in self.entries):
            raise ShapeError("matrix must be square")
        if grading.dim != dim:
            raise ShapeError("grading length must equal matrix dimension")
        backends = {f.backend for row in self.entries for f in row}
        if len(backends) > 1:
            raise AlgebraMismatchError("mixed entry backends")
        self.algebra = algebra
        self.grading = grading

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra, grading, backend=SYMBOLIC):
        z = algebra.zero(backend)
        d = grading.dim
        return cls(algebra, grading, [[z] * d for _ in range(d)])

    @classmethod
    def identity(cls, algebra, grading, backend=SYMBOLIC):
        d = grading.dim
        z = algebra.zero(backend)
        one = algebra.one(backend)
        return cls(algebra, grading,
                   [[one if i == j else z for j in range(d)] for i in range(d)])

    @classmethod
    def diagonal(cls, algebra, grading, diag, backend=SYMBOLIC):
        d = grading.dim
        z = algebra.zero(backend)
        cells = [[z] * d for _ in range(d)]
        for i, x in enumerate(diag):
            cells[i][i] = x if isinstance(x, Form) else algebra.scalar(x, backend)
        return cls(algebra, grading, cells)

    # -- basic properties -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def backend(self) -> str:
        for row in self.entries:
            for f in row:
                return f.backend
        return SYMBOLIC

    def _check(self, other: "SuperMatrix"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("matrices over different algebras")
        if self.dim != other.dim or self.grading != other.grading:
            raise ShapeError("dimension or grading mismatch")

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check(other)
        return SuperMatrix(self.algebra, self.grading,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SuperMatrix(self.algebra, self.grading,
                           [[-f for f in row] for row in self.entries])

    def scale(self, factor) -> "SuperMatrix":
        return SuperMatrix(self.algebra, self.grading,
                           [[f.scale(factor) for f in row] for row in self.entries])

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        """Matrix product; entry products are wedge products."""
        self._check(other)
        d = self.dim
        z = self.algebra.zero(self.backend)
        out = []
        for i in range(d):
            row = []
            for k in range(d):
                acc = z
                for j in range(d):
                    a = self.entries[i][j]
                    b = other.entries[j][k]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a.wedge(b)
                row.append(acc)
            out.append(row)
        return SuperMatrix(self.algebra, self.grading, out)

    def map_entries(self, fn: Callable[[Form], Form]) -> "SuperMatrix":
        return SuperMatrix(self.algebra, self.grading,
                           [[fn(f) for f in row] for row in self.entries])

    def d(self) -> "SuperMatrix":
        return self.map_entries(lambda f: f.d())

    def interior(self, vector: Mapping[str, object]) -> "SuperMatrix":
        return self.map_entries(lambda f: f.interior(vector))

    def evaluate(self, point: Mapping[str, complex]) -> "SuperMatrix":
        return self.map_entries(lambda f: f.evaluate(point))

    # -- grading-aware pieces -------------------------------------------------

    def supertrace(self) -> Form:
        """Grading-signed trace; vanishes on graded commutators."""
        acc = self.algebra.zero(self.backend)
        for i in range(self.dim):
            t = self.entries[i][i]
            acc = acc + (t if self.grading.sign(i) > 0 else -t)
        return acc

    def homogeneous_parity(self) -> int | None:
        """Total parity (block parity + form degree) if homogeneous, else None."""
        seen = set()
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                for mask in f.terms:
                    seen.add((self.grading.parities[i] + self.grading.parities[j]
                              + mask.bit_count()) % 2)
        if len(seen) > 1:
            return None
        return seen.pop() if seen else EVEN

    def is_odd(self) -> bool:
        """Whether the matrix is homogeneous of odd total parity, or zero."""
        return (self.homogeneous_parity() == ODD
                or all(f.is_zero for row in self.entries for f in row))

    def norm_max(self) -> float:
        return max((f.norm_max() for row in self.entries for f in row), default=0.0)

    def similarity(self, g) -> "SuperMatrix":
        """Conjugate by a constant scalar matrix (a numpy array): g · self · g^{-1}."""
        from .kernels import similarity

        return similarity(self, g)

    # -- dense component array ------------------------------------------------------

    def to_array(self):
        """Components ``(d, d, 2^n)`` of a numeric matrix, a numpy array."""
        from .kernels import to_array

        return to_array(self)

    @classmethod
    def from_array(cls, algebra, grading, arr) -> "SuperMatrix":
        """Numeric supermatrix from components ``(d, d, 2^n)``."""
        return cls(algebra, grading, [[Form(algebra, NUMERIC, dict(enumerate(f)))
                                       for f in row] for row in arr])

    def isclose(self, other: "SuperMatrix", tol: float = 1e-12) -> bool:
        self._check(other)
        return all(a.isclose(b, tol) for r1, r2 in zip(self.entries, other.entries)
                   for a, b in zip(r1, r2))

    def __repr__(self):
        return f"SuperMatrix(dim={self.dim}, parities={self.grading.parities})"


def graded_commutator(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """[a, b] = ab - (-1)^{|a||b|} ba for totally homogeneous a, b."""
    pa, pb = a.homogeneous_parity(), b.homogeneous_parity()
    if pa is None or pb is None:
        raise UnsupportedShapeError("graded commutator requires homogeneous operands")
    ba = b @ a
    return (a @ b) - (ba if (pa * pb) % 2 == 0 else -ba)


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
    array are zero) at ``trace_index``, ``(d, len(trace_masks))`` in
    column-major order, and weights its rows with ``signs``.  The tables are stdlib buffers
    (64-bit integers; ``sign`` as interleaved complex doubles) that
    `equichern.kernels.Blocks` wraps for numpy without a copy.
    """

    shape: tuple[int, int, int]
    index: array
    dest: array
    src: array
    sign: array
    trace_masks: tuple[int, ...]
    trace_index: array
    signs: array


def block_layout(algebra: ExteriorAlgebra, parities: Sequence[int],
                 even: bool) -> BlockLayout:
    """The layout of ``(d, d, 2^n)`` arrays, in two class blocks when ``even`` allows.

    ``even`` says that the arrays to be multiplied are even
    (`equichern.kernels.is_even`); the classes are split only then and when
    they are equal in size.
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
    index = array("q", (q[x] * d * h + i * h + t[x]
                        for i in range(d) for x in range(d * K)))
    # R[(j, a), (k, c)] = sign(a, b) B[j, k, b] with b = c ^ a, kept within a class
    dest, src, sign = array("q"), array("q"), array("d")
    pairs = algebra.pair_table()
    for j in range(d):
        for k in range(d):
            for a, b, c, sg in pairs:
                row, col = j * K + a, k * K + c
                if cls[row] == cls[col]:
                    dest.append(q[row] * h * h + t[row] * h + t[col])
                    src.append(index[(j * d + k) * K + b])
                    sign.extend((sg, 0.0))
    masks = [c for c in range(K) if all(cls[k * K + c] == cls[k * K] for k in range(d))]
    return BlockLayout(shape=(nb, d, h), index=index, dest=dest, src=src, sign=sign,
                       trace_masks=tuple(masks),
                       trace_index=array("q", (index[(i * d + i) * K + c]
                                               for c in masks for i in range(d))),
                       signs=array("d", (-1.0 if p == ODD else 1.0 for p in parities)))


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


def super_exp(a: SuperMatrix, tol: float = TAYLOR_TOL) -> SuperMatrix:
    """Matrix exponential of a numeric supermatrix by `kernels.taylor_exp_array`."""
    from .kernels import taylor_exp_array

    if a.backend != NUMERIC:
        raise BackendError("super_exp requires the numeric backend")
    acc = taylor_exp_array(a.to_array(), a.algebra, tol, a.grading)
    return SuperMatrix.from_array(a.algebra, a.grading, acc)


class AffineArray(NamedTuple):
    """Component arrays of M0 + t M1, two symbolic supermatrices, compiled.

    ``table`` holds the coefficient polynomials of both, ``(2, d d 2^n)`` in
    the blocked order of ``layout``, so the blocked array at a point is one
    product of coefficients and monomials (`equichern.kernels.affine_at`).
    """

    table: CompiledPolys
    layout: BlockLayout

    @classmethod
    def compile(cls, m0: SuperMatrix, m1: SuperMatrix) -> "AffineArray":
        m0._check(m1)
        alg, d = m0.algebra, m0.dim
        K = alg.n_components
        layout = block_layout(alg, m0.grading.parities,
                              m0.homogeneous_parity() == m1.homogeneous_parity() == EVEN)
        polys = [[None] * (d * d * K) for _ in range(2)]
        for t, mat in enumerate((m0, m1)):
            for i, row in enumerate(mat.entries):
                for j, f in enumerate(row):
                    for mask, poly in f.terms.items():
                        polys[t][layout.index[(i * d + j) * K + mask]] = poly
        return cls(table=CompiledPolys(alg, polys), layout=layout)


# -- divided differences of exp ------------------------------------------------


def exp_divided_difference(nodes):
    """Divided difference of exp over the given nodes, confluent-safe.

    The k+1 nodes run along the first axis of ``nodes``: a sequence of
    numbers gives a complex, and a sequence of equal-length sequences is a
    batch, evaluated column by column into a list.  Well-separated node pairs
    use the classical quotient; otherwise (the confluence threshold
    |a-b| < 1e-8, and any higher order) a mean-shifted series in complete
    homogeneous symmetric polynomials is used, which reduces to the
    derivative formula at exact confluence.  It stops once a bound on its
    tail falls below DD_TOL, and raises ConvergenceError at 400 terms.
    """
    if not len(nodes):
        raise ValueError("need at least one node")
    if hasattr(nodes[0], "__len__"):
        return [_exp_dd(column) for column in zip(*nodes)]
    return _exp_dd(nodes)


def _exp_dd(nodes) -> complex:
    xs = [complex(x) for x in nodes]
    k = len(xs) - 1
    if k == 1:
        a, b = xs
        if abs(a - b) >= 1e-8 * max(1.0, abs(a), abs(b)):
            return (cmath.exp(a) - cmath.exp(b)) / (a - b)
    shift = sum(xs) / (k + 1)
    ds = [x - shift for x in xs]
    # sum_m h_m(ds) / (m+k)!  with h_m complete homogeneous symmetric; as
    # |h_m(ds)| / (m+k)! <= r^m / (m! k!) with r = max |ds|, the terms past
    # m sum to at most e^r tail with tail = r^(m+1) / ((m+1)! k!), and the
    # series stops at the first m with e^r tail < DD_TOL (e^-r cannot overflow)
    r = max(map(abs, ds))
    limit = DD_TOL * math.exp(-r)
    h = [1.0] * (k + 1)  # h[j] = h_m(ds[0..j])
    total = coeff = 1.0 / math.factorial(k)
    m, tail = 0, r * coeff
    while tail >= limit:
        m += 1
        if m >= 400:
            raise ConvergenceError("divided-difference series did not converge")
        h = list(accumulate(map(mul, ds, h)))
        coeff /= m + k
        total += h[k] * coeff
        tail *= r / (m + 1)
    return cmath.exp(shift) * total


def duhamel_paths(soul: Sequence[SuperMatrix], diag: Sequence):
    """Every soul path with a non-zero product, for the Duhamel expansion.

    The soul is a polynomial in a parameter t given by its coefficient
    matrices, soul = sum_p t^p soul[p] (one matrix for a numeric soul).
    Yields (start, end, product, nodes) for each walk start -> ... -> end of
    one or more soul entries whose product is non-zero; the product is the
    list of its t-power coefficient forms without trailing zeros, and nodes
    are the diagonal values at the visited indices, start first.  Walks stop
    at the generator count, past which every product of soul entries
    vanishes.
    """
    d = soul[0].dim
    alg = soul[0].algebra
    zero = alg.zero(soul[0].backend)
    max_depth = len(alg.generators)

    def trim(forms: list) -> list:
        while forms and forms[-1].is_zero:
            forms.pop()
        return forms

    edges = [[trim([m.entries[j][k] for m in soul]) for k in range(d)]
             for j in range(d)]

    def times(prod: list, edge: list) -> list:
        out = [zero] * (len(prod) + len(edge) - 1)
        for a, f in enumerate(prod):
            for b, g in enumerate(edge):
                if not (f.is_zero or g.is_zero):
                    out[a + b] = out[a + b] + f.wedge(g)
        return trim(out)

    def walk(start: int, j: int, prod: list, nodes: tuple):
        if len(nodes) > max_depth:
            return
        for nxt in range(d):
            if not edges[j][nxt]:
                continue
            p2 = times(prod, edges[j][nxt])
            if not p2:
                continue
            nodes2 = nodes + (diag[nxt],)
            yield start, nxt, p2, nodes2
            yield from walk(start, nxt, p2, nodes2)

    one = [alg.one(soul[0].backend)]
    for i in range(d):
        yield from walk(i, i, one, (diag[i],))


def diagonal_body(mat: SuperMatrix) -> tuple[list[Form], SuperMatrix]:
    """The degree-0 diagonal entries of a matrix, and its soul (the rest).

    Raises UnsupportedShapeError when degree-0 content lies off the diagonal.
    """
    d = mat.dim
    if any(i != j and not mat.entries[i][j].component(0).is_zero
           for i in range(d) for j in range(d)):
        raise UnsupportedShapeError("degree-0 content outside the diagonal body")
    diag = [mat.entries[i][i].component(0) for i in range(d)]
    return diag, mat - SuperMatrix.diagonal(mat.algebra, mat.grading, diag, mat.backend)


def super_exp_duhamel(a: SuperMatrix) -> SuperMatrix:
    """Matrix exponential via the Duhamel expansion around a diagonal body.

    exp(body + soul) is the sum over products of soul entries weighted by
    simplex integrals of body exponentials, which reduce to divided
    differences of exp at the diagonal entries.  The sum is finite because
    each soul factor raises the form degree.  The body is the degree-0 part
    of the diagonal; degree-0 content off the diagonal is rejected.
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
