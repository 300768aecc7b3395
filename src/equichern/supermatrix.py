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
that blocked order.  The Duhamel route is a finite sum (the soul terminates
by form degree) and serves as the oracle for the Taylor route.  Its
soul-path walk (duhamel_paths) also compiles the symbolic Chern plan, whose
soul is a polynomial in theta, and the divided differences of exp broadcast
over batches of nodes (a whole theta axis).  Matrix grading is metadata
consumed by the supertrace and the grading blocks; products carry no Koszul
signs beyond those of the wedge.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .exterior import (
    NUMERIC,
    SYMBOLIC,
    AlgebraMismatchError,
    BackendError,
    EvaluationError,
    ExteriorAlgebra,
    Form,
)

EVEN = 0
ODD = 1


class ShapeError(ValueError):
    """Dimension or grading mismatch between graded matrices."""


class UnsupportedShapeError(ValueError):
    """Matrix shape outside what an algorithm supports (e.g. non-diagonal body)."""


class ConvergenceError(RuntimeError):
    """A truncated series failed to meet its tolerance."""


@dataclass(frozen=True)
class Grading:
    """Parity per row/column, encoding the even/odd bundle splitting."""

    parities: tuple[int, ...]

    def __post_init__(self):
        if any(p not in (EVEN, ODD) for p in self.parities):
            raise ShapeError("parities must be 0 (even) or 1 (odd)")

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

    def similarity(self, g: np.ndarray) -> "SuperMatrix":
        """Conjugate by a constant scalar matrix: g · self · g^{-1}."""
        ginv = np.linalg.inv(g)
        d = self.dim
        z = self.algebra.zero(self.backend)
        out = [[z] * d for _ in range(d)]
        for i in range(d):
            for l in range(d):
                acc = z
                for j in range(d):
                    for k in range(d):
                        c = g[i, j] * ginv[k, l]
                        if c == 0 or self.entries[j][k].is_zero:
                            continue
                        acc = acc + self.entries[j][k].scale(c)
                out[i][l] = acc
        return SuperMatrix(self.algebra, self.grading, out)

    # -- dense component array ------------------------------------------------------

    def to_array(self) -> np.ndarray:
        """Components ``(d, d, 2^n)`` of a numeric matrix."""
        if self.backend != NUMERIC:
            raise BackendError("component arrays need numeric entries")
        d = self.dim
        out = np.zeros((d, d, self.algebra.n_components), dtype=np.complex128)
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                for mask, c in f.terms.items():
                    out[i, j, mask] = c
        return out

    @classmethod
    def from_array(cls, algebra, grading, arr: np.ndarray) -> "SuperMatrix":
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


# -- dense-array exponential ------------------------------------------------------


def _degrees(n_components: int) -> np.ndarray:
    return np.array([m.bit_count() for m in range(n_components)])


def is_even(A: np.ndarray, parities: Sequence[int]) -> bool:
    """Whether every non-zero component ``A[j, k, b]`` has p_j + p_k + |b| even."""
    p = np.asarray(parities)
    odd = (p[:, None, None] + p[None, :, None] + _degrees(A.shape[2])) % 2 == 1
    return not np.any(A[odd])


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Where the components of a ``(d, d, 2^n)`` array sit in the blocked form.

    A component array X is a ``d``-row matrix over the row space of pairs
    (k, c), column and generator subset, and ``X B = X @ R(B)`` with R the
    right-multiplication operator of B, wedge signs included.  The class of
    (k, c) is p_k + |c| mod 2.  When B is even, right multiplication keeps
    the class, so R is block diagonal; with two classes of one size (any
    algebra with generators), the blocked form of X is ``(2, d, d 2^n / 2)``,
    block q holding the columns of class q, and every product is one batched
    matmul.  Otherwise there is one block, the whole row space.

    ``index`` is the flat blocked position of every component; ``dest``,
    ``src`` and ``sign`` scatter a blocked array into its operator; the
    supertrace reads the diagonal components ``trace_masks`` (for two blocks,
    the even ones: the odd ones of an even array are zero) at ``trace_index``
    and weights its rows with ``signs``.
    """

    shape: tuple[int, int, int]
    index: np.ndarray
    dest: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    trace_masks: tuple[int, ...]
    trace_index: np.ndarray
    signs: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        """Blocked positions of the degree-0 diagonal components."""
        return self.trace_index[:, 0]

    def block(self, A: np.ndarray) -> np.ndarray:
        out = np.empty(A.size, dtype=np.complex128)
        out[self.index.ravel()] = A.ravel()
        return out.reshape(self.shape)

    def unblock(self, X: np.ndarray) -> np.ndarray:
        return X.ravel()[self.index]

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

    ``even`` says that the arrays to be multiplied are even (``is_even``);
    the classes are split only then and when they are equal in size.
    """
    K = algebra.n_components
    d = len(parities)
    p = np.asarray(parities, dtype=int)
    cls = ((p[:, None] + _degrees(K)[None, :]) % 2).ravel()
    nb = 2 if even and 2 * cls.sum() == d * K else 1
    if nb == 1:
        cls = np.zeros_like(cls)
    h = d * K // nb
    where = np.empty(d * K, dtype=int)
    where[np.argsort(cls, kind="stable")] = np.arange(d * K)
    q, t = where // h, where % h
    index = (q * d * h + np.arange(d)[:, None] * h + t).reshape(d, d, K)
    # R[(j, a), (k, c)] = sign(a, b) B[j, k, b] with b = c ^ a, kept within a class
    ai, bi, ci, sg = algebra.pair_table()
    j, k = (x.ravel()[:, None] for x in np.indices((d, d)))
    rows, cols = j * K + ai, k * K + ci
    keep = (cls[rows] == cls[cols]).ravel()
    dest = (q[rows] * h * h + t[rows] * h + t[cols]).ravel()[keep]
    src = index[j, k, bi].ravel()[keep]
    sign = np.broadcast_to(sg, rows.shape).ravel()[keep]
    cls2 = cls.reshape(d, K)
    masks = np.flatnonzero((cls2 == cls2[:, :1]).all(axis=0))
    diag = np.arange(d)
    return BlockLayout(shape=(nb, d, h), index=index, dest=dest, src=src,
                       sign=sign.astype(np.complex128),
                       trace_masks=tuple(masks.tolist()),
                       trace_index=index[diag, diag][:, masks],
                       signs=np.where(p == ODD, -1.0, 1.0))


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
                       tol: float = 1e-12) -> np.ndarray:
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
    diag = layout.diagonal
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


def taylor_exp_array(A: np.ndarray, algebra: ExteriorAlgebra, tol: float = 1e-12,
                     grading: Grading | None = None) -> np.ndarray:
    """Exponential of a component array ``(d, d, 2^n)`` over the algebra.

    ``taylor_exp_blocked`` on the array's ``block_layout``: trace shift, then
    scaling-and-squaring of a Taylor sum.  The array is in two class blocks
    when it is even for ``grading`` (all rows even when None), as a
    superconnection's curvature is; any other array runs as one block.
    """
    parities = grading.parities if grading is not None else (EVEN,) * len(A)
    layout = block_layout(algebra, parities, is_even(A, parities))
    return layout.unblock(taylor_exp_blocked(layout.block(A), layout, tol))


def super_exp(a: SuperMatrix, tol: float = 1e-12) -> SuperMatrix:
    """Matrix exponential of a numeric supermatrix by ``taylor_exp_array``."""
    if a.backend != NUMERIC:
        raise BackendError("super_exp requires the numeric backend")
    acc = taylor_exp_array(a.to_array(), a.algebra, tol, a.grading)
    return SuperMatrix.from_array(a.algebra, a.grading, acc)


@dataclass(frozen=True, eq=False)
class AffineArray:
    """Component arrays of M0 + t M1, two symbolic supermatrices, compiled.

    Every coefficient polynomial is a row of ``coeffs`` ``(2, d d 2^n, M)``,
    in the blocked order of ``layout``, against the M monomials of
    ``exponents`` ``(M, len(coords))`` in the coordinates ``coords`` that
    occur, so the blocked array at a point is one product.
    """

    coords: tuple[str, ...]
    exponents: np.ndarray
    coeffs: np.ndarray
    layout: BlockLayout

    @classmethod
    def compile(cls, m0: SuperMatrix, m1: SuperMatrix) -> "AffineArray":
        m0._check(m1)
        alg, d = m0.algebra, m0.dim
        K = alg.n_components
        monomials: dict[tuple, int] = {}
        terms = []
        for t, mat in enumerate((m0, m1)):
            for i, row in enumerate(mat.entries):
                for j, f in enumerate(row):
                    for mask, poly in f.terms.items():
                        for mono, c in poly.terms.items():
                            col = monomials.setdefault(mono, len(monomials))
                            terms.append((t, (i * d + j) * K + mask, col, c))
        dense = np.zeros((2, d * d * K, len(monomials)), dtype=np.complex128)
        for t, row, col, c in terms:
            dense[t, row, col] = c
        exps = np.array(list(monomials), dtype=int).reshape(len(monomials),
                                                            len(alg.coordinates))
        used = np.flatnonzero(exps.any(axis=0))
        parities = m0.grading.parities
        even = is_even(np.abs(dense).sum(axis=(0, 2)).reshape(d, d, K), parities)
        layout = block_layout(alg, parities, even)
        coeffs = np.empty_like(dense)
        coeffs[:, layout.index.ravel()] = dense
        return cls(coords=tuple(alg.coordinates[c] for c in used),
                   exponents=exps[:, used], coeffs=coeffs, layout=layout)

    def at(self, t: complex, point: Mapping[str, complex]) -> np.ndarray:
        """The blocked array of M0 + t M1 at a point."""
        try:
            vals = np.array([point[c] for c in self.coords], dtype=np.complex128)
        except KeyError as exc:
            raise EvaluationError(
                f"no value assigned to coordinate {exc.args[0]!r}") from None
        r = self.coeffs @ np.prod(vals ** self.exponents, axis=1)
        return (r[0] + t * r[1]).reshape(self.layout.shape)


# -- divided differences of exp ------------------------------------------------


def exp_divided_difference(nodes, tol: float = 1e-18):
    """Divided difference of exp over the given nodes, confluent-safe.

    The k+1 nodes run along the first axis of ``nodes``; any further axes are
    a batch, evaluated elementwise (a plain sequence of nodes gives a
    complex).  Well-separated node pairs use the classical quotient;
    otherwise (the confluence threshold |a-b| < 1e-8, and any higher order) a
    mean-shifted series in complete homogeneous symmetric polynomials is
    used, which reduces to the derivative formula at exact confluence.  Its
    number of terms is fixed in advance by a bound on the tail.
    """
    xs = np.asarray(nodes, dtype=complex)
    if xs.ndim == 0 or len(xs) == 0:
        raise ValueError("need at least one node")
    k = len(xs) - 1
    shift = xs.sum(axis=0) / (k + 1)
    separated = False
    if k == 1:
        scale = np.maximum(1.0, np.maximum(abs(xs[0]), abs(xs[1])))
        separated = abs(xs[0] - xs[1]) >= 1e-8 * scale
    # separated pairs take the quotient, so their series is left at zero
    ds = np.where(separated, 0.0, xs - shift)
    # sum_m h_m(ds) / (m+k)!  with h_m complete homogeneous symmetric; as
    # |h_m(ds)| / (m+k)! <= r^m / (m! k!) with r = max |ds|, the terms past
    # m_max sum to at most e^r r^(m_max+1) / ((m_max+1)! k!) < tol
    r = float(np.abs(ds).max(initial=0.0))
    log_r = math.log(r) if r > 0 else -math.inf
    m_max = 0
    while (r + (m_max + 1) * log_r - math.lgamma(m_max + 2) - math.lgamma(k + 1)
           >= math.log(tol)):
        m_max += 1
        if m_max >= 400:
            raise ConvergenceError("divided-difference series did not converge")
    prev = np.ones_like(ds)
    coeff = 1.0 / math.factorial(k)
    total = np.full(shift.shape, coeff, dtype=complex)
    for m in range(1, m_max + 1):
        cur = np.empty_like(ds)
        cur[0] = prev[0] * ds[0]
        for j in range(1, k + 1):
            cur[j] = cur[j - 1] + ds[j] * prev[j]
        coeff /= m + k
        term = cur[k] * coeff
        total = total + term
        prev = cur
    out = np.exp(shift) * total
    if k == 1:
        diff = np.where(separated, xs[0] - xs[1], 1.0)
        out = np.where(separated, (np.exp(xs[0]) - np.exp(xs[1])) / diff, out)
    return complex(out) if xs.ndim == 1 else out


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


def super_exp_duhamel(a: SuperMatrix, tol: float = 1e-18) -> SuperMatrix:
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
    body = SuperMatrix.diagonal(a.algebra, a.grading,
                                [a.entries[i][i].component(0) for i in range(d)], NUMERIC)
    beta = [body.entries[i][i].terms.get(0, 0.0 + 0.0j) for i in range(d)]
    soul = a - body
    for i in range(d):
        for j in range(d):
            if not soul.entries[i][j].component(0).is_zero:
                raise UnsupportedShapeError(
                    "degree-0 content outside the diagonal body")

    out = [[z for _ in range(d)] for _ in range(d)]
    for i in range(d):
        out[i][i] = a.algebra.scalar(cmath.exp(beta[i]), NUMERIC)
    for i, j, prod, nodes in duhamel_paths([soul], beta):
        out[i][j] = out[i][j] + prod[0].scale(exp_divided_difference(nodes, tol))
    return SuperMatrix(a.algebra, a.grading, out)
