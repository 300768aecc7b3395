"""Z2-graded square matrices with exterior-form entries.

A supermatrix is built only where a curvature is built: the
superconnection's odd term, its curvature pair and the moment.  A symbol is
a `ring.PolyMatrix`, whose rows a supermatrix wraps (a `Poly` entry is a
degree-0 form); the parities EVEN and ODD of a `Grading` are the ring's.
Provides the graded product (entrywise wedge), the grading-signed
supertrace, the parity rule of a matrix of forms
(`SuperMatrix.homogeneous_parity`, block parity plus form degree), the
divided differences of exp, and `super_exp`, the matrix exponential of a
supermatrix of numbers.  Entries are forms with either kind of coefficient
(`equichern.exterior`): the matrix carries no mark of which, and only
`super_exp`, through `kernels.to_array`, requires numbers.  This module is
plain Python.  `super_exp` runs `equichern.kernels.taylor_exp`, the one
dense exponential, in the numpy module that loads on first use: the trace
shift (the mean of the degree-0 diagonal, central, so its exponential
factors out exactly), then a scaling-and-squaring truncated Taylor sum whose
products apply the wedge as a right-multiplication operator on the row space
of the component array.  The component array ``(d, d, 2^n)`` is the kernel's
format, so `equichern.kernels` holds both directions (`to_array`,
`from_array`).  The divided differences of exp weight the closed soul paths
of the symbolic Chern plan (`equichern.equivariant`, which walks them) and
take batches of nodes (a whole theta axis) column by column.  They are one
routine at every spread, in plain Python: the mean-shifted series up to
`SERIES_SPREAD`, and past it the series on nodes scaled by 2^-s, squared s
times (McCurdy, Ng and Parlett, Math. Comp. 43, 1984).  Matrix grading is
metadata consumed by the supertrace; products carry no Koszul signs beyond
those of the wedge.
"""
from __future__ import annotations

import cmath
import math
from itertools import accumulate
from operator import mul
from typing import Callable, Mapping, Sequence

from .exterior import Form
from .ring import EVEN, ODD, AlgebraMismatchError, ExteriorAlgebra

# Relative forward-error target of the dense Taylor exponential.
TAYLOR_TOL = 1e-12
# Tail bound of the divided-difference series of exp.
DD_TOL = 1e-18
# Largest spread R at which the series, which rounds to about e^R 2^-53 of its
# scale, meets TAYLOR_TOL: ln(TAYLOR_TOL 2^53), about 9.1.
SERIES_SPREAD = math.log(TAYLOR_TOL * 2.0**53)


class ShapeError(ValueError):
    """Dimension or grading mismatch between graded matrices."""


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

    @property
    def dim(self) -> int:
        return len(self.parities)

    def sign(self, i: int) -> int:
        return -1 if self.parities[i] else 1


class SuperMatrix:
    """Square matrix of forms over one exterior algebra, with a grading."""

    __slots__ = ("algebra", "grading", "entries")

    def __init__(self, algebra: ExteriorAlgebra, grading: Grading, entries):
        self.entries = tuple(tuple(x if isinstance(x, Form) else algebra.scalar(x) for x in row)
                             for row in entries)
        if any(f.algebra is not algebra for row in self.entries for f in row):
            raise AlgebraMismatchError("entry from a different algebra")
        dim = len(self.entries)
        if any(len(r) != dim for r in self.entries):
            raise ShapeError("matrix must be square")
        if grading.dim != dim:
            raise ShapeError("grading length must equal matrix dimension")
        self.algebra = algebra
        self.grading = grading

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra, grading):
        return cls.diagonal(algebra, grading, ())

    @classmethod
    def identity(cls, algebra, grading):
        return cls.diagonal(algebra, grading, [algebra.one()] * grading.dim)

    @classmethod
    def diagonal(cls, algebra, grading, diag):
        """The matrix with the given diagonal entries, zero elsewhere (a number is a constant)."""
        d = grading.dim
        z = algebra.zero()
        cells = [[z] * d for _ in range(d)]
        for i, x in enumerate(diag):
            cells[i][i] = x
        return cls(algebra, grading, cells)

    # -- basic properties -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.entries)

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
        """Matrix product; entry products are wedge products, summed from zero in order."""
        self._check(other)
        z = self.algebra.zero()
        cols = list(zip(*other.entries))
        return SuperMatrix(self.algebra, self.grading,
                           [[sum((a.wedge(b) for a, b in zip(row, col)
                                  if not (a.is_zero or b.is_zero)), z) for col in cols]
                            for row in self.entries])

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
        acc = self.algebra.zero()
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

    def isclose(self, other: "SuperMatrix", tol: float = 1e-12) -> bool:
        self._check(other)
        return all(a.isclose(b, tol) for r1, r2 in zip(self.entries, other.entries)
                   for a, b in zip(r1, r2))

    def __repr__(self):
        return f"SuperMatrix(dim={self.dim}, parities={self.grading.parities})"


def super_exp(a: SuperMatrix, tol: float = TAYLOR_TOL) -> SuperMatrix:
    """Matrix exponential of a supermatrix of numbers by `kernels.taylor_exp`.

    A polynomial coefficient raises BackendError (`kernels.to_array`).
    """
    from .kernels import from_array, taylor_exp, to_array

    return from_array(a.algebra, a.grading, taylor_exp(to_array(a), a.algebra, tol))


# -- divided differences of exp ------------------------------------------------


def exp_divided_difference(nodes):
    """Divided difference of exp over the given nodes, confluent-safe.

    The k+1 nodes run along the first axis of ``nodes``: a sequence of
    numbers gives a complex, and a sequence of equal-length sequences is a
    batch, evaluated column by column into a list.  Two nodes at least 1
    apart take the classical quotient (e^a - e^b)/(a - b), which loses about
    2^-53/|a - b| of its value; closer pairs and any higher order take a
    mean-shifted series in complete homogeneous symmetric polynomials, which
    rounds to about e^(|a - b|/2) 2^-53 for a pair and reduces to the
    derivative formula at exact confluence.  It stops once a bound on its
    tail falls below DD_TOL, and raises ConvergenceError at 400 terms.  The
    series rounds to about e^R 2^-53 of its scale, R the largest distance of
    a node from the nodes' mean, so past R = SERIES_SPREAD it runs on the
    nodes times 2^-s instead, s the least with 2R 2^-s <= SERIES_SPREAD: the
    triangle of sub-differences of Opitz's bidiagonal form, squared s times.
    Nodes whose largest real part c passes 709, where e^c nears the float
    limit, are shifted by -c and the value multiplied by e^(c/2) twice; a
    value out of the float range raises OverflowError("divided difference of
    exp out of range").
    """
    if not len(nodes):
        raise ValueError("need at least one node")
    try:
        if hasattr(nodes[0], "__len__"):
            return [_exp_dd(column) for column in zip(*nodes)]
        return _exp_dd(nodes)
    except OverflowError:  # math's, where e^(c/2) itself passes the float range
        raise OverflowError("divided difference of exp out of range") from None


def _exp_dd(nodes) -> complex:
    xs = [complex(x) for x in nodes]
    c = max(x.real for x in xs)
    if c > 709:  # e^c passes the float range at about 709.78: take it in halves
        value = _exp_dd([x - c for x in xs]) * math.exp(c / 2) * math.exp(c / 2)
        if not cmath.isfinite(value):
            raise OverflowError("divided difference of exp out of range")
        return value
    k = len(xs) - 1
    if k == 1:
        a, b = xs
        if abs(a - b) >= 1:
            return (cmath.exp(a) - cmath.exp(b)) / (a - b)
    shift = sum(xs) / (k + 1)
    ds = [x - shift for x in xs]
    # sum_m h_m(ds) / (m+k)!  with h_m complete homogeneous symmetric; as
    # |h_m(ds)| / (m+k)! <= r^m / (m! k!) with r = max |ds|, the terms past
    # m sum to at most e^r tail with tail = r^(m+1) / ((m+1)! k!), and the
    # series stops at the first m with e^r tail < DD_TOL (e^-r cannot overflow)
    r = max(map(abs, ds))
    if r > SERIES_SPREAD:
        # Delta[x0..xk]exp is entry (0, k) of exp(J), J = diag(x) + superdiagonal
        # 1 (Opitz), and exp(J / 2^s) has entries 2^-s(j-i) Delta[y_i..y_j]exp
        # for y = x 2^-s; each sub-difference spreads at most 2r 2^-s <=
        # SERIES_SPREAD about its own mean, so the series gives it.  Squared s
        # times, it is exp(J).  The powers of 2 are floats, exact and at worst
        # 0: an int one overflows its float conversion at r ~ 1e300.  Past
        # about r = 1e16 the squared diagonal drifts off its modulus
        s = math.ceil(math.log2(2 * r / SERIES_SPREAD))
        n = range(k + 1)
        t = [[_exp_dd([x * 2.0**-s for x in xs[i:j + 1]]) * 2.0**(s * (i - j)) if i <= j else 0
              for j in n] for i in n]
        for _ in range(s):
            t = [[sum(t[i][m] * t[m][j] for m in range(i, j + 1)) for j in n] for i in n]
        if not cmath.isfinite(t[0][k]):
            raise OverflowError("divided difference of exp out of range")
        return t[0][k]
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
