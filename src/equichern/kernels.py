"""Numpy kernels over the tables that the exterior and supermatrix modules compile.

The compiled forms (`exterior.CompiledPolys`, `supermatrix.BlockLayout`,
`supermatrix.AffineArray`) are built in plain Python, their integer and
complex tables in stdlib ``array`` buffers, so compiling a model's curvature
loads no numpy.  This module is where those tables meet numpy: each kernel
wraps the buffers it reads with ``np.frombuffer`` (no copy), once per call.
It holds the dense Chern exponential of the pointwise route (the trace
shift, then scaling-and-squaring of a truncated Taylor sum with the wedge as
a block-diagonal right-multiplication operator), the one evaluator of
compiled polynomials (at a point or on a grid), and the component array of a
supermatrix.  Only the dense route, the ellipticity scan, the symbol-algebra
checks, pointwise evaluation of polynomials and forms, and the tests load it;
the index character and the delta pairing do not.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple

import numpy as np

from .exterior import NUMERIC, BackendError, CompiledPolys, EvaluationError
from .supermatrix import TAYLOR_TOL, AffineArray, BlockLayout, SuperMatrix, taylor_parameters

# dtypes of the stdlib buffers: array("q") integers and array("d") complex pairs
_INT = np.dtype(np.int64)
_COMPLEX = np.dtype(np.complex128)


def entries(table: CompiledPolys, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    """``CompiledPolys.entries``: ``table.shape + shape``, as one ``coeffs @ monomials``.

    A None entry is a zero row of ``coeffs``, so its values are exact zeros.
    """
    for name in table.coords:
        if name not in arrays:
            raise EvaluationError(f"no value assigned to coordinate {name!r}")
    # a table of constants takes its grid from the whole point
    shape = np.broadcast(*(arrays[n] for n in table.coords or arrays)).shape
    powers = []
    for name, top in zip(table.coords, table.top):
        v = np.asarray(arrays[name], dtype=np.complex128)
        power = [None, v]
        for _ in range(1, top):
            power.append(power[-1] * v)
        powers.append(power)
    mono = np.empty((len(table.factors),) + shape, dtype=np.complex128)
    for m, factors in enumerate(table.factors):
        if not factors:
            mono[m] = 1.0
            continue
        (k, e), *rest = factors
        mono[m] = powers[k][e]
        for k, e in rest:
            mono[m] *= powers[k][e]
    coeffs = np.frombuffer(table.coeffs, _COMPLEX).reshape(math.prod(table.shape), len(mono))
    return (coeffs @ mono.reshape(len(mono), math.prod(shape))).reshape(table.shape + shape)


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


class Blocks(NamedTuple):
    """The tables of a `supermatrix.BlockLayout` that products and traces read.

    ``Blocks.of`` wraps them as numpy arrays, once per call of a kernel; the
    component ``index``, which only converting whole arrays reads, is wrapped
    where it is used.
    """

    layout: BlockLayout
    dest: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    trace_index: np.ndarray
    signs: np.ndarray

    @classmethod
    def of(cls, layout: BlockLayout) -> "Blocks":
        return cls(layout, np.frombuffer(layout.dest, _INT), np.frombuffer(layout.src, _INT),
                   np.frombuffer(layout.sign, _COMPLEX),
                   np.frombuffer(layout.trace_index, _INT).reshape(-1, layout.shape[1]).T,
                   np.frombuffer(layout.signs))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.layout.shape

    @property
    def diagonal(self) -> np.ndarray:
        """Blocked positions of the degree-0 diagonal components."""
        return self.trace_index[:, 0]

    def block(self, A: np.ndarray) -> np.ndarray:
        out = np.empty(A.size, dtype=np.complex128)
        out[np.frombuffer(self.layout.index, _INT)] = A.ravel()
        return out.reshape(self.shape)

    def unblock(self, X: np.ndarray) -> np.ndarray:
        d = self.shape[1]
        return X.ravel()[np.frombuffer(self.layout.index, _INT)].reshape(d, d, -1)

    def operator(self, X: np.ndarray) -> np.ndarray:
        """Right-multiplication operator ``(blocks, h, h)`` of a blocked array."""
        nb, _, h = self.shape
        R = np.zeros(nb * h * h, dtype=np.complex128)
        R[self.dest] = X.ravel()[self.src] * self.sign
        return R.reshape(nb, h, h)

    def supertrace(self, X: np.ndarray) -> np.ndarray:
        """Grading-signed trace of a blocked array, one value per ``trace_masks``."""
        return self.signs @ X.ravel()[self.trace_index]


def affine_at(curv: AffineArray, t: complex, point: Mapping[str, complex]) -> np.ndarray:
    """The blocked array of the compiled M0 + t M1 at a point."""
    r = entries(curv.table, point)
    return (r[0] + t * r[1]).reshape(curv.layout.shape)


def _array_norm(A: np.ndarray) -> float:
    # max row sum of coefficient l1-norms: submultiplicative for the wedge kernel
    return float(np.abs(A).sum(axis=2).sum(axis=1).max(initial=0.0))


def taylor_exp_blocked(X: np.ndarray, blocks: Blocks,
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
    diag = blocks.diagonal
    flat = X.astype(np.complex128).ravel()
    mu = flat[diag].sum() / len(diag)
    flat[diag] -= mu
    shifted = flat.reshape(blocks.shape)
    s, m = taylor_parameters(_array_norm(shifted.transpose(1, 0, 2)), tol)
    R = blocks.operator(shifted / 2.0**s)
    term = np.zeros(flat.size, dtype=np.complex128)
    term[diag] = 1.0
    term = term.reshape(blocks.shape)
    acc = term.copy()
    for k in range(1, m + 1):
        term = term @ R / k
        acc += term
    for _ in range(s):
        acc = acc @ blocks.operator(acc)
    return acc * cmath.exp(mu)
