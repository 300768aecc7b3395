"""The grid evaluator of polynomials: arrays of polynomials compiled into one table.

`CompiledPolys` compiles an array of polynomials into one coefficient matrix
against their monomials, built once by plain loops; on a grid of points the
polynomials are then one product of that matrix and the monomials.
`Poly.eval_grid`, the ellipticity scan and the symbol-algebra checks
evaluate through it.  A point of scalars is not evaluated here but term by
term in plain Python (`pointwise.poly_value`, behind `Poly.evaluate`):
per call, a numpy table costs more than the few sums it forms.
`full_point` completes a point with the conjugate coordinates that the
polynomials read.  numpy loads with the first `CompiledPolys`, not with
this module, so `full_point` (which the pointwise Chern form reads) and the
index character and the delta pairing never load it.
"""

from __future__ import annotations

import math
from typing import Mapping

from .exterior import EvaluationError, ExteriorAlgebra, Poly


class CompiledPolys:
    """An array of polynomials compiled once, evaluated on grids as one product.

    ``polys`` is a nested sequence (or an object array) of polynomials, None
    for zero, of shape ``shape``.  Each entry, in row-major order, is one row
    of the complex matrix ``coeffs`` against the monomials numbered in order
    of first appearance; a None entry is a row of zeros.  A monomial is its
    ``factors``, pairs of a position in ``coords`` (the coordinates that
    occur) and an exponent of at most ``top`` there.  On coordinate arrays of
    one shape every monomial is formed once, from per-coordinate power
    tables, and the polynomials are ``coeffs @ monomials``.
    """

    def __init__(self, algebra: ExteriorAlgebra, polys):
        import numpy as np

        self.shape, flat = _flatten(polys)
        monomials: dict[tuple, int] = {}
        terms = [(row, monomials.setdefault(mono, len(monomials)), c)
                 for row, f in enumerate(flat) if f is not None
                 for mono, c in f.terms.items()]
        self.coeffs = np.zeros((len(flat), len(monomials)), dtype=np.complex128)
        if terms:
            rows, cols, values = zip(*terms)
            self.coeffs[rows, cols] = values
        used = [k for k in range(len(algebra.coordinates)) if any(m[k] for m in monomials)]
        self.coords = tuple(algebra.coordinates[k] for k in used)
        self.top = [max(m[k] for m in monomials) for k in used]
        self.factors = [[(n, m[k]) for n, k in enumerate(used) if m[k]] for m in monomials]

    def entries(self, arrays: Mapping[str, np.ndarray]) -> np.ndarray:
        """``shape`` + grid shape: each polynomial on the grid, exact zeros for None."""
        import numpy as np

        for name in self.coords:
            if name not in arrays:
                raise EvaluationError(f"no value assigned to coordinate {name!r}")
        # a table of constants takes its grid from the whole point
        shape = np.broadcast(*(arrays[n] for n in self.coords or arrays)).shape
        powers = []
        for name, top in zip(self.coords, self.top):
            v = np.asarray(arrays[name], dtype=np.complex128)
            power = [None, v]
            for _ in range(1, top):
                power.append(power[-1] * v)
            powers.append(power)
        mono = np.empty((len(self.factors),) + shape, dtype=np.complex128)
        for m, factors in enumerate(self.factors):
            if not factors:
                mono[m] = 1.0
                continue
            (k, e), *rest = factors
            mono[m] = powers[k][e]
            for k, e in rest:
                mono[m] *= powers[k][e]
        flat = self.coeffs @ mono.reshape(len(mono), math.prod(shape))
        return flat.reshape(self.shape + shape)


def _flatten(polys) -> tuple[tuple[int, ...], list]:
    """The shape and the flat row-major entries of a nested sequence of polynomials."""
    if polys is None or isinstance(polys, Poly):
        return (), [polys]
    parts = [_flatten(p) for p in polys]
    shape = (len(parts),) + (parts[0][0] if parts else ())
    return shape, [f for _, flat in parts for f in flat]


def full_point(algebra: ExteriorAlgebra, point: Mapping[str, complex]) -> dict[str, complex]:
    """Extend a point on the real locus with its conjugate coordinates.

    The values may be numbers or numpy arrays; conjugates are taken
    elementwise.
    """
    out = dict(point)
    for a, b in algebra.conjugates.items():
        if a in out and b not in out:
            out[b] = out[a].conjugate()
    return out
