"""The dense numpy Taylor exponential, and the oracles of the pointwise Chern form.

`taylor_exp` is the one dense exponential, which only `supermatrix.super_exp`
runs: the trace shift, then scaling-and-squaring of a truncated Taylor sum
(`taylor_parameters`) over the row space of a ``(d, d, 2^n)`` component
array, ``d`` rows of ``d 2^n`` pairs (column, generator subset), with the
wedge applied as one ``(d 2^n)^2`` right-multiplication operator
(`right_operator`, built from `ExteriorAlgebra.pair_table`).  The module
is the one home of the component array: `to_array` (which raises
BackendError on a polynomial coefficient) and `from_array`, both of which
`super_exp` calls.  It also holds the two independent checks of
the pointwise Chern form: `super_exp_duhamel`, the Duhamel exponential that
is the oracle of the Taylor route, and `closedness_residual`.  Only
`super_exp` (and so the Taylor side of `equivariant.chern_form`, for a
curvature pair the Chern plan refuses) and the tests load it; no command
does, and neither does a Chern form the plan evaluates.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, Sequence

import numpy as np

from .equivariant import diagonal_body, duhamel_paths, symbolic_chern
from .exterior import BackendError, ExteriorAlgebra, Form, Poly
from .geometry import ActionModel, cartan_field
from .polyeval import full_point
from .supermatrix import TAYLOR_TOL, Grading, SuperMatrix, exp_divided_difference


def to_array(a: SuperMatrix) -> np.ndarray:
    """Components ``(d, d, 2^n)`` of a supermatrix of numbers, a numpy array."""
    d = a.dim
    out = np.zeros((d, d, a.algebra.n_components), dtype=np.complex128)
    for i, row in enumerate(a.entries):
        for j, f in enumerate(row):
            for mask, c in f.terms.items():
                if isinstance(c, Poly):
                    raise BackendError("component arrays need number coefficients")
                out[i, j, mask] = c
    return out


def from_array(algebra: ExteriorAlgebra, grading: Grading, arr) -> SuperMatrix:
    """Supermatrix of numbers from components ``(d, d, 2^n)``."""
    return SuperMatrix(algebra, grading, [[Form(algebra, dict(enumerate(f)))
                                           for f in row] for row in arr])


def right_operator(B: np.ndarray, pairs: Sequence[np.ndarray]) -> np.ndarray:
    """The right-multiplication operator of a component array B, ``(d 2^n, d 2^n)``.

    A component array X is a ``d``-row matrix over the row space of pairs
    (k, c), column and generator subset, and ``X B = X @ R`` with
    ``R[(j, a), (k, c)] = sign(a, b) B[j, k, b]`` for every disjoint pair
    (a, b) with union c; ``pairs`` holds the columns a, b, c and sign of
    `ExteriorAlgebra.pair_table`.
    """
    a, b, c, sign = pairs
    d, _, K = B.shape
    R = np.zeros((d, K, d, K), dtype=np.complex128)
    R[:, a, :, c] = (B[:, :, b] * sign).transpose(2, 0, 1)
    return R.reshape(d * K, d * K)


def _array_norm(A: np.ndarray) -> float:
    # max row sum of coefficient l1-norms: submultiplicative for the wedge kernel
    return float(np.abs(A).sum(axis=2).sum(axis=1).max(initial=0.0))


def taylor_parameters(norm: float, tol: float) -> tuple[int, int]:
    """Scaling exponent s, least with r = norm / 2^s <= 0.5, and Taylor degree m.

    The degree-m sum of exp(X), ||X|| = r, is exp(X)(I + E) with ||E|| at most
    e^r r^(m+1) / (m+1)! (m+2) / (m+2-r); m is the least with 2^s ||E|| <= tol,
    so the 2^s-th power is within about ``tol ||exp(A)||`` of exp(A).  s comes
    from the binary exponent of the norm (`math.frexp`) and 2^s only as
    2^-s, exact for every finite norm, so a norm near the float limit scales
    as any other.
    """
    mantissa, exponent = math.frexp(norm)  # norm = mantissa 2^exponent, mantissa in [0.5, 1)
    s = max(0, exponent + (mantissa > 0.5))
    r = norm * 2.0**-s
    m, tail = 0, r  # tail = r^(m+1) / (m+1)!
    while math.exp(r) * tail * (m + 2) / (m + 2 - r) > tol * 2.0**-s:
        m += 1
        tail *= r / (m + 1)
    return s, m


def taylor_exp(X: np.ndarray, algebra: ExteriorAlgebra, tol: float = TAYLOR_TOL) -> np.ndarray:
    """Exponential of a ``(d, d, 2^n)`` component array, as a component array.

    The trace shift mu = tr(X_0) / d, the mean of the degree-0 diagonal, is
    taken off first and e^mu multiplied back at the end, which is exact as
    mu 1 is central; it lowers the norm and so the scaling.  Then
    scaling-and-squaring with a truncated Taylor sum of the scaling and
    degree of ``taylor_parameters``: every product is one matmul of the
    running ``(d, d 2^n)`` term against the factor's `right_operator`, each
    squaring's operator built from the accumulator.  A ``tol`` that is not
    positive (NaN included) raises ValueError; an array with entries that are
    not finite, or whose trace shift or norm overflows, and an exponential
    past the float range, raise OverflowError with no RuntimeWarning.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, not {tol!r}")
    d, _, K = X.shape
    pairs = [np.array(column) for column in zip(*algebra.pair_table())]
    rows = np.arange(d)
    shifted = X.astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = shifted[rows, rows, 0].sum() / d
        shifted[rows, rows, 0] -= mu
        # a non-finite entry, trace shift or row sum makes the norm inf or NaN
        norm = _array_norm(shifted)
        if not math.isfinite(norm):
            raise OverflowError("the exponent has entries that are not finite, "
                                "or a trace or norm past the float range")
        s, m = taylor_parameters(norm, tol)
        R = right_operator(shifted * 2.0**-s, pairs)
        term = np.zeros((d, d * K), dtype=np.complex128)
        term[rows, rows * K] = 1.0
        acc = term.copy()
        for k in range(1, m + 1):
            term = term @ R / k
            acc += term
        for _ in range(s):
            acc = acc @ right_operator(acc.reshape(d, d, K), pairs)
        out = acc.reshape(d, d, K) * np.exp(mu)
    if not np.isfinite(out).all():
        raise OverflowError("the Taylor exponential overflows")
    return out


# -- the independent checks of the pointwise route ------------------------------------


def super_exp_duhamel(a: SuperMatrix) -> SuperMatrix:
    """Matrix exponential via the Duhamel expansion around a diagonal body.

    exp(body + soul) is the sum over products of soul entries weighted by
    simplex integrals of body exponentials, which reduce to divided
    differences of exp at the diagonal entries.  The sum is finite because
    each soul factor raises the form degree.  The body is the degree-0 part
    of the diagonal; degree-0 content off the diagonal is rejected.  It walks
    the soul paths of the Chern plan (`equivariant.duhamel_paths`) and is the
    oracle of the Taylor route of `supermatrix.super_exp`.  The matrix holds
    numbers, and so does the result.
    """
    d = a.dim
    z = a.algebra.zero()
    diag, soul = diagonal_body(a)
    beta = [f.terms.get(0, 0.0 + 0.0j) for f in diag]
    out = [[z for _ in range(d)] for _ in range(d)]
    for i in range(d):
        out[i][i] = Form(a.algebra, {0: cmath.exp(beta[i])})
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
    return value.norm_max() * abs(cmath.exp(g.exponent.evaluate(pt)))
