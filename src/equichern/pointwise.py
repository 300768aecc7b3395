"""Pointwise Chern forms: the Chern plan at a point in plain Python, or the Taylor exponential.

`pointwise_chern`, which `equivariant.chern_form` calls, is the supertrace
of exp(F0 + theta F1) at one point.  For a curvature pair that splits as the
Chern plan needs (`equivariant.curvature_plan`), the plan is built once per
pair (`pair_plan`, memoised on the pair) and evaluated at theta once
(`plan_at`, memoised for the latest theta): `ChernPlan.evaluate` folds the
forms' weights theta^p Delta[nodes(theta)]exp into the coefficient
polynomials, giving the Gaussian exponent and a form with a few small
polynomial coefficients.  A point is then that `GaussianForm` evaluated term
by term (`poly_value`) and one exponential, with no numpy: on c-plane-uv
the evaluated plan has four coefficients over three monomials, for which a
numpy table costs more per call than the sums it forms.

The weights are divided differences of exp at any spread of the nodes
(`supermatrix.exp_divided_difference` squares them past
`supermatrix.SERIES_SPREAD`), so every theta takes the plan side.  Only a
pair the plan refuses takes the Taylor side: F0 and F1 evaluated at the
point (`SuperMatrix.evaluate`), then `supermatrix.super_exp` of
F0 + theta F1 and its supertrace; the dense exponential's module,
`equichern.kernels`, and with it numpy, loads only then.  A form whose
coefficients overflow raises OverflowError on either side, where the exact
value is out of range or its float evaluation is inf - inf; a form whose
Gaussian factor underflows is the zero form.

`poly_value` is the one scalar evaluator: `Poly.evaluate` (and through it
`Form.evaluate` and `SuperMatrix.evaluate`) and `GaussianForm.evaluate` call
it.  No command runs it; it lives here so that no command compiles it.
"""

from __future__ import annotations

import cmath
import functools
from typing import Mapping

from .equivariant import ChernPlan, GaussianForm, curvature_plan
from .exterior import EvaluationError, ExteriorAlgebra, Form, Poly
from .polyeval import full_point
from .supermatrix import SuperMatrix, UnsupportedShapeError, super_exp


def poly_value(poly: Poly, point: Mapping[str, complex]) -> complex:
    """A polynomial's value at a point of scalars, summed term by term.

    Each term is its coefficient multiplied by its coordinates one factor at
    a time, so a value too large for a float overflows to inf rather than
    raising.  A coordinate the polynomial reads and the point lacks raises
    EvaluationError naming the first such coordinate in declaration order.
    """
    coords = poly.algebra.coordinates
    total = 0j
    try:
        for mono, value in poly.terms.items():
            for name, e in zip(coords, mono):
                while e:
                    value *= point[name]
                    e -= 1
            total += value
    except KeyError:
        name = next(c for k, c in enumerate(coords)
                    if c not in point and any(m[k] for m in poly.terms))
        raise EvaluationError(f"no value assigned to coordinate {name!r}") from None
    return total


@functools.lru_cache(maxsize=4)
def pair_plan(pair: tuple[SuperMatrix, SuperMatrix]) -> ChernPlan | None:
    """The pair's Chern plan, or None for a pair the plan refuses.

    Supermatrices compare by identity, so a model given a new odd term or
    ``curvature`` builds its plan afresh; the cache keeps the last few pairs.
    """
    try:
        return curvature_plan(pair)
    except UnsupportedShapeError:
        return None


@functools.lru_cache(maxsize=1)
def plan_at(pair: tuple, kind: type, theta: complex) -> GaussianForm | None:
    """The pair's Chern plan evaluated at theta, kept for the latest theta.

    None for a pair the plan refuses.  ``kind`` is theta's type, so 1.3 and
    1.3 + 0j are kept apart.
    """
    plan = pair_plan(pair)
    return None if plan is None else plan.evaluate(theta)


def _require_finite(theta: complex, point: Mapping[str, complex]):
    if not cmath.isfinite(theta):
        raise ValueError(f"theta must be finite, not {theta!r}")
    for name, value in point.items():
        if not cmath.isfinite(value):
            raise ValueError(f"coordinate {name!r} must be finite, not {value!r}")


def pointwise_chern(algebra: ExteriorAlgebra, pair: tuple[SuperMatrix, SuperMatrix],
                    theta: complex, point: Mapping[str, complex]) -> Form:
    """The supertrace of exp(F0 + theta F1) at a point, for the curvature pair (F0, F1)."""
    _require_finite(theta, point)
    point = full_point(algebra, point)
    if (gaussian := plan_at(pair, type(theta), theta)) is not None:
        form = gaussian.evaluate(point)
        if not all(map(cmath.isfinite, form.terms.values())):
            raise OverflowError("the Chern form overflows at this point")
        return form
    f0, f1 = (m.evaluate(point) for m in pair)
    return super_exp(f0 + f1.scale(theta)).supertrace()
