"""Pointwise Chern forms: the Chern plan at a point in plain Python, or the Taylor exponential.

`pointwise_chern`, which `equivariant.chern_form` calls, is the supertrace
of exp(F0 + theta F1) at one point.  For a curvature pair that splits as the
Chern plan needs (`equivariant.curvature_plan`), the plan is built once per
pair (`pair_plan`, memoised on the pair) and evaluated at theta once
(`plan_at`, memoised for the latest theta and keyed by its type as well as
its value): `ChernPlan.evaluate` folds the forms' weights
theta^p Delta[nodes(theta)]exp into the coefficient polynomials, giving the
Gaussian exponent and a form with a few small polynomial coefficients.  A
point is then that `GaussianForm` evaluated term by term (`poly_value`) and
one exponential, with no numpy: on c-plane-uv the evaluated plan has four
coefficients over three monomials, for which a numpy table costs more per
call than the sums it forms.

The weights are divided differences of exp at any spread of the nodes
(`supermatrix.exp_divided_difference` squares them past
`supermatrix.SERIES_SPREAD`), so every theta takes the plan side.  Only a
pair the plan refuses takes the Taylor side, where `curvature_plan` raises
UnsupportedShapeError (nothing is kept for such a pair, so each call finds
the refusal again): F0 and F1 evaluated at the point
(`SuperMatrix.evaluate`), then `supermatrix.super_exp` of F0 + theta F1 and
its supertrace; the dense exponential's module, `equichern.kernels`, and
with it numpy, loads only then.  A form whose coefficients overflow raises
OverflowError on either side, where the exact value is out of range or its
float evaluation is inf - inf; a form whose Gaussian factor underflows is
the zero form.

`poly_value` is the one scalar evaluator: `Poly.evaluate` (and through it
`Form.evaluate` and `SuperMatrix.evaluate`) and `GaussianForm.evaluate` call
it.  No command runs it; it lives here so that no command compiles it.
"""

from __future__ import annotations

import cmath
import functools
from typing import Mapping

from .equivariant import GaussianForm, curvature_plan
from .exterior import Form
from .polyeval import full_point
from .ring import EvaluationError, Poly, UnsupportedShapeError
from .supermatrix import super_exp


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


# The pair's Chern plan, kept for the last few pairs.  Supermatrices compare
# by identity, so a model given a new odd term or ``curvature`` builds its plan
# afresh; a pair the plan refuses raises UnsupportedShapeError on every call.
pair_plan = functools.lru_cache(maxsize=4)(curvature_plan)


@functools.lru_cache(maxsize=1, typed=True)
def plan_at(pair: tuple, theta: complex) -> GaussianForm:
    """The pair's Chern plan evaluated at theta, kept for the latest theta.

    The memo is keyed by theta's type as well as its value, so 1.3 and
    1.3 + 0j are kept apart.
    """
    return pair_plan(pair).evaluate(theta)


def pointwise_chern(pair: tuple, theta: complex, point: Mapping[str, complex]) -> Form:
    """The supertrace of exp(F0 + theta F1) at a point, for the curvature pair (F0, F1)."""
    if not cmath.isfinite(theta):
        raise ValueError(f"theta must be finite, not {theta!r}")
    for name, value in point.items():
        if not cmath.isfinite(value):
            raise ValueError(f"coordinate {name!r} must be finite, not {value!r}")
    point = full_point(pair[0].algebra, point)
    try:
        gaussian = plan_at(pair, theta)
    except UnsupportedShapeError:
        f0, f1 = (m.evaluate(point) for m in pair)
        return super_exp(f0 + f1.scale(theta)).supertrace()
    form = gaussian.evaluate(point)
    if not all(map(cmath.isfinite, form.terms.values())):
        raise OverflowError("the Chern form overflows at this point")
    return form
