"""Pointwise Chern forms: the Chern plan at a point in plain Python, or the Taylor exponential.

`pointwise_chern`, which `equivariant.chern_form` calls, is the supertrace
of exp(F0 + theta F1) at one point.  For a curvature pair that splits as the
Chern plan needs (`equivariant.curvature_plan`), the plan is built once per
pair (`pair_plan`, memoised on the pair) and evaluated at theta once
(`plan_at`, memoised for the latest theta and keyed by its type as well as
its value).  `ChernPlan.evaluate` sums the forms times their weights
theta^p Delta[nodes(theta)]exp in numbers (`fold`, one pass over the forms'
coefficients, with the bits of the symbolic sum ``ChernPlan.contract``
forms), and `plan_at` flattens the result into a `FlatGaussian`: the
Gaussian exponent and each coefficient as a table of terms, each a number
and the coordinates it is multiplied by.  A point is then one multiply-add
pass over that table and one exponential, with no numpy and no polynomial
arithmetic: on c-plane-uv the table has four coefficients over three
monomials, for which a numpy table costs more per call than the sums it
forms.

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

`terms_value` is the one scalar evaluator.  A point of the plan reads it
through `FlatGaussian.evaluate`, as does `GaussianForm.evaluate`, and
`poly_value` runs it on one polynomial's flattened terms for `Poly.evaluate`
(and through it `Form.evaluate` and `SuperMatrix.evaluate`).  No command
runs the evaluator or the fold; they live here so that no command compiles
them.  The point is completed with its conjugate coordinates by
`ring.full_point`, so the route loads neither numpy nor the grid evaluator
`equichern.polyeval`.
"""

from __future__ import annotations

import cmath
import functools
from typing import Mapping, NamedTuple

from .equivariant import ChernPlan, GaussianForm, curvature_plan
from .exterior import Form
from .ring import EvaluationError, ExteriorAlgebra, Poly, UnsupportedShapeError, full_point
from .supermatrix import super_exp


def flat_terms(poly: Poly) -> tuple:
    """A polynomial's terms as (coefficient, factor names).

    A coordinate of exponent e is named e times, in declaration order.
    """
    coords = poly.algebra.coordinates
    return tuple((c, tuple(name for name, e in zip(coords, mono) for _ in range(e)))
                 for mono, c in poly.terms.items())


def terms_value(terms: tuple, point: Mapping[str, complex], coords: tuple[str, ...]) -> complex:
    """The value at a point of scalars of flattened terms (`flat_terms`), summed in order.

    Each term is its coefficient multiplied by its factors one at a time, so
    a value too large for a float overflows to inf rather than raising.  A
    factor the point lacks raises EvaluationError naming the first such
    coordinate in the order ``coords`` declares.
    """
    total = 0j
    try:
        for value, names in terms:
            for name in names:
                value *= point[name]
            total += value
    except KeyError:
        name = next(c for c in coords
                    if c not in point and any(c in names for _, names in terms))
        raise EvaluationError(f"no value assigned to coordinate {name!r}") from None
    return total


def poly_value(poly: Poly, point: Mapping[str, complex]) -> complex:
    """A polynomial's value at a point of scalars, summed term by term (`terms_value`)."""
    return terms_value(flat_terms(poly), point, poly.algebra.coordinates)


def fold(plan: ChernPlan, theta: complex) -> dict[int, dict[tuple, complex]]:
    """sum_f w_f(theta) forms[f] in numbers, as {mask: {monomial: coefficient}}.

    The numbers and their order are those of ``plan.contract(plan.forms,
    [theta], zero form)``: each coefficient c of a form enters as 0.0 + c w,
    its value in `Form.scale`, and is added to the running sum as
    `Poly.__add__` adds it, and an exact zero is dropped wherever
    `Form.scale` and `Form.__add__` drop it.  `ChernPlan.evaluate` reads it.
    """
    total: dict[int, dict[tuple, complex]] = {}
    for form, (w,) in zip(plan.forms, plan.weights([theta])):
        for mask, poly in form.terms.items() if w else ():  # scaled by 0: the zero form
            acc = total.setdefault(mask, {})
            for mono, c in poly.terms.items():
                if c := 0.0 + c * w:
                    acc[mono] = acc.get(mono, 0.0) + c
                    if not acc[mono]:
                        del acc[mono]
            if not acc:
                del total[mask]
    return total


class FlatGaussian(NamedTuple):
    """A `GaussianForm` with its exponent and coefficients flattened (`flat_terms`).

    ``coefficients`` holds (mask, terms) pairs in the form's order.
    """

    algebra: ExteriorAlgebra
    exponent: tuple
    coefficients: tuple

    @classmethod
    def of(cls, gaussian: GaussianForm) -> "FlatGaussian":
        """Flatten the exponent and each mask's coefficient, keeping their order."""
        alg = gaussian.form.algebra
        return cls(alg, flat_terms(gaussian.exponent),
                   tuple((m, flat_terms(c)) for m, c in gaussian.form.terms.items()))

    def evaluate(self, point: Mapping[str, complex]) -> Form:
        """The form at a point: the zero form where the Gaussian factor is 0, not inf times 0."""
        coords = self.algebra.coordinates
        gauss = cmath.exp(terms_value(self.exponent, point, coords))
        kept = self.coefficients if gauss else ()
        return Form(self.algebra, {m: terms_value(t, point, coords) * gauss for m, t in kept})


# The pair's Chern plan, kept for the last few pairs.  Supermatrices compare
# by identity, so a model given a new odd term or ``curvature`` builds its plan
# afresh; a pair the plan refuses raises UnsupportedShapeError on every call.
pair_plan = functools.lru_cache(maxsize=4)(curvature_plan)


@functools.lru_cache(maxsize=1, typed=True)
def plan_at(pair: tuple, theta: complex) -> FlatGaussian:
    """The pair's Chern plan at theta (`ChernPlan.evaluate`) flattened, kept for the latest theta.

    The memo is keyed by theta's type as well as its value, so 1.3 and
    1.3 + 0j are kept apart.
    """
    return FlatGaussian.of(pair_plan(pair).evaluate(theta))


def pointwise_chern(pair: tuple, theta: complex, point: Mapping[str, complex]) -> Form:
    """The supertrace of exp(F0 + theta F1) at a point, for the curvature pair (F0, F1)."""
    if not cmath.isfinite(theta):
        raise ValueError(f"theta must be finite, not {theta!r}")
    for name, value in point.items():
        if not cmath.isfinite(value):
            raise ValueError(f"coordinate {name!r} must be finite, not {value!r}")
    point = full_point(pair[0].algebra, point)
    try:
        flat = plan_at(pair, theta)
    except UnsupportedShapeError:
        f0, f1 = (m.evaluate(point) for m in pair)
        return super_exp(f0 + f1.scale(theta)).supertrace()
    form = flat.evaluate(point)
    if not all(map(cmath.isfinite, form.terms.values())):
        raise OverflowError("the Chern form overflows at this point")
    return form
