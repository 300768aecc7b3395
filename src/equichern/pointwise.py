"""Pointwise Chern forms: the compiled Chern plan at a point, or the dense Taylor exponential.

`pointwise_chern`, which `equivariant.chern_form` calls, is the supertrace
of exp(F0 + theta F1) at one point.  For a curvature pair that splits as the
Chern plan needs (`equivariant.curvature_plan`), the plan is compiled once
per pair (`plan_table`, memoised on the pair) into one
`polyeval.CompiledPolys` table: the coefficient polynomial of every plan
form at every trace mask, then the two shared-exponent polynomials.  The
forms' weights theta^p Delta[nodes(theta)]exp (`ChernPlan.weights`) are
computed once per theta, and the table keeps the latest theta's, so a point
is one table evaluation, one dot product with the weights and one
exponential of the shared exponent.

The divided-difference series (`supermatrix.exp_divided_difference`) sums
terms up to e^R times its first, R the largest distance of a group's node
from the group's mean, so it rounds to about e^R 2^-53 of that scale.  The
plan side is taken while that is within the Taylor route's tolerance,
e^R 2^-53 <= TAYLOR_TOL, that is R <= SPREAD_MAX = ln(TAYLOR_TOL 2^53), about
9.1.  A pair the plan refuses, and a theta past that spread, take the Taylor
side instead: F0 and F1 evaluated at the point (`SuperMatrix.evaluate`),
then `supermatrix.super_exp` of F0 + theta F1 and its supertrace; the dense
exponential's module, `equichern.kernels`, loads only then.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Mapping

import numpy as np

from .equivariant import ChernPlan, curvature_plan
from .exterior import NUMERIC, ExteriorAlgebra, Form
from .polyeval import CompiledPolys, full_point
from .supermatrix import TAYLOR_TOL, SuperMatrix, UnsupportedShapeError, super_exp

SPREAD_MAX = math.log(TAYLOR_TOL * 2.0**53)


def node_spread(plan: ChernPlan, theta: complex) -> float:
    """The largest distance of a plan group's node o0 + theta o1 from its group's mean."""
    spread = 0.0
    for nodes, _ in plan.groups:
        xs = [o0 + o1 * theta for o0, o1 in nodes]
        mean = sum(xs) / len(xs)
        spread = max(spread, *(abs(x - mean) for x in xs))
    return spread


class PlanTable:
    """A Chern plan compiled for points, with the weights of the latest theta.

    ``table`` holds, row by row, the coefficient polynomial of every plan form
    (in ``ChernPlan.forms`` order) at every mask of ``masks``, then the shared
    exponent's two polynomials.
    """

    def __init__(self, algebra: ExteriorAlgebra, plan: ChernPlan):
        forms = plan.forms
        self.plan = plan
        self.masks = sorted({mask for f in forms for mask in f.terms})
        self.table = CompiledPolys(algebra, [f.terms.get(mask) for f in forms
                                             for mask in self.masks] + list(plan.shared))
        self.theta = self.weights = None

    def weights_at(self, theta: complex) -> np.ndarray | None:
        """The forms' weights at theta, or None for a spread past SPREAD_MAX; kept per theta."""
        if self.theta != (type(theta), theta):
            self.theta = (type(theta), theta)
            self.weights = (None if node_spread(self.plan, theta) > SPREAD_MAX else
                            np.array([w for w, in self.plan.weights([theta])], dtype=complex))
        return self.weights

    def at(self, theta: complex, weights: np.ndarray, point: Mapping[str, complex]):
        """The supertrace's coefficients at ``masks``, from the weights at theta."""
        r = self.table.entries(point)
        coeffs = r[:-2].reshape(len(weights), len(self.masks))
        return (weights @ coeffs) * cmath.exp(r[-2] + theta * r[-1])


@functools.lru_cache(maxsize=4)
def plan_table(pair: tuple[SuperMatrix, SuperMatrix]) -> PlanTable | None:
    """The pair's plan compiled for points, or None for a pair the plan refuses.

    Supermatrices compare by identity, so a model given a new odd term or
    ``curvature`` compiles afresh; the cache keeps the last few pairs.
    """
    try:
        return PlanTable(pair[0].algebra, curvature_plan(pair))
    except UnsupportedShapeError:
        return None


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
    compiled = plan_table(pair)
    weights = None if compiled is None else compiled.weights_at(theta)
    if weights is not None:
        values = compiled.at(theta, weights, point)
        return Form(algebra, NUMERIC, dict(zip(compiled.masks, values)))
    f0, f1 = (m.evaluate(point) for m in pair)
    return super_exp(f0 + f1.scale(theta)).supertrace()
