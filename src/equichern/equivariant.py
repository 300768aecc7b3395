"""Cartan-model Chern forms for circle-action models.

A model stores the equivariant curvature of its superconnection as the pair
(F0, F1) of F(theta) = F0 + theta F1 (F0 = dA + A^2, F1 = mu(1) -
iota_zeta(1) A, for the odd term A stored multiplied by i).  This module
takes the grading-signed trace of its exponential (the Chern form) and
divides by the Clifford-model bundle character (the transverse Chern form).
Pointwise, the dense exponential of the model's compiled curvature array
evaluates it (numpy, through `equichern.kernels`); symbolically, chern_plan
compiles it once per model as the shared Gaussian exponent times closed
soul-path forms weighted by divided differences of exp, grouped by their
nodes, so only those scalar weights are computed per theta, in plain Python.
"""

from __future__ import annotations

import cmath
from typing import Mapping, NamedTuple

from .exterior import NUMERIC, SYMBOLIC, Form, Poly
from .geometry import ActionModel, cartan_field
from .supermatrix import (
    SuperMatrix,
    UnsupportedShapeError,
    diagonal_body,
    duhamel_paths,
    exp_divided_difference,
)

POLE_GUARD_W = 1e-8


class PoleGuardError(ValueError):
    """theta too close to a pole of the W character (2 pi Z) for this operation."""


def _curvature(model: ActionModel) -> tuple[SuperMatrix, SuperMatrix]:
    if model.curvature is None:
        raise UnsupportedShapeError(
            f"model {model.name!r} has no superconnection odd term; "
            "set one with set_odd_term")
    return model.curvature


def split_body(mat: SuperMatrix) -> tuple[Poly, tuple[complex, ...], SuperMatrix]:
    """Factor the degree-0 part as shared_poly + constant diagonal offsets.

    Returns (shared polynomial, per-diagonal constant offsets, soul), the
    shape required by the closed-form Duhamel expansion.  Raises when the
    degree-0 part is non-diagonal or the diagonal entries differ by
    non-constants.
    """
    diag0, soul = diagonal_body(mat)
    polys = [f.terms.get(0, mat.algebra.const(0.0)) for f in diag0]
    shared = polys[0].without_constant()
    offsets = []
    for p in polys:
        diff = p - shared
        if not diff.is_constant:
            raise UnsupportedShapeError(
                "diagonal degree-0 entries differ by non-constant terms")
        offsets.append(diff.constant_value())
    return shared, tuple(offsets), soul


def equivariant_curvature(model: ActionModel, theta: complex) -> SuperMatrix:
    """F(theta) = dA + A^2 + mu(theta) - iota_zeta(theta) A = F0 + theta F1."""
    f0, f1 = _curvature(model)
    return f0 + f1.scale(theta)


def bundle_character(weights, parities, theta: complex) -> complex:
    """Sum of parity-signed fiber characters e^{i w theta}."""
    total = 0.0 + 0.0j
    for w, p in zip(weights, parities):
        term = cmath.exp(1j * w * theta)
        total += -term if p else term
    return total


class GaussianForm(NamedTuple):
    """A form with polynomial coefficients times a managed scalar exponential."""

    exponent: Poly
    form: Form

    def scale(self, factor) -> "GaussianForm":
        return GaussianForm(self.exponent, self.form.scale(factor))

    def prefactor(self, point: Mapping[str, complex]) -> complex:
        return cmath.exp(self.exponent.evaluate(point))

    def evaluate(self, point: Mapping[str, complex]) -> Form:
        return self.form.evaluate(point).scale(self.prefactor(point))


class ChernPlan(NamedTuple):
    """The supertrace of exp(F0 + theta F1), compiled once for every theta.

    With the body split as shared(theta) + offsets(theta) and the soul as
    soul0 + theta soul1, the supertrace is e^{shared(theta)} times
    sum_g Delta[nodes_g(theta)]exp sum_p theta^p forms_g[p]: one group g per
    multiset of diagonal node values visited by a closed soul path (divided
    differences are symmetric in their nodes), the empty paths of the
    diagonal included.  A node is the pair (o0, o1) of the offset
    o0 + theta o1.  Only the scalar divided differences depend on theta.
    """

    shared: tuple[Poly, Poly]
    groups: tuple[tuple[tuple[tuple[complex, complex], ...], tuple[Form, ...]], ...]

    @property
    def forms(self) -> list[Form]:
        """Every group's theta-power forms, in the order ``contract`` reads its values."""
        return [f for _, forms in self.groups for f in forms]

    def contract(self, values, thetas, start=0) -> list:
        """sum_f values[f] w_f(theta) at every theta, one value (number or form) per form.

        The weight w_f of the form forms_g[p] is theta^p times the group's
        divided difference of exp; the sum runs form by form from ``start``.
        """
        totals = [start] * len(thetas)
        values = iter(values)
        for nodes, forms in self.groups:
            if any(o1 for _, o1 in nodes):
                dd = exp_divided_difference([[o0 + o1 * t for t in thetas] for o0, o1 in nodes])
            else:  # nodes that do not move with theta: one divided difference for all
                dd = [exp_divided_difference([o0 for o0, _ in nodes])] * len(thetas)
            for p, value in zip(range(len(forms)), values):
                totals = [s + value * (x * t**p) for s, x, t in zip(totals, dd, thetas)]
        return totals

    def evaluate(self, theta: complex) -> GaussianForm:
        """The supertrace at one theta, with its Gaussian exponent factored out."""
        total, = self.contract(self.forms, [theta], self.shared[0].algebra.zero(SYMBOLIC))
        exponent = self.shared[0] + self.shared[1] * theta
        return GaussianForm(exponent=exponent, form=total)


def chern_plan(model: ActionModel,
               moment_perturbation: tuple[int, complex] | None = None) -> ChernPlan:
    """Walk the closed soul paths of the model's curvature once, for all theta.

    The curvature is affine in theta, F = F0 + theta F1, so F0 and F1 each
    split into shared polynomial, constant offsets and soul, and every path
    product is a polynomial in theta.  A moment perturbation adds a constant
    to one diagonal entry of F0 (the closedness negative control).
    """
    f0, f1 = _curvature(model)
    if moment_perturbation is not None:
        idx, amount = moment_perturbation
        f0 = f0 + SuperMatrix.diagonal(
            model.algebra, f0.grading,
            [model.algebra.scalar(amount if i == idx else 0.0)
             for i in range(f0.dim)])
    shared0, offsets0, soul0 = split_body(f0)
    shared1, offsets1, soul1 = split_body(f1)
    nodes = list(zip(offsets0, offsets1))
    grading = f0.grading

    groups: dict[tuple, list[Form]] = {}

    def add(path_nodes: tuple, sign: int, product: list[Form]):
        key = tuple(sorted(path_nodes, key=lambda n: (n[0].real, n[0].imag,
                                                      n[1].real, n[1].imag)))
        acc = groups.setdefault(key, [])
        for p, f in enumerate(product):
            f = f if sign > 0 else -f
            if p < len(acc):
                acc[p] = acc[p] + f
            else:
                acc.append(f)

    for i in range(f0.dim):
        add((nodes[i],), grading.sign(i), [model.algebra.one()])
    for i, j, product, path_nodes in duhamel_paths([soul0, soul1], nodes):
        if i == j:
            add(path_nodes, grading.sign(i), product)
    kept = []
    for key, forms in groups.items():
        while forms and forms[-1].is_zero:
            forms.pop()
        if forms:
            kept.append((key, tuple(forms)))
    return ChernPlan(shared=(shared0, shared1), groups=tuple(kept))


def symbolic_chern(model: ActionModel, theta: complex,
                   moment_perturbation: tuple[int, complex] | None = None
                   ) -> GaussianForm:
    """Supertrace of exp(curvature) with the Gaussian body factored exactly.

    The degree-0 body contributes a shared scalar exponential and constant
    diagonal offsets; the positive-degree soul enters through a finite sum
    over closed paths weighted by divided differences of exp at the offsets.
    This is the model's Chern plan evaluated at one theta.
    """
    return chern_plan(model, moment_perturbation).evaluate(theta)


def chern_form(model: ActionModel, theta: complex, point: Mapping[str, complex]) -> Form:
    """Pointwise Chern form: supertrace of the dense exponential of the curvature.

    The model's compiled curvature gives the blocked component array of
    F0 + theta F1 at the point in one product; its exponential is traced
    with the grading signs.  It is entire in theta: unlike the transverse
    form, it has no poles at 2 pi Z.  The layout's tables are wrapped for
    numpy once per call.
    """
    from .kernels import Blocks, affine_at, taylor_exp_blocked

    _curvature(model)
    curv = model.curvature_array
    blocks = Blocks.of(curv.layout)
    expf = taylor_exp_blocked(affine_at(curv, theta, model.full_point(point)), blocks)
    values = blocks.supertrace(expf)
    return Form(model.algebra, NUMERIC, dict(zip(curv.layout.trace_masks, values)))


def w_character(model: ActionModel, theta: complex) -> complex:
    """Character of the Clifford-model bundle W at theta.

    Raises PoleGuardError when theta is within POLE_GUARD_W of a pole.
    """
    if model.bundle_w is None:
        return 1.0 + 0.0j
    chw = bundle_character(model.bundle_w.weights, model.bundle_w.parities, theta)
    if abs(chw) < POLE_GUARD_W:
        raise PoleGuardError(
            f"W character below guard {POLE_GUARD_W}; theta near a pole")
    return chw


def transverse_chern(model: ActionModel, theta: complex) -> GaussianForm:
    """Chern form divided by the Clifford-model bundle character, symbolically."""
    chw = w_character(model, theta)
    return symbolic_chern(model, theta).scale(1.0 / chw)


def closedness_residual(model: ActionModel, theta: complex,
                        point: Mapping[str, complex],
                        moment_perturbation: tuple[int, complex] | None = None) -> float:
    """Max coefficient norm of (d - iota_zeta) applied to the Chern form at a point.

    Vanishes for a consistent moment/vector-field pair; a perturbed moment is
    the negative control.
    """
    g = symbolic_chern(model, theta, moment_perturbation=moment_perturbation)
    zeta = cartan_field(model, theta)
    # (d - iota)(e^g w) = e^g (dg ^ w + dw - iota w)
    dg = model.algebra.scalar(g.exponent).d()
    residual = dg.wedge(g.form) + g.form.d() - g.form.interior(zeta)
    pt = model.full_point(point)
    value = residual.evaluate(pt)
    return value.norm_max() * abs(g.prefactor(pt))
