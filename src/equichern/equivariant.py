"""Cartan-model Chern forms for circle-action models.

A model stores the equivariant curvature of its superconnection as the pair
(F0, F1) of F(theta) = F0 + theta F1 (F0 = dA + A^2, F1 = mu(1) -
iota_zeta(1) A, for the odd term A stored multiplied by i).  This module
takes the grading-signed trace of its exponential (the Chern form) and
divides by the Clifford-model bundle character (the transverse Chern form).
The Chern plan (`chern_plan`, `curvature_plan`) compiles it once per
curvature as the shared Gaussian exponent times closed soul-path forms
weighted by divided differences of exp, grouped by their nodes, so only
those scalar weights are computed per theta, in plain Python.  One plan
serves all three Chern uses: the index numerator and the delta pairing
contract it, and `chern_form` reads it at a point through
`equichern.pointwise` (plain Python, loaded on the first call, which builds
the plan once per pair and evaluates it at the latest theta, at any spread
of its nodes; the model stores nothing compiled), falling back to
`supermatrix.super_exp` of the curvature at the point (the one dense Taylor
exponential, numpy's `kernels.taylor_exp`) only where the plan refuses
the pair with UnsupportedShapeError.  The soul-path
walk (`duhamel_paths`, over the split of `diagonal_body`) is this module's;
the Duhamel exponential of `equichern.kernels`, the oracle of the Taylor
route, walks it too.  Each walk starts from the number 1, so a polynomial
soul (the plan's) gives polynomial products and a soul of numbers (the
Duhamel exponential's) gives numbers.  That module also holds
`closedness_residual`, which no command runs.
"""

from __future__ import annotations

import cmath
from typing import Mapping, NamedTuple, Sequence

from .exterior import Form, Poly
from .geometry import ActionModel
from .supermatrix import SuperMatrix, UnsupportedShapeError, exp_divided_difference

POLE_GUARD_W = 1e-8


class PoleGuardError(ValueError):
    """theta too close to a pole of the W character (2 pi Z) for this operation."""


def _curvature(model: ActionModel) -> tuple[SuperMatrix, SuperMatrix]:
    if model.curvature is None:
        raise UnsupportedShapeError(
            f"model {model.name!r} has no superconnection odd term; "
            "set one with set_odd_term")
    return model.curvature


# -- the closed soul paths of the Duhamel expansion ----------------------------------


def trim(forms: list) -> list:
    """Drop the trailing zero forms of a list of t-power coefficients, in place."""
    while forms and forms[-1].is_zero:
        forms.pop()
    return forms


def duhamel_paths(soul: Sequence[SuperMatrix], diag: Sequence):
    """Every soul path with a non-zero product, for the Duhamel expansion.

    The soul is a polynomial in a parameter t given by its coefficient
    matrices, soul = sum_p t^p soul[p] (one matrix for a soul of numbers).
    Yields (start, end, product, nodes) for each walk start -> ... -> end of
    one or more soul entries whose product is non-zero; the product is the
    list of its t-power coefficient forms without trailing zeros, and nodes
    are the diagonal values at the visited indices, start first.  Walks stop
    at the generator count, past which every product of soul entries
    vanishes.
    """
    d = soul[0].dim
    alg = soul[0].algebra
    zero = alg.zero()
    max_depth = len(alg.generators)
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

    one = [Form(alg, {0: 1.0})]
    for i in range(d):
        yield from walk(i, i, one, (diag[i],))


def diagonal_body(mat: SuperMatrix) -> tuple[list[Form], SuperMatrix]:
    """The degree-0 diagonal entries of a matrix, and its soul (the rest).

    Raises UnsupportedShapeError when degree-0 content lies off the diagonal.
    """
    d = mat.dim
    if any(i != j and not mat.entries[i][j].component(0).is_zero
           for i in range(d) for j in range(d)):
        raise UnsupportedShapeError("degree-0 content outside the diagonal body")
    diag = [mat.entries[i][i].component(0) for i in range(d)]
    return diag, mat - SuperMatrix.diagonal(mat.algebra, mat.grading, diag)


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

    def evaluate(self, point: Mapping[str, complex]) -> Form:
        """The form at a point: the zero form where the Gaussian factor is 0, not inf times 0."""
        # one import of the evaluator per call, not one per coefficient (Poly.evaluate)
        from .pointwise import poly_value

        gauss = cmath.exp(poly_value(self.exponent, point))
        kept = self.form.terms.items() if gauss else ()
        return Form(self.form.algebra, {m: poly_value(c, point) * gauss for m, c in kept})


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

    def weights(self, thetas) -> list[list]:
        """The weight w_f(theta) of every form at every theta, form by form.

        The weight of the form forms_g[p] is theta^p times the group's
        divided difference of exp at its nodes (one call per group).
        """
        out = []
        for nodes, forms in self.groups:
            if any(o1 for _, o1 in nodes):
                dd = exp_divided_difference([[o0 + o1 * t for t in thetas] for o0, o1 in nodes])
            else:  # nodes that do not move with theta: one divided difference for all
                dd = [exp_divided_difference([o0 for o0, _ in nodes])] * len(thetas)
            out += [[x * t**p for x, t in zip(dd, thetas)] for p in range(len(forms))]
        return out

    def contract(self, values, thetas, start=0) -> list:
        """sum_f values[f] w_f(theta) at every theta, one value (number or form) per form.

        The sum runs form by form from ``start``, over the ``weights``.
        """
        totals = [start] * len(thetas)
        for value, ws in zip(values, self.weights(thetas)):
            totals = [s + value * w for s, w in zip(totals, ws)]
        return totals

    def evaluate(self, theta: complex) -> GaussianForm:
        """The supertrace at one theta, with its Gaussian exponent factored out."""
        total, = self.contract(self.forms, [theta], self.shared[0].algebra.zero())
        return GaussianForm(self.shared[0] + self.shared[1] * theta, total)


def chern_plan(model: ActionModel) -> ChernPlan:
    """Walk the closed soul paths of the model's curvature once, for all theta.

    The curvature is affine in theta, F = F0 + theta F1, so F0 and F1 each
    split into shared polynomial, constant offsets and soul, and every path
    product is a polynomial in theta.  The pair is read from
    ``model.curvature``, so a model without an odd term raises
    UnsupportedShapeError.
    """
    return curvature_plan(_curvature(model))


def curvature_plan(pair: tuple[SuperMatrix, SuperMatrix]) -> ChernPlan:
    """The Chern plan of a curvature pair (F0, F1), as `chern_plan` builds it.

    Raises UnsupportedShapeError when F0 or F1 does not split as
    `split_body` requires.
    """
    f0, f1 = pair
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
        add((nodes[i],), grading.sign(i), [f0.algebra.one()])
    for i, j, product, path_nodes in duhamel_paths([soul0, soul1], nodes):
        if i == j:
            add(path_nodes, grading.sign(i), product)
    kept = tuple((key, tuple(forms)) for key, forms in groups.items() if trim(forms))
    return ChernPlan(shared=(shared0, shared1), groups=kept)


def symbolic_chern(model: ActionModel, theta: complex) -> GaussianForm:
    """Supertrace of exp(curvature) with the Gaussian body factored exactly.

    The degree-0 body contributes a shared scalar exponential and constant
    diagonal offsets; the positive-degree soul enters through a finite sum
    over closed paths weighted by divided differences of exp at the offsets.
    This is the model's Chern plan evaluated at one theta.
    """
    return chern_plan(model).evaluate(theta)


def chern_form(model: ActionModel, theta: complex, point: Mapping[str, complex]) -> Form:
    """Pointwise Chern form: the supertrace of exp(F0 + theta F1) at one point.

    `equichern.pointwise` evaluates it, where only this route loads it: from
    the model's Chern plan, built once per curvature pair and evaluated at
    the latest theta (`ChernPlan.evaluate`, the weights theta^p
    Delta[nodes(theta)]exp folded into the coefficient polynomials), so a
    point is that Gaussian form evaluated term by term in plain Python and
    one exponential, at every theta (the divided differences are squared
    past `supermatrix.SERIES_SPREAD`); or, only for a pair the plan refuses
    (`split_body` raises UnsupportedShapeError), as `super_exp` of
    F0 + theta F1 evaluated at the point.
    A non-finite theta or point value raises ValueError, and a form that
    overflows at a finite point raises OverflowError; one whose Gaussian
    factor underflows is the zero form.  The form is entire in theta:
    unlike the transverse form, it has no poles at 2 pi Z.
    """
    from .pointwise import pointwise_chern

    return pointwise_chern(_curvature(model), theta, point)


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
