"""Circle/torus action models on flat spaces and their augmented symbols.

An action model declares coordinates with integer rotation weights, the
graded bundles the symbol acts on, an auxiliary rank-2 Clifford-model bundle
used to absorb the orbital directions, the symbol matrix itself, and the
odd term of a superconnection with its equivariant curvature, which is affine
in theta and stored once per model as (F0, F1).  The module provides the
oriented volume form's sign and coefficient (read by fiber integration and
by the delta pairing alike), the Cartan vector field and the moment of the
action, the augmented symbol sigma (x) 1 + 1 (x) c(phi), and the built-in
models by name; it holds what every command runs.  The rest lives with the
commands that run it, so that no other command compiles it: the Clifford
augmentation and the sheared plane model `c_plane_uv` in
`equichern.augmentation`; the symbol side of the geometry (the action
derivative, and the orbital projection phi numerically and as a polynomial)
in `equichern.symbolalg`; the zero-operator model in `equichern.pairing`;
the c-plane model and the homotopy of its augmented symbol to the
constant-coefficient normal form in `equichern.homotopy`, which no command
loads; and the ellipticity scan in `equichern.scan`.  `builtin_model` loads
the module of the model it builds.
"""

from __future__ import annotations

import importlib
from typing import Sequence

from .exterior import ExteriorAlgebra, Poly
from .supermatrix import Grading, SuperMatrix, UnsupportedShapeError

COMPLEX = "complex"
ANGLE = "angle"
REAL = "real"


class Coordinate:
    """A declared coordinate with its rotation weight and base/fiber role.

    ``names`` lists the polynomial coordinates it declares: its name, and for
    a complex coordinate z also its conjugate zbar.
    """

    __slots__ = ("name", "kind", "weight", "role")

    def __init__(self, name: str, kind: str = COMPLEX, weight: int = 0, role: str = "base"):
        if kind not in (COMPLEX, ANGLE, REAL):
            raise ValueError(f"unknown coordinate kind {kind!r}")
        if role not in ("base", "fiber"):
            raise ValueError(f"unknown coordinate role {role!r}")
        self.name, self.kind, self.weight, self.role = name, kind, weight, role

    @property
    def names(self) -> tuple[str, ...]:
        return (self.name, self.name + "bar") if self.kind == COMPLEX else (self.name,)


class BundleSpec:
    """Summand weights and parities of a graded equivariant bundle."""

    __slots__ = ("weights", "parities")

    def __init__(self, weights: tuple[int, ...], parities: tuple[int, ...]):
        if len(weights) != len(parities):
            raise ValueError("weights and parities must have equal length")
        if any(p not in (0, 1) for p in parities):
            raise ValueError("parities must be 0 or 1")
        self.weights, self.parities = weights, parities

    @property
    def rank(self) -> int:
        return len(self.weights)

    def grading(self) -> Grading:
        return Grading(self.parities)


def _tensor_bundle(e: BundleSpec, w: BundleSpec) -> tuple[BundleSpec, tuple]:
    """Graded tensor product E (x) W, listing even summands first.

    Returns the combined spec and the (E index, W index) pair per summand,
    in the basis order used by augmented symbols and moments.
    """
    evens, odds = [], []
    for i, (we, pe) in enumerate(zip(e.weights, e.parities)):
        for j, (ww, pw) in enumerate(zip(w.weights, w.parities)):
            target = evens if (pe + pw) % 2 == 0 else odds
            target.append((we + ww, (i, j)))
    weights = tuple(wt for wt, _ in evens) + tuple(wt for wt, _ in odds)
    parities = (0,) * len(evens) + (1,) * len(odds)
    pairs = tuple(p for _, p in evens) + tuple(p for _, p in odds)
    return BundleSpec(weights, parities), pairs


class ActionModel:
    """Coordinates, weights, bundles, symbol and curvature of one group-action model."""

    def __init__(
        self,
        name: str,
        coordinates: Sequence[Coordinate],
        bundle_e: BundleSpec,
        bundle_w: BundleSpec | None = None,
        volume: Sequence[str] | None = None,
    ):
        self.name = name
        self.coordinates_meta = tuple(coordinates)
        bases = [c for c in self.coordinates_meta if c.role == "base"]
        fibers = [c for c in self.coordinates_meta if c.role == "fiber"]
        if len(bases) != 1 or len(fibers) > 1:
            raise ValueError("a model has one base coordinate and at most one fiber "
                             f"coordinate, got {len(bases)} and {len(fibers)}")
        self.base = bases[0]
        self.fiber = fibers[0] if fibers else None
        coord_names = [n for c in self.coordinates_meta for n in c.names]
        self.algebra = ExteriorAlgebra(
            ["d" + n for n in coord_names], coord_names,
            conjugates=dict(c.names for c in self.coordinates_meta if c.kind == COMPLEX))
        self.bundle_e = bundle_e
        self.bundle_w = bundle_w
        if bundle_w is not None:
            self.bundle_script_e, self.script_e_pairs = _tensor_bundle(bundle_e, bundle_w)
        else:
            self.bundle_script_e, self.script_e_pairs = bundle_e, None

        self.symbol = None
        self.odd_term = None
        self.curvature = None  # (F0, F1), set with the odd term by set_odd_term

        if volume is None:  # dzbar before dz
            volume = ["d" + n for c in self.coordinates_meta for n in reversed(c.names)]
        self.volume = tuple(volume)
        if set(self.volume) != set(self.algebra.generators):
            raise ValueError("volume ordering must use every generator exactly once")

    def set_symbol(self, rows) -> None:
        mat = rows if isinstance(rows, SuperMatrix) else SuperMatrix(
            self.algebra, self.bundle_e.grading(), rows)
        if mat.dim != self.bundle_e.rank:
            raise ValueError("symbol dimension must match the E bundle rank")
        if not mat.is_odd():
            raise ValueError("symbol must be odd with respect to the E-grading")
        self.symbol = mat

    def set_odd_term(self, rows) -> None:
        """Set the superconnection's odd term A (stored times i) and its curvature.

        The equivariant curvature is affine in theta,
        F(theta) = F0 + theta F1 with F0 = dA + A^2 and
        F1 = mu(1) - iota_zeta(1) A, so ``curvature`` holds the pair (F0, F1),
        symbolic supermatrices; nothing is compiled here (the pointwise
        Chern form builds the pair's Chern plan where it evaluates it, in
        `pointwise.pair_plan`, a memo of `equivariant.curvature_plan` on the
        pair, and its Taylor side evaluates the pair at the point).
        """
        mat = rows if isinstance(rows, SuperMatrix) else SuperMatrix(
            self.algebra, self.bundle_script_e.grading(), rows)
        if mat.dim != self.bundle_script_e.rank:
            raise ValueError("odd term dimension must match the full bundle rank")
        if not mat.is_odd():
            raise UnsupportedShapeError("superconnection odd term must be odd")
        self.odd_term = mat
        self.curvature = (mat.d() + (mat @ mat),
                          moment(self, 1.0) - mat.interior(cartan_field(self, 1.0)))

    def conj_poly(self, p: Poly) -> Poly:
        """Formal conjugate: swap conjugate-pair exponents, conjugate coefficients."""
        swap = {}
        for a, b in self.algebra.conjugates.items():
            swap[self.algebra.coord_index[a]] = self.algebra.coord_index[b]
            swap[self.algebra.coord_index[b]] = self.algebra.coord_index[a]
        out = {}
        for m, c in p.terms.items():
            m2 = list(m)
            for i, j in swap.items():
                m2[j] = m[i]
            out[tuple(m2)] = out.get(tuple(m2), 0.0) + c.conjugate()
        return Poly(self.algebra, out)

    def __repr__(self):
        return f"ActionModel({self.name!r})"


def orientation_sign(model: ActionModel) -> int:
    """Symplectic-vs-product orientation sign for the model's complex pairs."""
    p = len(model.algebra.conjugates)
    return -1 if (p * (p - 1) // 2) % 2 else 1


def oriented_volume_coefficient(model: ActionModel, form) -> Poly:
    """Coefficient of the model's oriented volume form (Berezin extraction).

    A number coefficient, such as the ``0j`` of a form with no top
    component, is returned as a constant polynomial.
    """
    c = form.coefficient(model.volume)
    if not isinstance(c, Poly):
        c = model.algebra.const(c)
    return c if orientation_sign(model) > 0 else -c


# -- the infinitesimal action ------------------------------------------------------


def cartan_field(model: ActionModel, theta: complex) -> dict[str, Poly]:
    """Vector-field components (dual to the generators) paired with the moment.

    Complex weight-w coordinates contribute i w theta c on dc and the
    conjugate on dcbar; angle coordinates rotate at rate w theta.  This is
    the orientation for which the Chern form is equivariantly closed against
    the moment i theta diag(weights).
    """
    comps: dict[str, Poly] = {}
    for c in model.coordinates_meta:
        if c.weight == 0:
            continue
        if c.kind == COMPLEX:
            for n, unit in zip(c.names, (1j, -1j)):
                comps["d" + n] = (unit * c.weight * theta) * model.algebra.coord(n)
        elif c.kind == ANGLE:
            comps["d" + c.name] = model.algebra.const(c.weight * theta)
    return comps


def moment(model: ActionModel, theta: complex) -> SuperMatrix:
    """Moment of the action: i theta times the diagonal of full-bundle weights."""
    spec = model.bundle_script_e
    if spec is None:
        raise UnsupportedShapeError("model carries no bundle weights")
    alg = model.algebra
    diag = [alg.scalar(1j * theta * w) for w in spec.weights]
    return SuperMatrix.diagonal(alg, spec.grading(), diag)


def augmented_symbol(model: ActionModel) -> SuperMatrix:
    """Augment the symbol by orbital Clifford multiplication: sigma (x) 1 + 1 (x) c(phi).

    phi is the orbital projection of the tautological covector
    (`symbolalg.phi_poly`), so the first call loads the symbol algebra.
    """
    from .augmentation import augment_by_clifford
    from .symbolalg import phi_poly

    return augment_by_clifford(model, phi_poly(model))


# -- the built-in models -----------------------------------------------------------------


# built-in model name -> (module, builder), so a command compiles only the
# builder of the model it builds
_BUILTINS = {"c-plane": ("homotopy", "c_plane"), "c-plane-uv": ("augmentation", "c_plane_uv"),
             "zero-op": ("pairing", "zero_op_s1")}


def builtin_model(name: str) -> ActionModel:
    try:
        module, builder = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown built-in model {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __package__), builder)()


def __getattr__(name: str):
    # perfbench/tracer.py traces the scan as geometry.ellipticity_scan; the
    # scan module loads only when that name is read.  ROADMAP item 1 retires
    # this hook by pointing the tracer at scan.ellipticity_scan.
    if name == "ellipticity_scan":
        from .scan import ellipticity_scan
        return ellipticity_scan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
