"""Circle/torus action models on flat spaces and their augmented symbols.

An action model declares coordinates with integer rotation weights, the
graded bundles the symbol acts on, an auxiliary rank-2 Clifford-model bundle
used to absorb the orbital directions, the symbol matrix itself, and the
odd term of a superconnection with its equivariant curvature, which is affine
in theta and stored once per model as (F0, F1).  The module provides the
oriented volume form's sign and coefficient (read by fiber integration and
by the delta pairing alike), the Cartan vector field and the moment of the
action, the orbital projection (composition of the action derivative with
its metric adjoint), Clifford multiplication on the model bundle, the graded
augmentation of a symbol by orbital Clifford multiplication, the two-stage
linear homotopy connecting the augmented symbol to its constant-coefficient
normal form, and the built-in models.  The ellipticity scan of a symbol
matrix lives in `equichern.scan`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exterior import NUMERIC, SYMBOLIC, ExteriorAlgebra, Poly
from .supermatrix import AffineArray, Grading, SuperMatrix, UnsupportedShapeError

COMPLEX = "complex"
ANGLE = "angle"
REAL = "real"


class Coordinate:
    """A declared coordinate with its rotation weight and base/fiber role."""

    __slots__ = ("name", "kind", "weight", "role")

    def __init__(self, name: str, kind: str = COMPLEX, weight: int = 0, role: str = "base"):
        if kind not in (COMPLEX, ANGLE, REAL):
            raise ValueError(f"unknown coordinate kind {kind!r}")
        if role not in ("base", "fiber"):
            raise ValueError(f"unknown coordinate role {role!r}")
        self.name, self.kind, self.weight, self.role = name, kind, weight, role


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
        coord_names: list[str] = []
        gen_names: list[str] = []
        conjugates: dict[str, str] = {}
        for c in self.coordinates_meta:
            if c.kind == COMPLEX:
                bar = c.name + "bar"
                coord_names += [c.name, bar]
                gen_names += ["d" + c.name, "d" + bar]
                conjugates[c.name] = bar
            else:
                coord_names.append(c.name)
                gen_names.append("d" + c.name)
        self.algebra = ExteriorAlgebra(gen_names, coord_names, conjugates=conjugates)
        self.bundle_e = bundle_e
        self.bundle_w = bundle_w
        if bundle_w is not None:
            self.bundle_script_e, self.script_e_pairs = _tensor_bundle(bundle_e, bundle_w)
        else:
            self.bundle_script_e, self.script_e_pairs = bundle_e, None

        self.symbol = None
        self.odd_term = None
        self.curvature = None  # (F0, F1), set with the odd term by set_odd_term
        self.curvature_array = None  # the same pair compiled, an AffineArray

        if volume is None:
            volume = []
            for c in self.coordinates_meta:
                if c.kind == COMPLEX:
                    volume += ["d" + c.name + "bar", "d" + c.name]
                else:
                    volume.append("d" + c.name)
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
        F1 = mu(1) - iota_zeta(1) A, so ``curvature`` holds the pair (F0, F1)
        and ``curvature_array`` the pair compiled into polynomial component
        arrays, in two grading blocks as the curvature is even.  The compile
        is plain Python; only evaluating it (the dense route) loads numpy.
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
        self.curvature_array = AffineArray.compile(*self.curvature)

    def conj_poly(self, p: Poly) -> Poly:
        """Formal conjugate: swap conjugate-pair exponents, conjugate coefficients."""
        coords = self.algebra.coordinates
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

    def full_point(self, point: Mapping[str, complex]) -> dict[str, complex]:
        """Extend a point on the real locus with its conjugate coordinates.

        The values may be numbers or numpy arrays; conjugates are taken
        elementwise.
        """
        out = dict(point)
        for a, b in self.algebra.conjugates.items():
            if a in out and b not in out:
                out[b] = out[a].conjugate()
        return out

    def __repr__(self):
        return f"ActionModel({self.name!r})"


def orientation_sign(model: ActionModel) -> int:
    """Symplectic-vs-product orientation sign for the model's complex pairs."""
    p = len(model.algebra.conjugates)
    return -1 if (p * (p - 1) // 2) % 2 else 1


def oriented_volume_coefficient(model: ActionModel, form) -> object:
    """Coefficient of the model's oriented volume form (Berezin extraction)."""
    c = form.coefficient(model.volume)
    s = orientation_sign(model)
    return c if s > 0 else -c


# -- infinitesimal action and orbital projection --------------------------------


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
            comps["d" + c.name] = (1j * c.weight * theta) * model.algebra.coord(c.name)
            bar = model.algebra.conjugates[c.name]
            comps["d" + bar] = (-1j * c.weight * theta) * model.algebra.coord(bar)
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


def infinitesimal_generator(model: ActionModel, x):
    """The action derivative rho at base values x, elementwise.

    A weight-n complex base contributes -i n x (the derivative of exp(-t)
    acting with weight n); an angle base rotates at rate +n, a real one not.
    """
    import numpy as np

    b = model.base
    x = np.asarray(x, dtype=complex)
    if b.kind == COMPLEX:
        return -1j * b.weight * x
    return np.full_like(x, b.weight if b.kind == ANGLE else 0)


def orbital_projection(model: ActionModel, x, xi):
    """phi = rho rho^t: the covectors xi at base values x projected onto the orbit.

    Elementwise rho Re(xi conj(rho)), with rho the `infinitesimal_generator`.
    The product xi conj(rho) is taken by the ufunc even for scalars, so an
    array call equals its scalar calls bit for bit: numpy's array loop may
    fuse a multiply and an add, the ``*`` of two numpy scalars does not.
    """
    import numpy as np

    rho = infinitesimal_generator(model, x)
    return rho * np.multiply(xi, np.conj(rho)).real


def _fiber(model: ActionModel) -> Coordinate:
    """The model's fiber coordinate, which symbols and their augmentation need."""
    if model.fiber is None:
        raise UnsupportedShapeError(f"model {model.name!r} declares no fiber coordinate")
    return model.fiber


# -- Clifford model ---------------------------------------------------------------


def clifford_multiplication(model: ActionModel, w) -> SuperMatrix:
    """Left Clifford multiplication by an orbital tangent value on the W bundle."""
    if model.bundle_w is None or model.bundle_w.rank != 2:
        raise UnsupportedShapeError("Clifford multiplication needs a rank-2 W bundle")
    w = complex(w)
    alg = model.algebra
    z = alg.zero(NUMERIC)
    return SuperMatrix(alg, model.bundle_w.grading(),
                       [[z, alg.scalar(w.conjugate(), NUMERIC)],
                        [alg.scalar(w, NUMERIC), z]])


def _phi_polys(model: ActionModel) -> Poly:
    """Orbital projection applied to the tautological covector, phi."""
    b, f = model.base, _fiber(model)
    if b.kind != COMPLEX:
        raise UnsupportedShapeError("symbolic phi implemented for a complex base coordinate")
    zc = model.algebra.coord(b.name)
    xc = model.algebra.coord(f.name)
    rho = (-1j * b.weight) * zc
    rho_bar = model.conj_poly(rho)
    x_bar = model.conj_poly(xc)
    s = (xc * rho_bar + x_bar * rho) * 0.5
    return rho * s


def _augmented_from_cliff_arg(model: ActionModel, w: Poly) -> SuperMatrix:
    """sigma (x) 1 + 1 (x) c(w) on E (x) W with graded tensor signs.

    c(w) is Clifford multiplication by the orbital value w, with conj(w) in
    its upper right entry, as in `clifford_multiplication`.
    """
    e, wspec = model.bundle_e, model.bundle_w
    if e is None or wspec is None or e.rank != 2 or wspec.rank != 2:
        raise UnsupportedShapeError("augmentation needs rank-2 E and W bundles")
    alg = model.algebra
    zero = alg.zero(SYMBOLIC)
    sigma = model.symbol.entries
    cmat = [[None, alg.scalar(model.conj_poly(w))], [alg.scalar(w), None]]
    basis = list(model.script_e_pairs)
    d = len(basis)
    out = [[zero for _ in range(d)] for _ in range(d)]
    for col, (j, k) in enumerate(basis):
        for row, (i, l) in enumerate(basis):
            acc = zero
            if l == k and not sigma[i][j].is_zero:
                acc = acc + sigma[i][j]
            if i == j and cmat[l][k] is not None:
                term = cmat[l][k]
                if e.parities[i] == 1:
                    term = -term
                acc = acc + term
            out[row][col] = acc
    return SuperMatrix(alg, model.bundle_script_e.grading(), out)


def augmented_symbol(model: ActionModel) -> SuperMatrix:
    """Augment the symbol by orbital Clifford multiplication: sigma (x) 1 + 1 (x) c(phi)."""
    return _augmented_from_cliff_arg(model, _phi_polys(model))


# -- homotopy to the constant-coefficient normal form ------------------------------


class HomotopyPath:
    """Consecutive linear interpolations between symbol matrices."""

    __slots__ = ("stages",)

    def __init__(self, stages: tuple[tuple[SuperMatrix, SuperMatrix], ...]):
        for (a0, a1), (b0, b1) in zip(stages, stages[1:]):
            if not all(x == y for r1, r2 in zip(a1.entries, b0.entries)
                       for x, y in zip(r1, r2)):
                raise ValueError("endpoints of consecutive stages must match")
        self.stages = stages

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def matrix_at(self, stage: int, s: float) -> SuperMatrix:
        a, b = self.stages[stage]
        return a.scale(1.0 - s) + b.scale(s)


def homotopy_path(model: ActionModel) -> HomotopyPath:
    """Two-stage path: flatten the orbital factor, then shear in the fiber."""
    start = augmented_symbol(model)
    if model.fiber.kind != COMPLEX:
        raise UnsupportedShapeError("homotopy implemented for complex base and fiber")
    zc = model.algebra.coord(model.base.name)
    xc = model.algebra.coord(model.fiber.name)
    mid = _augmented_from_cliff_arg(model, 1j * zc)
    end = _augmented_from_cliff_arg(model, 1j * zc + xc)
    return HomotopyPath(((start, mid), (mid, end)))


# -- built-in models ------------------------------------------------------------------


def c_plane() -> ActionModel:
    """Rotation of the complex plane with the shifted Cauchy-Riemann symbol."""
    coords = (Coordinate("z", COMPLEX, 1, "base"),
              Coordinate("xi", COMPLEX, 1, "fiber"))
    e = BundleSpec((0, 1), (0, 1))
    w = BundleSpec((0, 1), (0, 1))
    model = ActionModel("c-plane", coords, e, w)
    alg = model.algebra
    z = alg.coord("z")
    zb = alg.coord("zbar")
    x = alg.coord("xi")
    xb = alg.coord("xibar")
    zero = alg.zero(SYMBOLIC)
    sigma = [[zero, alg.scalar(zb - 1j * xb)], [alg.scalar(z + 1j * x), zero]]
    model.set_symbol(sigma)
    # superconnection odd term: i * (constant-coefficient endpoint of the homotopy)
    model.set_odd_term(_augmented_from_cliff_arg(model, 1j * z + x).scale(1j))
    return model


def c_plane_uv() -> ActionModel:
    """The plane model after the shear change of variables; Gaussian weight one."""
    coords = (Coordinate("u", COMPLEX, 1, "base"),
              Coordinate("v", COMPLEX, 1, "fiber"))
    e = BundleSpec((0, 1), (0, 1))
    w = BundleSpec((0, 1), (0, 1))
    model = ActionModel("c-plane-uv", coords, e, w)
    alg = model.algebra
    zero = alg.zero(SYMBOLIC)
    sigma = [[zero, alg.scalar(alg.coord("ubar"))], [alg.scalar(alg.coord("u")), zero]]
    model.set_symbol(sigma)
    # superconnection odd term: i * (the symbol augmented by c(v))
    model.set_odd_term(_augmented_from_cliff_arg(model, alg.coord("v")).scale(1j))
    return model


def zero_op_s1() -> ActionModel:
    """The zero operator on the circle with its tautological-1-form superconnection."""
    coords = (Coordinate("theta", ANGLE, 1, "base"),
              Coordinate("xi", REAL, 0, "fiber"))
    e = BundleSpec((0,), (0,))
    w = BundleSpec((0,), (0,))
    model = ActionModel("zero-op", coords, e, w, volume=("dxi", "dtheta"))
    alg = model.algebra
    zero = alg.zero(SYMBOLIC)
    model.set_symbol([[zero]])
    liouville = alg.scalar(alg.coord("xi")) * alg.gen("dtheta")
    model.set_odd_term(SuperMatrix(alg, model.bundle_script_e.grading(),
                                   [[liouville]]).scale(1j))
    return model


_BUILTINS = {"c-plane": c_plane, "c-plane-uv": c_plane_uv, "zero-op": zero_op_s1}


def builtin_model(name: str) -> ActionModel:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown built-in model {name!r}") from None


def __getattr__(name: str):
    # perfbench/tracer.py traces the scan as geometry.ellipticity_scan; the
    # scan module loads only when that name is read.  ROADMAP item 1 retires
    # this hook by pointing the tracer at scan.ellipticity_scan.
    if name == "ellipticity_scan":
        from .scan import ellipticity_scan
        return ellipticity_scan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
