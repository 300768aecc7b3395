"""Circle/torus action models on flat spaces and their augmented symbols.

An action model declares coordinates with integer rotation weights, the
graded bundles the symbol acts on, an auxiliary rank-2 Clifford-model bundle
used to absorb the orbital directions, the symbol matrix itself, and the
odd term of a superconnection with its equivariant curvature, which is affine
in theta and stored once per model as (F0, F1).  The module provides the
Cartan vector field and the moment of the action, the orbital projection
(composition of the action derivative with its metric adjoint), Clifford
multiplication on the model bundle, the graded augmentation of a symbol by
orbital Clifford multiplication, a determinant-based ellipticity scan along
shells, and the two-stage linear homotopy connecting the augmented symbol to
its constant-coefficient normal form.  The scan reads |det| and the extreme
singular values of a graded matrix from its 1x1 and 2x2 grading blocks in
closed form, and finds determinant zeros by damped Gauss-Newton on the
smallest singular value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .exterior import NUMERIC, SYMBOLIC, CompiledPolys, ExteriorAlgebra, Poly
from .supermatrix import EVEN, ODD, AffineArray, Grading, SuperMatrix, UnsupportedShapeError

COMPLEX = "complex"
ANGLE = "angle"
REAL = "real"


@dataclass(frozen=True)
class Coordinate:
    """A declared coordinate with its rotation weight and base/fiber role."""

    name: str
    kind: str = COMPLEX
    weight: int = 0
    role: str = "base"

    def __post_init__(self):
        if self.kind not in (COMPLEX, ANGLE, REAL):
            raise ValueError(f"unknown coordinate kind {self.kind!r}")
        if self.role not in ("base", "fiber"):
            raise ValueError(f"unknown coordinate role {self.role!r}")


@dataclass(frozen=True)
class BundleSpec:
    """Summand weights and parities of a graded equivariant bundle."""

    weights: tuple[int, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.parities):
            raise ValueError("weights and parities must have equal length")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")

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
        symbol_rows=None,
        volume: Sequence[str] | None = None,
        x_support: float = 2.0,
    ):
        self.name = name
        self.coordinates_meta = tuple(coordinates)
        coord_names: list[str] = []
        gen_names: list[str] = []
        conj_pairs: dict[str, str] = {}
        for c in self.coordinates_meta:
            if c.kind == COMPLEX:
                bar = c.name + "bar"
                coord_names += [c.name, bar]
                gen_names += ["d" + c.name, "d" + bar]
                conj_pairs[c.name] = bar
            else:
                coord_names.append(c.name)
                gen_names.append("d" + c.name)
        self.algebra = ExteriorAlgebra(gen_names, coord_names, conjugates=conj_pairs)
        self.conj_pairs = self.algebra.conjugates
        self.bundle_e = bundle_e
        self.bundle_w = bundle_w
        if bundle_w is not None:
            self.bundle_script_e, self.script_e_pairs = _tensor_bundle(bundle_e, bundle_w)
        else:
            self.bundle_script_e, self.script_e_pairs = bundle_e, None

        self.symbol = None
        if symbol_rows is not None:
            self.set_symbol(symbol_rows)

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
        self.x_support = float(x_support)

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
        arrays, in two grading blocks as the curvature is even.
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

    # -- coordinate helpers ----------------------------------------------------

    @property
    def base_coords(self) -> tuple[Coordinate, ...]:
        return tuple(c for c in self.coordinates_meta if c.role == "base")

    @property
    def fiber_coords(self) -> tuple[Coordinate, ...]:
        return tuple(c for c in self.coordinates_meta if c.role == "fiber")

    def coord_poly(self, name: str) -> Poly:
        return self.algebra.coord(name)

    def conj_poly(self, p: Poly) -> Poly:
        """Formal conjugate: swap conjugate-pair exponents, conjugate coefficients."""
        coords = self.algebra.coordinates
        swap = {}
        for a, b in self.conj_pairs.items():
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
        """Extend a point on the real locus with its conjugate coordinates."""
        out = dict(point)
        for a, b in self.conj_pairs.items():
            if a in out and b not in out:
                out[b] = complex(out[a]).conjugate()
        return out

    def __repr__(self):
        return f"ActionModel({self.name!r})"


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
            comps["d" + c.name] = (1j * c.weight * theta) * model.coord_poly(c.name)
            bar = model.conj_pairs[c.name]
            comps["d" + bar] = (-1j * c.weight * theta) * model.coord_poly(bar)
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


def infinitesimal_generator(model: ActionModel, v: float, point: Mapping[str, complex]) -> dict:
    """Tangent components of the action derivative at a point.

    Weight-n complex coordinates contribute -i n v z (the derivative of
    exp(-tv) acting with weight n); angle coordinates rotate at rate +w v.
    """
    out: dict[str, complex] = {}
    for c in model.base_coords:
        if c.kind == COMPLEX:
            out[c.name] = -1j * c.weight * v * complex(point[c.name])
        elif c.kind == ANGLE:
            out[c.name] = complex(c.weight * v)
        else:
            out[c.name] = 0.0j
    return out


def _as_fiber_dict(model: ActionModel, xi) -> dict[str, complex]:
    fibers = model.fiber_coords
    if isinstance(xi, Mapping):
        return {f.name: complex(xi[f.name]) for f in fibers}
    if len(fibers) != 1:
        raise ValueError("scalar xi only allowed for a single fiber coordinate")
    return {fibers[0].name: complex(xi)}


def orbital_projection(model: ActionModel, point: Mapping[str, complex], xi) -> dict:
    """phi = rho rho^t: project a (co)tangent vector onto the orbit direction."""
    rho1 = infinitesimal_generator(model, 1.0, point)
    xiv = _as_fiber_dict(model, xi)
    s = 0.0
    for b, f in zip(model.base_coords, model.fiber_coords):
        if b.kind == COMPLEX:
            s += (xiv[f.name] * rho1[b.name].conjugate()).real
        else:
            s += (xiv[f.name] * rho1[b.name]).real
    return {b.name: rho1[b.name] * s for b in model.base_coords}


def phi_xi_norms_grid(model: ActionModel, base_arrays: Mapping[str, np.ndarray],
                      fiber_arrays: Mapping[str, np.ndarray]):
    """Vectorized (|phi|^2, |xi|^2) over matching point/covector grids."""
    rho = {}
    for b in model.base_coords:
        z = np.asarray(base_arrays[b.name], dtype=complex)
        if b.kind == COMPLEX:
            rho[b.name] = -1j * b.weight * z
        elif b.kind == ANGLE:
            rho[b.name] = np.full_like(z, complex(b.weight))
        else:
            rho[b.name] = np.zeros_like(z)
    s = 0.0
    xi_sq = 0.0
    rho_sq = 0.0
    for b, f in zip(model.base_coords, model.fiber_coords):
        xi = np.asarray(fiber_arrays[f.name], dtype=complex)
        s = s + (xi * np.conj(rho[b.name])).real
        xi_sq = xi_sq + np.abs(xi) ** 2
        rho_sq = rho_sq + np.abs(rho[b.name]) ** 2
    return s * s * rho_sq, xi_sq


# -- Clifford model ---------------------------------------------------------------


def clifford_multiplication(model: ActionModel, w) -> SuperMatrix:
    """Left Clifford multiplication by an orbital tangent value on the W bundle."""
    if model.bundle_w is None or model.bundle_w.rank != 2:
        raise UnsupportedShapeError("Clifford multiplication needs a rank-2 W bundle")
    if isinstance(w, Mapping):
        vals = [v for v in w.values() if v != 0]
        w = vals[0] if vals else 0.0
    w = complex(w)
    alg = model.algebra
    z = alg.zero(NUMERIC)
    return SuperMatrix(alg, model.bundle_w.grading(),
                       [[z, alg.scalar(w.conjugate(), NUMERIC)],
                        [alg.scalar(w, NUMERIC), z]])


def _phi_polys(model: ActionModel) -> tuple[Poly, Poly]:
    """Orbital projection applied to the tautological covector, as (phi, conj phi)."""
    bases = model.base_coords
    fibers = model.fiber_coords
    if len(bases) != 1 or bases[0].kind != COMPLEX:
        raise UnsupportedShapeError("symbolic phi implemented for one complex base coordinate")
    b, f = bases[0], fibers[0]
    zc = model.coord_poly(b.name)
    xc = model.coord_poly(f.name)
    rho = (-1j * b.weight) * zc
    rho_bar = model.conj_poly(rho)
    x_bar = model.conj_poly(xc)
    s = (xc * rho_bar + x_bar * rho) * 0.5
    phi = rho * s
    return phi, model.conj_poly(phi)


def _augmented_from_cliff_arg(model: ActionModel, w: Poly, wbar: Poly) -> SuperMatrix:
    """sigma (x) 1 + 1 (x) c(w) on E (x) W with graded tensor signs."""
    e, wspec = model.bundle_e, model.bundle_w
    if e is None or wspec is None or e.rank != 2 or wspec.rank != 2:
        raise UnsupportedShapeError("augmentation needs rank-2 E and W bundles")
    alg = model.algebra
    zero = alg.zero(SYMBOLIC)
    sigma = model.symbol.entries
    cmat = [[None, alg.scalar(wbar)], [alg.scalar(w), None]]
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
    phi, phibar = _phi_polys(model)
    return _augmented_from_cliff_arg(model, phi, phibar)


# -- homotopy to the constant-coefficient normal form ------------------------------


@dataclass(frozen=True)
class HomotopyPath:
    """Consecutive linear interpolations between symbol matrices."""

    stages: tuple[tuple[SuperMatrix, SuperMatrix], ...]

    def __post_init__(self):
        for (a0, a1), (b0, b1) in zip(self.stages, self.stages[1:]):
            if not all(x == y for r1, r2 in zip(a1.entries, b0.entries)
                       for x, y in zip(r1, r2)):
                raise ValueError("endpoints of consecutive stages must match")

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def matrix_at(self, stage: int, s: float) -> SuperMatrix:
        a, b = self.stages[stage]
        return a.scale(1.0 - s) + b.scale(s)


def homotopy_path(model: ActionModel) -> HomotopyPath:
    """Two-stage path: flatten the orbital factor, then shear in the fiber."""
    b = model.base_coords[0]
    f = model.fiber_coords[0]
    if b.kind != COMPLEX or f.kind != COMPLEX:
        raise UnsupportedShapeError("homotopy implemented for complex base and fiber")
    zc = model.coord_poly(b.name)
    xc = model.coord_poly(f.name)
    phi, phibar = _phi_polys(model)
    w_mid = 1j * zc
    w_end = 1j * zc + xc
    stage = lambda w: _augmented_from_cliff_arg(model, w, model.conj_poly(w))
    start = _augmented_from_cliff_arg(model, phi, phibar)
    return HomotopyPath(((start, stage(w_mid)), (stage(w_mid), stage(w_end))))


# -- ellipticity scanning ------------------------------------------------------------


@dataclass(frozen=True)
class ScanGrid:
    """Shell radii and sampling controls for the determinant scan."""

    radii: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 8.0)
    samples: int = 2000
    seed: int = 0
    threshold: float = 1e-6
    r0: float = 2.0
    refine_iters: int = 80


@dataclass
class ShellResult:
    radius: float
    min_normalized_det: float
    median_opnorm: float
    median_det: float
    degenerate: int


@dataclass
class ScanReport:
    shells: list[ShellResult]
    growth_exponent: float
    passed: bool
    degenerate_points: list

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "growth_exponent": float(self.growth_exponent),
            "shells": [
                {
                    "radius": s.radius,
                    "min_normalized_det": s.min_normalized_det,
                    "median_opnorm": s.median_opnorm,
                    "median_det": s.median_det,
                    "degenerate": s.degenerate,
                }
                for s in self.shells
            ],
            "degenerate_points": [[float(x) for x in p] for p in self.degenerate_points],
        }


def _real_structure(algebra: ExteriorAlgebra):
    """Split coordinates into declared conjugate pairs and real singles."""
    pairs = list(algebra.conjugates.items())
    paired = {c for pair in pairs for c in pair}
    singles = [c for c in algebra.coordinates if c not in paired]
    return pairs, singles


def _coords_from_real(algebra: ExteriorAlgebra, pts: np.ndarray) -> dict[str, np.ndarray]:
    """Coordinate arrays from real points ``(..., dim)``: each pair takes two reals."""
    pairs, singles = _real_structure(algebra)
    out = {}
    k = 0
    for a, b in pairs:
        out[a] = pts[..., k] + 1j * pts[..., k + 1]
        out[b] = pts[..., k] - 1j * pts[..., k + 1]
        k += 2
    for s in singles:
        out[s] = pts[..., k].astype(complex)
        k += 1
    return out


def _entry_polys(matrix: SuperMatrix) -> np.ndarray:
    """Object array ``(d, d)`` of a degree-0 matrix's entry polynomials, None for zero."""
    d = matrix.dim
    out = np.full((d, d), None, dtype=object)
    for i, row in enumerate(matrix.entries):
        for j, f in enumerate(row):
            if f.is_zero:
                continue
            if f.max_degree > 0:
                raise ValueError("expected a degree-0 symbol matrix")
            out[i, j] = f.terms[0]
    return out


def _real_derivatives(polys: np.ndarray, algebra: ExteriorAlgebra) -> np.ndarray:
    """Entry polynomials of dM/dt_k, one per real coordinate of `_coords_from_real`.

    A conjugate pair (a, b) = (x + iy, x - iy) gives d/dx = d/da + d/db and
    d/dy = i (d/da - d/db); a real single is differentiated as it stands.
    """
    pairs, singles = _real_structure(algebra)

    def table(op):
        out = np.full(polys.shape, None, dtype=object)
        for idx, f in np.ndenumerate(polys):
            if f is not None:
                g = op(f)
                out[idx] = None if g.is_zero else g
        return out

    tables = []
    for a, b in pairs:
        tables.append(table(lambda f: f.diff(a) + f.diff(b)))
        tables.append(table(lambda f: 1j * (f.diff(a) - f.diff(b))))
    for s in singles:
        tables.append(table(lambda f: f.diff(s)))
    return np.stack(tables)


def block_singular_values(a, b, c, d):
    """``(|det|, sigma_max, sigma_min)`` of the 2x2 blocks [[a, b], [c, d]], elementwise.

    sigma_max^2 is the larger eigenvalue of M M^H,
    (|M|_F^2 + hypot(|a|^2 + |b|^2 - |c|^2 - |d|^2, 2|a conj(c) + b conj(d)|)) / 2,
    and sigma_min = |det| / sigma_max (0 where sigma_max is 0).  Unlike the
    textbook sqrt(f^2 - 4|det|^2) form, no digits cancel when the two
    singular values nearly coincide.
    """
    top = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    bottom = c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2
    gap = np.hypot(top - bottom, 2.0 * np.abs(a * np.conj(c) + b * np.conj(d)))
    smax = np.sqrt((top + bottom + gap) / 2.0)
    det = np.abs(a * d - b * c)
    smin = np.divide(det, smax, out=np.zeros_like(smax), where=smax > 0)
    return det, smax, smin


def _grading_blocks(matrix: SuperMatrix):
    """Row and column indices of the grading blocks holding every entry, or None.

    An odd matrix lives on its two off-diagonal blocks, an even one on its
    two diagonal blocks, so its singular values are the union of theirs and
    its |det| their product.  None (use a full svd) when the matrix is not
    homogeneous or a non-empty block is not square of size 1 or 2.
    """
    parity = matrix.homogeneous_parity()
    return None if parity is None else parity_blocks(matrix.grading.parities, parity)


def parity_blocks(parities: Sequence[int], parity: int):
    """`_grading_blocks` of a matrix of the given parity under ``parities``."""
    even = [i for i, q in enumerate(parities) if q == EVEN]
    odd = [i for i, q in enumerate(parities) if q == ODD]
    pairs = [(even, odd), (odd, even)] if parity == ODD else [(even, even), (odd, odd)]
    blocks = [(rows, cols) for rows, cols in pairs if rows or cols]
    if any(len(rows) != len(cols) or len(rows) > 2 for rows, cols in blocks):
        return None
    return blocks


def _singular_stats(vals: np.ndarray, blocks):
    """``(|det|, sigma_max, sigma_min)`` of entry-first ``(d, d, ...)`` values.

    ``blocks`` are the matrix's `_grading_blocks`; with None, a full svd.
    """
    if blocks is None:
        mats = np.moveaxis(vals, (0, 1), (-2, -1))
        svals = np.linalg.svd(mats, compute_uv=False)
        return np.abs(np.linalg.det(mats)), svals[..., 0], svals[..., -1]
    dets = smax = smin = None
    for rows, cols in blocks:
        if len(rows) == 1:
            bdet = bmax = bmin = np.abs(vals[rows[0], cols[0]])
        else:
            (i, k), (j, l) = rows, cols
            bdet, bmax, bmin = block_singular_values(
                vals[i, j], vals[i, l], vals[k, j], vals[k, l])
        if dets is None:
            dets, smax, smin = bdet, bmax, bmin
        else:
            dets = dets * bdet
            smax = np.maximum(smax, bmax)
            smin = np.minimum(smin, bmin)
    return dets, smax, smin


def _median_last(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=-1)`` by one partition (np.median imports numpy.ma)."""
    h = a.shape[-1] // 2
    if a.shape[-1] % 2:
        return np.partition(a, h, axis=-1)[..., h]
    part = np.partition(a, (h - 1, h), axis=-1)
    return (part[..., h - 1] + part[..., h]) / 2


def gaussian_draws(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws of ``shape``, a deterministic function of ``seed``.

    ``random.Random(seed)`` (loaded with numpy already, unlike
    ``numpy.random``) supplies little-endian 64-bit words; the top 53 bits of
    each give a uniform, u1 in (0, 1] from the first half of the words and u2
    in [0, 1) from the second, and Box-Muller turns each pair into the two
    normals ``sqrt(-2 ln u1)`` times ``cos(2 pi u2)`` and ``sin(2 pi u2)``.
    """
    n = math.prod(shape)
    pairs = (n + 1) // 2
    words = np.frombuffer(random.Random(seed).randbytes(16 * pairs), dtype="<u8") >> 11
    radius = np.sqrt(-2.0 * np.log((words[:pairs] + 1) * 2.0 ** -53))
    angle = 2 * np.pi * (words[pairs:] * 2.0 ** -53)
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(shape)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# Worst samples per shell that Gauss-Newton refines.
REFINE_CANDIDATES = 4
# Symbol norm, relative to the shell scale, below which a point is a zero.
DEGENERATE_TOL = 1e-12
# Damping below which a Gauss-Newton candidate that stops improving is frozen.
_GN_MIN_DAMPING = 2.0 ** -6


def ellipticity_scan(matrix: SuperMatrix, grid: ScanGrid = ScanGrid()) -> ScanReport:
    """Shell scan of the pointwise-normalized determinant of a symbol matrix.

    Reports min |det| of the operator-norm-normalized symbol per shell and a
    least-squares growth exponent of |det|.  Points where the symbol norm
    collapses below ``DEGENERATE_TOL`` times the shell scale count as
    determinant zeros.  Singular values and |det| come in closed form from
    the 1x1 and 2x2 grading blocks of a homogeneous matrix (a full svd
    otherwise).  The worst samples per shell are refined by damped
    Gauss-Newton on the smallest singular value, projected onto the shell
    sphere, so a transversal zero set is converged to and not merely
    straddled.  Every shell is sampled in one batch and all shells'
    candidates advance in lock-step, one batch of the matrix and its
    derivatives per step.  The shell directions are normalized
    ``gaussian_draws(grid.seed, ...)``; the refinement draws no random
    numbers.  The matrix and its derivative jet are compiled once per call,
    so each batch is one product of coefficients and monomials.
    """
    if grid.samples <= 0 or not grid.radii:
        raise ValueError("empty scan grid")
    algebra = matrix.algebra
    pairs, singles = _real_structure(algebra)
    dim_real = 2 * len(pairs) + len(singles)
    d = matrix.dim
    polys = _entry_polys(matrix)
    blocks = _grading_blocks(matrix)

    radii = np.asarray(grid.radii, dtype=float)
    r = radii[:, None, None]
    dirs = _unit(gaussian_draws(grid.seed, (len(radii), grid.samples, dim_real)))
    pts = r * dirs
    dets, opnorms, smins = _singular_stats(
        CompiledPolys(algebra, polys).entries(_coords_from_real(algebra, pts)), blocks)
    scale = _median_last(opnorms)
    floor = DEGENERATE_TOL * np.maximum(scale, 1e-30)

    cand_idx = np.argsort(smins, axis=1)[:, :REFINE_CANDIDATES]
    p = np.take_along_axis(dirs, cand_idx[..., None], axis=1)
    start = r * p
    start_dets = np.take_along_axis(dets, cand_idx, axis=1)
    start_opn = np.take_along_axis(opnorms, cand_idx, axis=1)
    ref_dets, ref_opn = start_dets.copy(), start_opn.copy()
    active = np.take_along_axis(smins, cand_idx, axis=1) >= floor[:, None]
    if grid.refine_iters > 0 and active.any():
        jet = CompiledPolys(algebra, np.concatenate(
            [polys[None], _real_derivatives(polys, algebra)]))
        rad = np.broadcast_to(radii[:, None], active.shape)

        def evaluate(q: np.ndarray, rq: np.ndarray):
            """Stats and tangential gradient of sigma_min at unit directions q."""
            vals = jet.entries(_coords_from_real(algebra, rq[:, None] * q))
            det, opn, smin = _singular_stats(vals[0], blocks)
            u, _, vh = np.linalg.svd(np.moveaxis(vals[0], -1, 0))
            g = rq[:, None] * np.einsum("ni,kijn,nj->nk", np.conj(u[:, :, -1]),
                                        vals[1:], np.conj(vh[:, -1, :])).real
            g -= np.sum(g * q, axis=-1, keepdims=True) * q
            return det, opn, smin, g

        # damped Gauss-Newton from each shell's worst samples: step to the
        # zero of the linearized sigma_min, halve the step when sigma_min
        # does not fall, freeze at the degenerate floor or at small damping
        best = np.zeros(active.shape)
        grad = np.zeros(p.shape)
        _, _, best[active], grad[active] = evaluate(p[active], rad[active])
        damping = np.ones(active.shape)
        for _ in range(grid.refine_iters):
            gsq = np.sum(grad ** 2, axis=-1)
            active &= (best >= floor[:, None]) & (damping >= _GN_MIN_DAMPING) & (gsq > 0)
            if not active.any():
                break
            delta = -(best[active] / gsq[active])[:, None] * grad[active]
            q = _unit(p[active] + damping[active][:, None] * delta)
            det, opn, smin, g = evaluate(q, rad[active])
            accept = smin < best[active]
            moved = active.copy()
            moved[active] = accept
            p[moved], best[moved], grad[moved] = q[accept], smin[accept], g[accept]
            ref_dets[moved], ref_opn[moved] = det[accept], opn[accept]
            damping[active & ~moved] /= 2.0

    cand = np.concatenate([start, r * p], axis=1)
    cdets = np.concatenate([start_dets, ref_dets], axis=1)
    copn = np.concatenate([start_opn, ref_opn], axis=1)
    all_pts = np.concatenate([pts, cand], axis=1)
    all_dets = np.concatenate([dets, cdets], axis=1)
    all_opn = np.concatenate([opnorms, copn], axis=1)
    degenerate = all_opn < floor[:, None]
    normalized = np.where(
        degenerate, 0.0, all_dets / np.maximum(all_opn, floor[:, None]) ** d)
    median_det = _median_last(dets)

    shells: list[ShellResult] = []
    degenerate_points = []
    for i, rad in enumerate(radii):
        n_deg = int(degenerate[i].sum())
        for idx in np.nonzero(degenerate[i])[0][:3]:
            degenerate_points.append(list(all_pts[i, idx]))
        shells.append(ShellResult(
            radius=float(rad),
            min_normalized_det=float(normalized[i].min()),
            median_opnorm=float(scale[i]),
            median_det=float(median_det[i]),
            degenerate=n_deg,
        ))

    log_det = np.log(np.maximum(median_det, 1e-300))
    growth = float(np.polyfit(np.log(radii), log_det, 1)[0]) if len(radii) > 1 else 0.0
    passed = all(
        s.min_normalized_det > grid.threshold
        for s in shells if s.radius >= grid.r0)
    return ScanReport(shells=shells, growth_exponent=growth,
                      passed=passed, degenerate_points=degenerate_points)


# -- built-in models ------------------------------------------------------------------


def c_plane() -> ActionModel:
    """Rotation of the complex plane with the shifted Cauchy-Riemann symbol."""
    coords = (Coordinate("z", COMPLEX, 1, "base"),
              Coordinate("xi", COMPLEX, 1, "fiber"))
    e = BundleSpec((0, 1), (0, 1))
    w = BundleSpec((0, 1), (0, 1))
    model = ActionModel("c-plane", coords, e, w, symbol_rows=None, x_support=2.0)
    alg = model.algebra
    z = alg.coord("z")
    zb = alg.coord("zbar")
    x = alg.coord("xi")
    xb = alg.coord("xibar")
    zero = alg.zero(SYMBOLIC)
    sigma = [[zero, alg.scalar(zb - 1j * xb)], [alg.scalar(z + 1j * x), zero]]
    model.set_symbol(sigma)
    # superconnection odd term: i * (constant-coefficient endpoint of the homotopy)
    ltilde = _augmented_from_cliff_arg(model, 1j * z + x, model.conj_poly(1j * z + x))
    model.set_odd_term(ltilde.scale(1j))
    return model


def c_plane_uv() -> ActionModel:
    """The plane model after the shear change of variables; Gaussian weight one."""
    coords = (Coordinate("u", COMPLEX, 1, "base"),
              Coordinate("v", COMPLEX, 1, "fiber"))
    e = BundleSpec((0, 1), (0, 1))
    w = BundleSpec((0, 1), (0, 1))
    model = ActionModel("c-plane-uv", coords, e, w, x_support=2.0)
    alg = model.algebra
    u, ub = alg.coord("u"), alg.coord("ubar")
    v, vb = alg.coord("v"), alg.coord("vbar")
    zero = alg.zero(SYMBOLIC)
    sigma = [[zero, alg.scalar(ub)], [alg.scalar(u), zero]]
    model.set_symbol(sigma)
    sc = [
        [0, 0, vb, ub],
        [0, 0, u, -1 * v],
        [v, ub, 0, 0],
        [u, -1 * vb, 0, 0],
    ]
    rows = [[alg.scalar(p) if isinstance(p, Poly) else alg.scalar(float(p))
             for p in row] for row in sc]
    model.set_odd_term(SuperMatrix(alg, model.bundle_script_e.grading(), rows).scale(1j))
    return model


def zero_op_s1() -> ActionModel:
    """The zero operator on the circle with its tautological-1-form superconnection."""
    coords = (Coordinate("theta", ANGLE, 1, "base"),
              Coordinate("xi", REAL, 0, "fiber"))
    e = BundleSpec((0,), (0,))
    w = BundleSpec((0,), (0,))
    model = ActionModel("zero-op", coords, e, w,
                        volume=("dxi", "dtheta"), x_support=np.pi)
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
