"""Numeric membership checks for the algebra of transversally-negative-order symbols.

A symbol function is admitted when, for every eps, a constant c_eps bounds
|b(x, xi)| by c_eps (1 + |phi_x(xi)|^2)/(1 + |xi|^2) + eps on sampled grids
and the constant stabilizes as the xi-radius grows, and when its restriction
to the transverse covector variety decays at infinity.  Transversal
ellipticity of a symbol sigma is the membership of a (1 - sigma_hat^2) for
compactly supported cutoffs a, with sigma_hat the order-zero normalization
sigma / sqrt(1 + |x|^2 + |xi|^2).  The module holds the symbol side of the
geometry that these checks read: the action derivative rho, the orbital
projection phi = rho Re(xi conj(rho)) on arrays, and phi as a polynomial,
which the augmentation of a symbol (`geometry.augmented_symbol`) reads.  The
``check-symbol`` command runs here (`check_symbol`), beside the checks it
reports, so that no other command compiles it.  A symbol and its
augmentation are polynomial matrices (`ring.PolyMatrix`), read entry by
entry, so the command builds no form and loads neither `equichern.exterior`
nor `equichern.supermatrix`.

On a complex base and fiber, the checks sample the transversal remainder on
one angle of the base when its compiled monomials x^a conj(x)^b xi^c
conj(xi)^e all have charge a - b + c - e = 0: the remainder is then
invariant under the phase rotation (x, xi) -> (e^{i beta} x, e^{i beta} xi),
and so is everything else the checks read (`_base_points`).  Other symbols
take the full grid.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .geometry import ANGLE, COMPLEX, ActionModel, Coordinate, augmented_symbol
from .polyeval import CompiledPolys
from .ring import EVEN, Poly, UnsupportedShapeError, full_point
from .scan import (
    ScanGrid,
    _entry_polys,
    _singular_stats,
    ellipticity_scan,
    fill_batches,
    parity_blocks,
)

STABILITY_RATIO = 1.1   # heuristic: c_eps(R)/c_eps(R/2) below this counts as stable
DECAY_DELTA = 1e-3
N_X = 64        # base samples within the x-support
N_RADII = 24    # xi radii, geometric from R_MIN to r_max
N_DIRS = 32     # fiber directions of condition C on a complex fiber
R_MIN = 0.5
R_MAX = 1e3     # outer xi radius of the membership checks
CUTOFF_RADII = (1.0, 2.0)   # cutoffs a of the transversal ellipticity check
# Decimal exponent that the largest value the checks form may reach (doubles
# overflow past 1e308); see `largest_r_max`.
R_MAX_DIGITS = 300


# -- the orbital projection ----------------------------------------------------------


def infinitesimal_generator(model: ActionModel, x):
    """The action derivative rho at base values x, elementwise.

    A weight-n complex base contributes -i n x (the derivative of exp(-t)
    acting with weight n); an angle base rotates at rate +n, a real one not.
    """
    b = model.base
    x = np.asarray(x, dtype=complex)
    if b.kind == COMPLEX:
        return -1j * b.weight * x
    return np.full_like(x, b.weight if b.kind == ANGLE else 0)


def orbital_projection(model: ActionModel, x, xi):
    """phi = rho rho^t: the covectors xi at base values x projected onto the orbit.

    Elementwise rho Re(xi conj(rho)), with rho the `infinitesimal_generator`.
    Re(xi conj(rho)) is formed from real products, so an array call equals its
    scalar calls bit for bit on every host: numpy's complex multiply on arrays
    fuses a multiply and an add where the host's SIMD loops do.
    """
    rho = infinitesimal_generator(model, x)
    return rho * (xi.real * rho.real + xi.imag * rho.imag)


def _fiber(model: ActionModel) -> Coordinate:
    """The model's fiber coordinate, which symbols and their augmentation need."""
    if model.fiber is None:
        raise UnsupportedShapeError(f"model {model.name!r} declares no fiber coordinate")
    return model.fiber


def phi_poly(model: ActionModel) -> Poly:
    """Orbital projection applied to the tautological covector, phi, as a polynomial.

    The symbolic `orbital_projection`, which `geometry.augmented_symbol` reads.
    """
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


class CoefficientOverflowError(ValueError):
    """A term of the symbol overflows the ellipticity scan at every radius."""


class SymbolFunction(NamedTuple):
    """A bounded scalar symbol sampled through a vectorized evaluator.

    The evaluator maps base values x and fiber covectors xi (complex arrays,
    broadcastable) to complex values; the magnitude is their modulus,
    pointwise.  ``phase_invariant`` records that the values are invariant
    under the phase rotation (x, xi) -> (e^{i beta} x, e^{i beta} xi) on a
    complex base and fiber, so that the membership checks sample one angle
    of the base (`_base_points`).
    """

    evaluator: Callable
    x_support_radius: float
    phase_invariant: bool = False

    def magnitude(self, x, xi) -> np.ndarray:
        return np.abs(self.evaluator(x, xi))


def _base_points(model: ActionModel, b: SymbolFunction) -> np.ndarray:
    """Sample the base within the symbol's x-support.

    A complex base is sampled on radii times angles, with x = 0 once; a
    ``phase_invariant`` symbol on its angle-0 slice, the radii alone.  The
    phase rotation (x, xi) -> (e^{i beta} x, e^{i beta} xi) by an angle beta
    of the grid fixes such a symbol (its s^2, cutoff a(|x|) and remainder
    alike) and the bound core of `condition_c_fit`: rho is linear in x, so
    xi conj(rho) is fixed, and |phi| with it.  It maps the N_DIRS fiber
    directions onto themselves, as N_DIRS is a multiple of the angle count,
    and the transverse directions of `restriction_decay_check` at x (the
    fixed 8 at rho = 0) onto those at e^{i beta} x.  So at every other angle
    both checks see the values of the slice again, up to rounding.
    """
    if model.base.kind != COMPLEX:
        return np.linspace(0.0, 2 * math.pi, N_X, endpoint=False).astype(complex)
    n_r = max(2, int(round(math.sqrt(N_X))))
    radii = np.linspace(0.0, b.x_support_radius, n_r)
    if b.phase_invariant:
        return radii.astype(complex)
    angles = np.linspace(0.0, 2 * math.pi, N_X // n_r, endpoint=False)
    return np.append(0j, radii[1:, None] * np.exp(1j * angles))


def _fiber_directions(model: ActionModel) -> np.ndarray:
    if _fiber(model).kind == COMPLEX:
        angles = np.linspace(0.0, 2 * math.pi, N_DIRS, endpoint=False)
        return np.exp(1j * angles)
    return np.array([1.0, -1.0], dtype=complex)


def _bound_core(model: ActionModel, x, xi):
    """(1 + |phi_x(xi)|^2)/(1 + |xi|^2), the transverse-decay bound without c_eps."""
    return (1.0 + np.abs(orbital_projection(model, x, xi)) ** 2) / (1.0 + np.abs(xi) ** 2)


class ConditionCReport(NamedTuple):
    entries: list[dict]
    passed: bool
    r_max: float

    def to_dict(self) -> dict:
        return {"passed": bool(self.passed), "r_max": self.r_max,
                "stability_ratio_limit": STABILITY_RATIO,
                "note": "stabilization ratio is a sampling heuristic",
                "entries": self.entries}


def condition_c_fit(b: SymbolFunction, model: ActionModel,
                    eps_list: Sequence[float], *,
                    r_max: float = R_MAX) -> ConditionCReport:
    """Fit the minimal c_eps in the transverse-decay bound on a radial grid.

    PASS requires c_eps at radius R within STABILITY_RATIO of its value at
    R/2 for every eps, so that growing the grid no longer grows the constant.
    Raises ValueError for r_max below 2 R_MIN, where no radius lies within R/2.
    """
    if r_max < 2 * R_MIN:
        raise ValueError(f"r_max {r_max!r} is below 2 R_MIN = {2 * R_MIN:g}: "
                         "no xi radius lies within r_max / 2")
    dirs = _fiber_directions(model)
    radii = np.geomspace(R_MIN, r_max, N_RADII)
    X, XI = np.broadcast_arrays(_base_points(model, b)[:, None, None],
                                (dirs[:, None] * radii[None, :])[None, :, :])
    mag = b.magnitude(X, XI)
    bound_core = _bound_core(model, X, XI)
    half_mask = np.broadcast_to((radii <= r_max / 2)[None, None, :], X.shape)

    entries = []
    all_pass = True
    for eps in eps_list:
        need = np.where(mag > eps, (mag - eps) / bound_core, 0.0)
        c_full = float(need.max())
        c_half = float(np.where(half_mask, need, 0.0).max())
        if c_full < 1e-12 and c_half < 1e-12:
            ratio = 1.0
        elif c_half < 1e-12:
            ratio = math.inf
        else:
            ratio = c_full / c_half
        ok = ratio < STABILITY_RATIO
        all_pass = all_pass and ok
        entries.append({"eps": float(eps), "c_eps": c_full,
                        "c_eps_half_radius": c_half, "ratio": ratio,
                        "passed": bool(ok)})
    return ConditionCReport(entries=entries, passed=all_pass, r_max=r_max)


class DecayReport(NamedTuple):
    shell_radii: list[float]
    shell_sup: list[float]
    passed: bool
    vacuous: bool

    def to_dict(self) -> dict:
        return {"passed": bool(self.passed), "vacuous": bool(self.vacuous),
                "delta": DECAY_DELTA,
                "shells": [{"radius": r, "sup": s}
                           for r, s in zip(self.shell_radii, self.shell_sup)]}


def _transverse_directions(model: ActionModel, rho: complex) -> np.ndarray:
    """Unit fiber covectors orthogonal to the orbit direction rho at a base point."""
    real_fiber = _fiber(model).kind != COMPLEX
    if model.base.kind == COMPLEX and not real_fiber:
        if abs(rho) < 1e-14:
            return np.exp(1j * np.linspace(0, 2 * math.pi, 8, endpoint=False))
        # xi with Re(xi conj(rho)) = 0: the real line through i*rho
        d = 1j * rho / abs(rho)
        return np.array([d, -d])
    # a real xi is sampled at real values, where Re(xi conj(rho)) = xi Re(rho):
    # where Re(rho) != 0 the orbit fills the pairing, and only xi = 0 remains
    if real_fiber and abs(rho.real) >= 1e-14:
        return np.empty(0, dtype=complex)
    return np.array([1.0, -1.0], dtype=complex)


def restriction_decay_check(b: SymbolFunction, model: ActionModel, *,
                            r_max: float = R_MAX) -> DecayReport:
    """Decay of |b| restricted to the transverse covector variety.

    PASS when shell suprema decrease monotonically to below DECAY_DELTA at
    the outer shell; when the variety is the zero section (compact), the
    vanishing-at-infinity condition holds vacuously.
    """
    base = _base_points(model, b)
    radii = np.geomspace(R_MIN, r_max, N_RADII)
    xs, ds = [], []
    # rho as Python complexes: numpy's complex division rounds the directions
    # differently in the last bit, which the decay reports would show
    for x, rho in zip(base, infinitesimal_generator(model, base).tolist()):
        for d in _transverse_directions(model, rho):
            xs.append(x)
            ds.append(d)
    if not xs:
        return DecayReport(shell_radii=list(map(float, radii)),
                           shell_sup=[0.0] * len(radii), passed=True, vacuous=True)
    xs = np.asarray(xs, dtype=complex)[:, None]
    ds = np.asarray(ds, dtype=complex)[:, None]
    XI = ds * radii[None, :]
    X = np.broadcast_to(xs, XI.shape)
    mag = b.magnitude(X, XI)
    sup = mag.max(axis=0)
    monotone = all(b2 <= a2 * (1 + 1e-9) + 1e-15 for a2, b2 in zip(sup, sup[1:]))
    passed = monotone and float(sup[-1]) < DECAY_DELTA
    return DecayReport(shell_radii=list(map(float, radii)),
                       shell_sup=list(map(float, sup)), passed=passed, vacuous=False)


class TransversalityReport(NamedTuple):
    cutoffs: list[float]
    condition_c: list[ConditionCReport]
    decay: list[DecayReport]
    passed: bool

    def to_dict(self) -> dict:
        return {"passed": bool(self.passed),
                "cutoff_radii": self.cutoffs,
                "condition_c": [r.to_dict() for r in self.condition_c],
                "restriction_decay": [r.to_dict() for r in self.decay]}


def bump(r: np.ndarray, radius: float) -> np.ndarray:
    """Smooth compactly supported cutoff exp(1 - 1/(1 - (r/radius)^2))."""
    r = np.abs(np.asarray(r))
    t = (r / radius) ** 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.where(t < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return val


def normalized_remainder_symbol(model: ActionModel,
                                cutoff_radius: float) -> SymbolFunction:
    """a(x) sigma_max(1 - sigma_hat^2) with the order-zero normalized symbol sigma_hat.

    With s^2 = 1 + |x|^2 + |xi|^2, 1 - sigma_hat^2 is R / s^2 for the
    polynomial matrix R = s^2 1 - sigma sigma.  s^2 is the polynomial
    1 + x conj(x) + xi conj(xi) (`ActionModel.conj_poly`; a real coordinate,
    sampled at real values only, squares itself), and the entries of R are
    formed from it and the products of the symbol's entry polynomials.  One
    table compiles R and s^2, so one product gives both numerator and
    denominator, and the terms of s^2 cancel exactly, in the coefficients of
    R rather than in floating point.  That holds for s^2 only: the products
    sigma_ij sigma_jk are expanded into terms, so where an entry's terms
    cancel, an entry of R can lose digits that the product of the evaluated
    entries keeps.  R is divided by s^2 before
    `scan._singular_stats` squares it.  As sigma is odd, R is even: only its
    two diagonal grading blocks are compiled, and the operator norm comes
    from them.  The evaluator flattens its broadcast ``(x, xi)`` and reduces
    them to operator norms in slices of at most ``scan.BATCH_POINTS`` points
    (`scan.fill_batches`).  The symbol is ``phase_invariant`` when every
    monomial of the table has charge 0 on a complex base and fiber.
    """
    base, fiber = model.base.name, _fiber(model).name
    alg, polys, parities = model.algebra, _entry_polys(model.symbol), model.symbol.parities
    d = len(parities)
    s2 = 1 + sum(alg.coord(n) * model.conj_poly(alg.coord(n)) for n in (base, fiber))
    # R_ik row-major, then s^2; R is even, so its odd blocks vanish and stay None
    table = CompiledPolys(alg, [
        s2 * float(i == k) - sum(polys[i, j] * polys[j, k] for j in range(d)
                                 if polys[i, j] is not None and polys[j, k] is not None)
        if parities[i] == parities[k] else None for i in range(d) for k in range(d)] + [s2])
    blocks = parity_blocks(parities, EVEN)
    # the table is phase invariant when every monomial x^a conj(x)^b xi^c
    # conj(xi)^e of it has charge a - b + c - e = 0
    charge = {base: 1, fiber: 1, alg.conjugates.get(base): -1, alg.conjugates.get(fiber): -1}
    invariant = (model.base.kind == COMPLEX == model.fiber.kind
                 and set(table.coords) <= set(charge)
                 and not any(sum(charge[table.coords[k]] * e for k, e in f)
                             for f in table.factors))

    def sigma_max(x, xi):
        vals = table.entries(full_point(alg, {base: x, fiber: xi}))
        return _singular_stats(vals[:-1].reshape((d, d) + x.shape) / vals[-1], blocks)[1]

    def evaluator(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, dtype=complex),
                                    np.asarray(xi, dtype=complex))
        shape = x.shape
        x, xi = x.ravel(), xi.ravel()
        out = np.empty(x.size)
        fill_batches(out, lambda s: sigma_max(x[s], xi[s]), 1)
        return (bump(x, cutoff_radius) * out).reshape(shape)

    return SymbolFunction(evaluator, cutoff_radius, invariant)


def _entry_terms(model: ActionModel):
    """(monomial, coefficient) of every term of the symbol's entries."""
    return [(m, c) for row in model.symbol.rows for p in row for m, c in p.terms.items()]


def _degree(model: ActionModel, name: str, m) -> int:
    """Degree of the monomial m in the coordinate ``name`` and its conjugate."""
    alg = model.algebra
    return sum(m[alg.coord_index[c]] for c in (name, alg.conjugates.get(name)) if c)


def fiber_degree(model: ActionModel) -> int:
    """Largest degree of the symbol's entries in the fiber coordinate and its conjugate."""
    fiber = _fiber(model).name
    return max((_degree(model, fiber, m) for m, _ in _entry_terms(model)), default=0)


def largest_r_max(model: ActionModel, linear: float) -> float:
    """The largest outer xi radius the transversal check can take without overflow.

    The cap is 1e<k>, at most ``linear``, for the largest integer k that
    keeps each value the checks form below 1e<R_MAX_DIGITS> at |xi| = 1e<k>.
    A term c x^b xi^j of the symbol's entries is at most |c| rho^b |xi|^j on
    the base sample (|x| <= rho, the largest cutoff radius on a complex base,
    2 pi on an angle); let C be the largest |c| rho^b over the terms with
    j >= 1 (or 1, if larger) and D the symbol's degree in xi.  The compiled
    remainder s^2 1 - sigma sigma is about C^2 |xi|^(2 max(D, 1)) before
    its division by s^2, so 2 log10 C + 2 max(D, 1) k <= R_MAX_DIGITS.  After
    it, the remainder is about C^2 |xi|^(2(D-1)) for D >= 1, and the |det| of
    its d x d values (`scan._singular_stats`) about C^(2d) |xi|^(2d(D-1)), so
    2d log10 C + 2d (D-1) k <= R_MAX_DIGITS as well.  Terms free of xi fall
    off with the normalization and do not count.  The report's condition-C
    constant c_eps, about C^2 |xi|^(2D), is as large as the first bound's
    value (about 1e<R_MAX_DIGITS> at the cap), so that bound holds however
    the remainder is evaluated, along rays included.

    Raises CoefficientOverflowError naming the coefficient when the
    ellipticity scan's fixed shells already overflow, whatever the radius:
    there every coordinate reaches ``max(ScanGrid().radii)`` = 8, so with E
    the largest |c| 8^n over all terms of total degree n (or 1), the
    augmented symbol's |det| is about E^(2d) and 2d log10 E must stay within
    R_MAX_DIGITS.  As C <= E, a model that passes has k >= 0, a cap of at
    least 1.
    """
    fiber, base, d = _fiber(model).name, model.base, len(model.symbol.rows)
    terms = [(m, abs(c)) for m, c in _entry_terms(model)]
    log_shell = math.log10(max(ScanGrid().radii))
    digits, n, c = max(((math.log10(c) + sum(m) * log_shell, sum(m), c) for m, c in terms),
                       default=(0.0, 0, 1.0))
    if 2 * d * digits > R_MAX_DIGITS:
        raise CoefficientOverflowError(f"the term of coefficient modulus {c:g} and degree "
                                       f"{n} overflows the ellipticity scan at every --xi-max")
    log_rho = math.log10(max(CUTOFF_RADII) if base.kind == COMPLEX else 2 * math.pi)
    size = max([0.0] + [math.log10(c) + log_rho * _degree(model, base.name, m)
                        for m, c in terms if _degree(model, fiber, m)])
    degree = fiber_degree(model)
    k = min((R_MAX_DIGITS - 2 * size) / (2 * max(degree, 1)),
            (R_MAX_DIGITS - 2 * d * size) / (2 * d * (degree - 1)) if degree > 1 else math.inf)
    return min(linear, float(f"1e{math.floor(k)}"))


def transversal_ellipticity_check(model: ActionModel, *,
                                  r_max: float = R_MAX) -> TransversalityReport:
    """Membership of a (1 - sigma_hat^2) for each cutoff radius."""
    creps, dreps = [], []
    passed = True
    for radius in CUTOFF_RADII:
        b = normalized_remainder_symbol(model, radius)
        cr = condition_c_fit(b, model, (0.1, 0.01, 0.001), r_max=r_max)
        dr = restriction_decay_check(b, model, r_max=r_max)
        creps.append(cr)
        dreps.append(dr)
        passed = passed and cr.passed and dr.passed
    return TransversalityReport(cutoffs=[float(r) for r in CUTOFF_RADII],
                                condition_c=creps, decay=dreps, passed=passed)


def check_symbol(args) -> int:
    """``equichern check-symbol``: the transversality and scan verdicts of a model file.

    Exit 3 when the file cannot be read or parsed, or when a coefficient
    overflows the scan at every radius; exit 2 for an ``--xi-max`` above the
    model's cap (`largest_r_max`); otherwise writes ``symbol_report.json``
    and exits 0 when both checks pass, 1 when one fails.
    """
    from .cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, EXIT_USAGE, MAX_XI, write_report
    from .modelfile import ModelParseError, parse_model_file

    try:
        model = parse_model_file(args.model_file)
        cap = largest_r_max(model, MAX_XI)
    except (OSError, UnicodeDecodeError, ModelParseError, CoefficientOverflowError) as exc:
        print(f"{args.model_file}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.xi_max > cap:
        print(f"argument --xi-max: {args.xi_max:g} is above {cap:g}, the largest for a "
              f"symbol of degree {fiber_degree(model)} in xi with these "
              "coefficients", file=sys.stderr)
        return EXIT_USAGE

    transversal = transversal_ellipticity_check(model, r_max=args.xi_max)
    scan = ellipticity_scan(augmented_symbol(model),
                            ScanGrid(samples=args.scan_samples, seed=args.seed,
                                     threshold=args.tol))
    passed = transversal.passed and scan.passed
    payload = {"model": model.name,
               "transversal_ellipticity": transversal.to_dict(),
               "ellipticity_scan": scan.to_dict(),
               "passed": bool(passed)}
    write_report(args.out_dir / "symbol_report.json",
                 [{"kind": "symbol-check", "label": model.name, "payload": payload}])
    print(f"{model.name}: transversality "
          f"{'PASS' if transversal.passed else 'FAIL'}, ellipticity scan "
          f"{'PASS' if scan.passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL
