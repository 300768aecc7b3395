"""Numeric membership checks for the algebra of transversally-negative-order symbols.

A symbol function is admitted when, for every eps, a constant c_eps bounds
|b(x, xi)| by c_eps (1 + |phi_x(xi)|^2)/(1 + |xi|^2) + eps on sampled grids
and the constant stabilizes as the xi-radius grows, and when its restriction
to the transverse covector variety decays at infinity.  Transversal
ellipticity of a symbol sigma is the membership of a (1 - sigma_hat^2) for
compactly supported cutoffs a, with sigma_hat the order-zero normalization
sigma / sqrt(1 + |x|^2 + |xi|^2).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exterior import CompiledPolys
from .geometry import (
    ANGLE,
    COMPLEX,
    ActionModel,
    _fiber,
    infinitesimal_generator,
    orbital_projection,
)
from .scan import _entry_polys, _singular_stats, fill_batches, parity_blocks
from .supermatrix import EVEN

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
SUPPORT_RADIUS = 1.5        # x-support of the saturating and constant-in-xi symbols


class SymbolFunction(NamedTuple):
    """A bounded scalar symbol sampled through a vectorized evaluator.

    The evaluator maps base values x and fiber covectors xi (complex arrays,
    broadcastable) to complex values; the magnitude is their modulus,
    pointwise.
    """

    evaluator: Callable
    x_support_radius: float

    def magnitude(self, x, xi) -> np.ndarray:
        return np.abs(self.evaluator(x, xi))


def _base_points(model: ActionModel, b: SymbolFunction) -> np.ndarray:
    """Sample the base within the symbol's x-support."""
    if model.base.kind == COMPLEX:
        n_r = max(2, int(round(math.sqrt(N_X))))
        n_a = max(1, N_X // n_r)
        radii = np.linspace(0.0, b.x_support_radius, n_r)
        angles = np.linspace(0.0, 2 * math.pi, n_a, endpoint=False)
        return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return np.linspace(0.0, 2 * math.pi, N_X, endpoint=False).astype(complex)


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
    base, fiber = model.base, _fiber(model)
    if base.kind == COMPLEX:
        if abs(rho) < 1e-14:
            return np.exp(1j * np.linspace(0, 2 * math.pi, 8, endpoint=False))
        # xi with Re(xi conj(rho)) = 0: the real line through i*rho
        d = 1j * rho / abs(rho)
        return np.array([d, -d])
    if base.kind == ANGLE and base.weight != 0 and fiber.kind != COMPLEX:
        return np.empty(0, dtype=complex)  # orbit fills the fiber pairing: only xi = 0
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

    The symbol's entries are compiled once.  As sigma is odd, sigma_hat^2 is
    even: each entry of it sums only the structurally non-zero products
    sigma_ij sigma_jk, and the operator norm comes from the two diagonal
    grading blocks (`scan._singular_stats`).  The evaluator flattens its
    broadcast ``(x, xi)`` and reduces them to operator norms in slices of at
    most ``scan.BATCH_POINTS`` points (`scan.fill_batches`).
    """
    base, fiber = model.base.name, _fiber(model).name
    polys = _entry_polys(model.symbol)
    table = CompiledPolys(model.algebra, polys)
    parities = model.symbol.grading.parities
    blocks = parity_blocks(parities, EVEN)
    d = len(parities)
    # the j of the non-zero products sigma_ij sigma_jk, per entry of the even blocks
    products = {(i, k): [j for j in range(d)
                         if polys[i, j] is not None and polys[j, k] is not None]
                for i in range(d) for k in range(d) if parities[i] == parities[k]}

    def sigma_max(x, xi):
        arrays = model.full_point({base: x, fiber: xi})
        scale = np.sqrt(1.0 + np.abs(x) ** 2 + np.abs(xi) ** 2)
        sig = table.entries(arrays) / scale
        rem = np.zeros(sig.shape, dtype=complex)
        # 1 - sigma_hat^2 cancels about 2 log10|xi| digits at large |xi|, so
        # each rounding shows: einsum forms the products unfused, as the full
        # (d, d) einsum does, where the multiply ufunc's vector loop may fuse
        for (i, k), js in products.items():
            rem[i, k] = float(i == k) - sum(
                np.einsum("...,...->...", sig[i, j], sig[j, k]) for j in js)
        return _singular_stats(rem, blocks)[1]

    def evaluator(x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, dtype=complex),
                                    np.asarray(xi, dtype=complex))
        shape = x.shape
        x, xi = x.ravel(), xi.ravel()
        out = np.empty(x.size)
        fill_batches(out, lambda s: sigma_max(x[s], xi[s]), 1)
        return (bump(x, cutoff_radius) * out).reshape(shape)

    return SymbolFunction(evaluator=evaluator, x_support_radius=cutoff_radius)


def saturating_symbol(model: ActionModel, amplitude: float = 3.0) -> SymbolFunction:
    """f(x) (1 + |phi|^2)/(1 + |xi|^2): saturates the membership bound by design."""
    _fiber(model)

    def evaluator(x, xi):
        return amplitude * bump(x, SUPPORT_RADIUS) * _bound_core(model, x, xi)

    return SymbolFunction(evaluator=evaluator, x_support_radius=SUPPORT_RADIUS)


def constant_in_xi_symbol(model: ActionModel) -> SymbolFunction:
    """f(x), constant in xi: the negative control failing transverse decay."""
    def evaluator(x, xi):
        return bump(x, SUPPORT_RADIUS) * np.ones_like(np.abs(xi))

    return SymbolFunction(evaluator=evaluator, x_support_radius=SUPPORT_RADIUS)


def _entry_terms(model: ActionModel):
    """(monomial, coefficient) of every term of the symbol's entries."""
    return [(m, c) for row in model.symbol.entries for f in row
            for poly in f.terms.values() for m, c in poly.terms.items()]


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

    For a symbol of degree D <= 1 in xi, sigma_hat stays bounded and the cap
    is ``linear``.  For D > 1 the remainder a (1 - sigma_hat^2) grows like
    |xi|^(2(D-1)), so the |det| of its d x d values (`scan._singular_stats`)
    grows like |xi|^(2d(D-1)), the fastest of the values the checks form.
    The coefficients scale that |det| too: a term c x^b xi^k with k >= 1 is
    at most |c| rho^b |xi|^k on the base sample (|x| <= rho, the largest
    cutoff radius on a complex base, 2 pi on an angle), so with C the largest
    |c| rho^b (or 1, if larger) the cap is 1e<k> for the largest integer k
    with 2d(D-1) k <= R_MAX_DIGITS - 2d log10 C.  Terms free of xi fall off
    with the normalization 1/|xi| and do not count.
    """
    degree = fiber_degree(model)
    if degree <= 1:
        return linear
    fiber, base = _fiber(model).name, model.base
    rho = max(CUTOFF_RADII) if base.kind == COMPLEX else 2 * math.pi
    size = max([1.0] + [abs(c) * rho ** _degree(model, base.name, m)
                        for m, c in _entry_terms(model) if _degree(model, fiber, m)])
    d = model.symbol.dim
    digits = R_MAX_DIGITS - 2 * d * math.log10(size)
    return min(linear, float(f"1e{math.floor(digits / (2 * d * (degree - 1)))}"))


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
