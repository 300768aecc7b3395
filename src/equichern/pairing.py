"""Regularized delta pairing of an oscillatory index density on the Lie algebra.

Models whose fiber integrand does not decay (the zero operator on the circle
with its tautological superconnection) have no index density to integrate
against a Gaussian body.  Their index is a distribution on the Lie algebra,
paired here against a test function: the density is read from the model's
Chern plan, damped by exp(-eps xi^2), integrated over (X, xi), and
extrapolated to eps = 0.  The fiber rate r(X) is purely imaginary and affine
in X, so the xi integral is exactly sqrt(pi/eps) exp(-(Im r(X))^2/(4 eps)),
the heat-kernel regularization of delta(Im r); substituting
u = Im r(X)/(2 sqrt(eps)) leaves one Gaussian-weighted integral in u per eps,
taken on a panel Gauss-Legendre rule.  The module also holds the zero
operator's model (`zero_op_s1`) and the ``run-example zero-op`` command
(`run_zero_op`), so that no other command compiles them.  It is plain
Python (`math`, `cmath`, lists): it loads no numpy.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Sequence

from .equivariant import ChernPlan, chern_plan, w_character
from .exterior import Poly
from .geometry import (
    ANGLE,
    COMPLEX,
    REAL,
    ActionModel,
    BundleSpec,
    Coordinate,
    oriented_volume_coefficient,
)
from .supermatrix import SuperMatrix, UnsupportedShapeError

# Panel Gauss-Legendre rule of the delta pairing in u = Im r(X)/(2 sqrt(eps)):
# |u| <= U_HALFWIDTH, where exp(-u^2) has fallen below 5e-22, clipped to the
# image of |X| <= X_HALFWIDTH; the panel count and the nodes per panel.
X_HALFWIDTH, U_HALFWIDTH = 12.0, 7.0
U_PANELS, PANEL_ORDER = 8, 16


def zero_op_s1() -> ActionModel:
    """The zero operator on the circle with its tautological-1-form superconnection."""
    coords = (Coordinate("theta", ANGLE, 1, "base"),
              Coordinate("xi", REAL, 0, "fiber"))
    e = BundleSpec((0,), (0,))
    w = BundleSpec((0,), (0,))
    model = ActionModel("zero-op", coords, e, w, volume=("dxi", "dtheta"))
    alg = model.algebra
    zero = alg.zero()
    model.set_symbol([[zero]])
    liouville = alg.scalar(alg.coord("xi")) * alg.gen("dtheta")
    model.set_odd_term(SuperMatrix(alg, model.bundle_script_e.grading(),
                                   [[liouville]]).scale(1j))
    return model


def gaussian_test(x: float) -> float:
    return math.exp(-x * x)


def shifted_gaussian_test(x: float) -> float:
    return math.exp(-(x - 1.0) * (x - 1.0))


TEST_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "gaussian": gaussian_test,
    "shifted-gaussian": shifted_gaussian_test,
}


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / (1 - x * x)


def gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.

    Each node is Newton's iteration on P_n from cos(pi (i + 3/4) / (n + 1/2)),
    run until the step stops shrinking; the weights are 2/((1 - x^2) P_n'(x)^2),
    symmetrized and scaled to sum 2.
    """
    x = []
    for i in reversed(range(n)):
        xi, step = math.cos(math.pi * (i + 0.75) / (n + 0.5)), math.inf
        while True:
            p, dp = _legendre(n, xi)
            dx = p / dp
            if not abs(dx) < step:
                break
            xi, step = xi - dx, abs(dx)
        x.append(xi)
    w = [2 / ((1 - t * t) * _legendre(n, t)[1] ** 2) for t in x]
    w = [(a + b) / 2 for a, b in zip(w, reversed(w))]
    scale = 2 / math.fsum(w)
    return [(a - b) / 2 for a, b in zip(x, reversed(x))], [scale * a for a in w]


# built once: the pairing places one panel rule per eps
_PANEL_RULE = gauss_legendre(PANEL_ORDER)


def _panel_gauss_legendre(lo: float, hi: float, panels: int):
    """PANEL_ORDER-point Gauss-Legendre nodes and weights on equal panels of [lo, hi]."""
    x, w = _PANEL_RULE
    half = (hi - lo) / (2 * panels)
    mids = [lo + (2 * k + 1) * half for k in range(panels)]
    return [half * t + m for m in mids for t in x], [half * t for _ in mids for t in w]


def _fiber_rate(exponent: Poly, idx: int) -> complex:
    """Coefficient of the fiber coordinate in an exponent linear in it."""
    rate = 0.0 + 0.0j
    for m, c in exponent.terms.items():
        if sum(m) == 1 and m[idx] == 1:
            rate = c
        elif any(m):
            raise UnsupportedShapeError("exponent is not linear in the fiber coordinate")
    return rate


def _oscillatory_density(model: ActionModel, plan: ChernPlan):
    """Constant top coefficients of the plan's forms, and Im r0, Im r1 of the rate r0 + X r1."""
    tops = [oriented_volume_coefficient(model, f) for f in plan.forms]
    if not all(t.is_constant for t in tops):
        raise UnsupportedShapeError("delta pairing expects a constant top coefficient")
    if model.fiber is None or model.fiber.kind == COMPLEX:
        raise UnsupportedShapeError("delta pairing expects one real fiber coordinate")
    idx = model.algebra.coord_index[model.fiber.name]
    rate0, rate1 = (_fiber_rate(e, idx) for e in plan.shared)
    # the xi integral is a Gaussian in Im r only for Re r = 0
    if rate0.real != 0 or rate1.real != 0:
        raise UnsupportedShapeError("fiber exponent must be purely oscillatory")
    # the substitution u = Im r(X)/(2 sqrt(eps)) divides by Im r1
    if rate1.imag == 0:
        raise UnsupportedShapeError("fiber rate does not depend on the parameter X")
    return [t.constant_value() for t in tops], (rate0.imag, rate1.imag)


class DeltaReport(NamedTuple):
    """Pairing values per regularization epsilon and their extrapolation."""

    eps: list[float]
    values: list[complex]
    extrapolated: complex
    test_at_zero: complex
    angle_volume: float

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "values": [[v.real, v.imag] for v in self.values],
            "extrapolated": [self.extrapolated.real, self.extrapolated.imag],
            "test_at_zero": [self.test_at_zero.real, self.test_at_zero.imag],
            "angle_volume": self.angle_volume,
            "interpretation": "distributional pairing against the test function; "
                              "reports convergence to test(0) as eps -> 0",
        }


def richardson_extrapolate(eps: Sequence[float], values: Sequence[complex]) -> complex:
    """Neville polynomial extrapolation of values(eps) to eps = 0.

    Each step is (x_i t_{i+1} - x_j t_i)/(x_i - x_j).  Where finite values
    give a result that is not finite (a product x t past the float range, as
    eps near 1e300 against values near 1e308 make), the steps run again in
    their difference form t_{i+1} + (t_{i+1} - t_i) x_j/(x_i - x_j), whose
    terms stay near the values; a result out of range there raises
    OverflowError.
    """
    xs = list(map(float, eps))
    for step in (lambda a, b, x, y: (x * b - y * a) / (x - y),
                 lambda a, b, x, y: b + (b - a) * (y / (x - y))):
        t = list(map(complex, values))
        for level in range(1, len(t)):
            for i in range(len(t) - level):
                t[i] = step(t[i], t[i + 1], xs[i], xs[i + level])
        if cmath.isfinite(t[0]) or not all(map(cmath.isfinite, values)):
            return t[0]
    raise OverflowError("Richardson extrapolation out of range")


def delta_pairing(model: ActionModel, test_fn: Callable[[float], complex],
                  eps_list: Sequence[float]) -> DeltaReport:
    """Pair the oscillatory index density against a test function on the Lie algebra.

    For each eps computes the double integral of the model's density times
    exp(-eps xi^2) times test(X) over (X, xi), normalized so the exact limit
    is test(0); reports per-eps values and their Richardson extrapolation.
    The fiber factor e^{r(X) xi} has the purely imaginary rate
    r(X) = i (a0 + a1 X), so the xi integral is sqrt(pi/eps) e^{-a^2/(4 eps)}
    with a = a0 + a1 X.  Substituting u = a/(2 sqrt(eps)), each eps value is
    (2 sqrt(pi)/|a1|) times the integral of F(X(u)) e^{-u^2} over u, with F
    the test function times the density; that integral runs on the panel
    Gauss-Legendre rule over |u| <= U_HALFWIDTH, clipped to the image of
    |X| <= X_HALFWIDTH, and the constant multiplies its `math.fsum`.  The
    density at X is the plan's contraction of the constant top coefficients
    over the W character.  ``test_fn`` takes one float X and is called once
    per node.
    """
    eps = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps):
        raise ValueError("regularization eps values must be positive")
    if not eps:
        raise ValueError("no regularization eps values")
    # the Richardson extrapolation divides by their differences
    if len(set(eps)) != len(eps):
        raise ValueError("regularization eps values must be distinct")
    plan = chern_plan(model)
    tops, (a0, a1) = _oscillatory_density(model, plan)
    angle_volume = 1.0
    for c in model.coordinates_meta:
        if c.kind == ANGLE:
            angle_volume *= 2 * math.pi
    norm = angle_volume / (2j * math.pi) / (2 * math.pi) * (2 * math.sqrt(math.pi) / abs(a1))
    reach = X_HALFWIDTH * abs(a1)
    values = []
    for e in eps:
        scale = 2 * math.sqrt(e)
        lo = max(-U_HALFWIDTH, (a0 - reach) / scale)
        hi = max(lo, min(U_HALFWIDTH, (a0 + reach) / scale))
        un, uw = _panel_gauss_legendre(lo, hi, U_PANELS)
        xs = [(scale * u - a0) / a1 for u in un]
        terms = [w * math.exp(-u * u) * test_fn(x) * t / w_character(model, x)
                 for w, u, x, t in zip(uw, un, xs, plan.contract(tops, xs))]
        total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        values.append(total * norm)
    extrap = richardson_extrapolate(eps, values)
    return DeltaReport(eps=eps, values=values, extrapolated=extrap,
                       test_at_zero=complex(test_fn(0.0)), angle_volume=angle_volume)


def run_zero_op(args) -> int:
    """``equichern run-example zero-op``: the pairing of `zero_op_s1` against a test function.

    Writes ``delta_report.json`` and exits 0 when the extrapolation is
    within ``--tol`` of test(0), 1 otherwise.
    """
    from .cli import EXIT_FAIL, EXIT_PASS, write_report

    report = delta_pairing(zero_op_s1(), TEST_FUNCTIONS[args.test], args.eps)
    err = abs(report.extrapolated - report.test_at_zero)
    passed = err < args.tol
    payload = report.to_dict()
    payload["golden"] = {"extrapolation_error": err, "tolerance": args.tol,
                         "passed": bool(passed)}
    write_report(args.out_dir / "delta_report.json",
                 [{"kind": "delta-pairing", "label": "zero-op", "payload": payload}])
    for e, v in zip(report.eps, report.values):
        print(f"  eps={e:<8g} paired value = {v.real:+.8f}{v.imag:+.2e}j")
    print(f"zero-op: extrapolated {report.extrapolated.real:.8f} vs "
          f"test(0) = {report.test_at_zero.real:.8f}, error {err:.3e} "
          f"(tol {args.tol:g}): {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL
