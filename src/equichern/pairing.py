"""Regularized delta pairing of an oscillatory index density on the Lie algebra.

Models whose fiber integrand does not decay (the zero operator on the circle
with its tautological superconnection) have no index density to integrate
against a Gaussian body.  Their index is a distribution on the Lie algebra,
paired here against a test function: the density is read at every parameter
point from one evaluation of the model's Chern plan, damped by
exp(-eps xi^2), integrated over (X, xi) on panel Gauss-Legendre rules, and
extrapolated to eps = 0.  The fiber rate is purely imaginary and the xi rule
symmetric, so the xi integral folds onto xi > 0 as one real cosine kernel.
The kernel is plain Python (`math`, lists): the module loads no numpy.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .equivariant import ChernPlan, chern_plan, w_character
from .exterior import Poly
from .geometry import COMPLEX, ActionModel, oriented_volume_coefficient
from .supermatrix import UnsupportedShapeError

# Panel Gauss-Legendre grid of the delta pairing over (X, xi): half-widths,
# panel counts and the nodes per panel.  The xi rule is symmetric with a panel
# edge at 0 (XI_PANELS is even); the pairing integrates over its positive half.
X_HALFWIDTH, XI_HALFWIDTH = 12.0, 14.0
X_PANELS, XI_PANELS = 48, 32
PANEL_ORDER = 16


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


def _panel_gauss_legendre(lo: float, hi: float, panels: int):
    """PANEL_ORDER-point Gauss-Legendre nodes and weights on equal panels of [lo, hi]."""
    x, w = gauss_legendre(PANEL_ORDER)
    step = (hi - lo) / panels
    nodes, weights = [], []
    for k in range(panels):
        a, b = lo + k * step, lo + (k + 1) * step
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        nodes += [half * t + mid for t in x]
        weights += [half * t for t in w]
    return nodes, weights


def _fiber_rate(exponent: Poly, idx: int) -> complex:
    """Coefficient of the fiber coordinate in an exponent linear in it."""
    rate = 0.0 + 0.0j
    for m, c in exponent.terms.items():
        if sum(m) == 1 and m[idx] == 1:
            rate = c
        elif any(m):
            raise UnsupportedShapeError("exponent is not linear in the fiber coordinate")
    return rate


def _oscillatory_density(model: ActionModel, plan: ChernPlan, xs: list[float]):
    """Constant top coefficient and linear-exponent rate at every parameter x."""
    tops = [oriented_volume_coefficient(model, f) for f in plan.forms]
    if not all(t.is_constant for t in tops):
        raise UnsupportedShapeError("delta pairing expects a constant top coefficient")
    if model.fiber is None or model.fiber.kind == COMPLEX:
        raise UnsupportedShapeError("delta pairing expects one real fiber coordinate")
    idx = model.algebra.coord_index[model.fiber.name]
    rate0, rate1 = (_fiber_rate(e, idx) for e in plan.shared)
    rates = [rate0 + x * rate1 for x in xs]
    # delta_pairing folds the xi rule onto xi > 0, which is exact only for Re r = 0
    if any(r.real != 0 for r in rates):
        raise UnsupportedShapeError("fiber exponent must be purely oscillatory")
    top_values = plan.contract([t.constant_value() for t in tops], xs)
    return [t / w_character(model, x) for t, x in zip(top_values, xs)], rates


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
    """Neville polynomial extrapolation of values(eps) to eps = 0."""
    xs = list(map(float, eps))
    t = list(map(complex, values))
    n = len(t)
    for level in range(1, n):
        for i in range(n - level):
            t[i] = (xs[i] * t[i + 1] - xs[i + level] * t[i]) / (xs[i] - xs[i + level])
    return t[0]


def delta_pairing(model: ActionModel, test_fn: Callable[[float], complex],
                  eps_list: Sequence[float]) -> DeltaReport:
    """Pair the oscillatory index density against a test function on the Lie algebra.

    For each eps computes the double integral of the model's density times
    exp(-eps xi^2) times test(X) over (X, xi), normalized so the exact limit
    is test(0); reports per-eps values and their Richardson extrapolation.
    ``test_fn`` takes one float X and is called once per X node.  The fiber
    factor e^{r(X) xi} has a purely imaginary rate, so the odd part of the xi
    integrand integrates to zero on the symmetric xi rule: the xi integral
    runs over the rule's positive half with doubled weights, against the real
    kernel cos(Im r(X) xi).  The X rule stays full, as test functions need
    not be even.  The kernel is summed over X once, to
    g(xi) = sum_X w_X test(X) top(X) cos(Im r(X) xi), and each eps value is
    then one sum over xi of w_xi e^{-eps xi^2} g(xi).
    """
    eps = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps):
        raise ValueError("regularization eps values must be positive")
    if not eps:
        raise ValueError("no regularization eps values")
    # the Richardson extrapolation divides by their differences
    if len(set(eps)) != len(eps):
        raise ValueError("regularization eps values must be distinct")
    xn, xw = _panel_gauss_legendre(-X_HALFWIDTH, X_HALFWIDTH, X_PANELS)
    # the positive half of the symmetric xi rule, weights doubled
    qn, qw = _panel_gauss_legendre(0.0, XI_HALFWIDTH, XI_PANELS // 2)
    qw = [2 * w for w in qw]

    tops, rates = _oscillatory_density(model, chern_plan(model), xn)
    angle_volume = 1.0
    for c in model.coordinates_meta:
        if c.kind == "angle":
            angle_volume *= 2 * math.pi
    weighted = [w * test_fn(x) * t for w, x, t in zip(xw, xn, tops)]
    freqs = [r.imag for r in rates]
    # e^{r q} + e^{-r q} = 2 cos(Im r q) for the purely imaginary rate r
    g = [sum(map(mul, weighted, map(math.cos, map(mul, freqs, repeat(q))))) for q in qn]

    norm = angle_volume / (2j * math.pi) / (2 * math.pi)
    values = []
    for e in eps:
        terms = [w * math.exp(-e * q * q) * v for w, q, v in zip(qw, qn, g)]
        total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        values.append(total * norm)
    extrap = richardson_extrapolate(eps, values)
    return DeltaReport(eps=eps, values=values, extrapolated=extrap,
                       test_at_zero=complex(test_fn(0.0)), angle_volume=angle_volume)
