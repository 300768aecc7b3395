"""Regularized delta pairing of an oscillatory index density on the Lie algebra.

Models whose fiber integrand does not decay (the zero operator on the circle
with its tautological superconnection) have no index density to integrate
against a Gaussian body.  Their index is a distribution on the Lie algebra,
paired here against a test function: the density is read at every parameter
point from one evaluation of the model's Chern plan, damped by
exp(-eps xi^2), integrated over (X, xi) on panel Gauss-Legendre rules, and
extrapolated to eps = 0.  The fiber rate is purely imaginary and the xi rule
symmetric, so the xi integral folds onto xi > 0 as one real cosine kernel.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

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


def gaussian_test(x):
    return np.exp(-np.asarray(x) ** 2)


def shifted_gaussian_test(x):
    return np.exp(-((np.asarray(x) - 1.0) ** 2))


TEST_FUNCTIONS: dict[str, Callable] = {
    "gaussian": gaussian_test,
    "shifted-gaussian": shifted_gaussian_test,
}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, refined by one Newton step on P_n; the weights are
    2/((1 - x^2) P_n'(x)^2), symmetrized and scaled to sum 2.
    """
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4 * k * k - 1), -1))

    def legendre(x):  # P_n(x) and P_n'(x) by the three-term recurrence
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / (1 - x * x)

    p, dp = legendre(x)
    x = x - p / dp
    dp = legendre(x)[1]
    w = 2 / ((1 - x * x) * dp * dp)
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2 / w.sum())


def _panel_gauss_legendre(lo: float, hi: float, panels: int):
    """PANEL_ORDER-point Gauss-Legendre nodes and weights on equal panels of [lo, hi]."""
    x, w = gauss_legendre(PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


def _fiber_rate(exponent: Poly, idx: int) -> complex:
    """Coefficient of the fiber coordinate in an exponent linear in it."""
    rate = 0.0 + 0.0j
    for m, c in exponent.terms.items():
        if sum(m) == 1 and m[idx] == 1:
            rate = c
        elif any(m):
            raise UnsupportedShapeError("exponent is not linear in the fiber coordinate")
    return rate


def _oscillatory_density(model: ActionModel, plan: ChernPlan, xs: np.ndarray):
    """Constant top coefficient and linear-exponent rate at every parameter x."""
    tops = [oriented_volume_coefficient(model, f) for f in plan.forms]
    if not all(t.is_constant for t in tops):
        raise UnsupportedShapeError("delta pairing expects a constant top coefficient")
    if model.fiber is None or model.fiber.kind == COMPLEX:
        raise UnsupportedShapeError("delta pairing expects one real fiber coordinate")
    idx = model.algebra.coord_index[model.fiber.name]
    rate0, rate1 = (_fiber_rate(e, idx) for e in plan.shared)
    rates = rate0 + xs * rate1
    # delta_pairing folds the xi rule onto xi > 0, which is exact only for Re r = 0
    if np.any(rates.real != 0):
        raise UnsupportedShapeError("fiber exponent must be purely oscillatory")
    points = xs.tolist()
    top_values = np.array(plan.contract([t.constant_value() for t in tops], points))
    return top_values / np.array([w_character(model, x) for x in points]), rates


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


def delta_pairing(model: ActionModel, test_fn: Callable,
                  eps_list: Sequence[float]) -> DeltaReport:
    """Pair the oscillatory index density against a test function on the Lie algebra.

    For each eps computes the double integral of the model's density times
    exp(-eps xi^2) times test(X) over (X, xi), normalized so the exact limit
    is test(0); reports per-eps values and their Richardson extrapolation.
    The fiber factor e^{r(X) xi} has a purely imaginary rate, so the odd part
    of the xi integrand integrates to zero on the symmetric xi rule: the xi
    integral is one real matrix-vector product per eps, of the kernel
    cos(Im r(X) xi) on the rule's positive half with doubled weights.  The X
    rule stays full, as test functions need not be even.
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
    qw = 2 * qw

    tops, rates = _oscillatory_density(model, chern_plan(model), xn)
    angle_volume = 1.0
    for c in model.coordinates_meta:
        if c.kind == "angle":
            angle_volume *= 2 * math.pi
    test_vals = np.asarray(test_fn(xn), dtype=complex)
    # e^{r q} + e^{-r q} = 2 cos(Im r q) for the purely imaginary rate r
    kernel = np.cos(np.outer(rates.imag, qn))  # (X, xi > 0)

    values = []
    for e in eps:
        inner = kernel @ (qw * np.exp(-e * qn**2))
        total = np.dot(xw, test_vals * tops * inner)
        norm = angle_volume / (2j * math.pi) / (2 * math.pi)
        values.append(complex(total * norm))
    extrap = richardson_extrapolate(eps, values)
    return DeltaReport(eps=eps, values=values, extrapolated=extrap,
                       test_at_zero=complex(np.asarray(test_fn(np.zeros(1)))[0]),
                       angle_volume=angle_volume)
