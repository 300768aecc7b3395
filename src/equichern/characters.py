"""Truncated formal Laurent series in t = e^{i theta} and localization arithmetic.

Implements the character-ring shadow of localization: windowed Laurent
series, the squared A-hat factor of a weight-one circle action, and the
localized-index quotient by the alternating exterior-power character of the
normal bundle, one recurrence per normal weight over the numerator's window.
"""

from __future__ import annotations

import cmath
import io
import csv as _csv
from typing import Iterable, Mapping

DEFAULT_WINDOW = (-64, 64)
POSITIVE = "positive"
NEGATIVE = "negative"


class WindowError(ValueError):
    """A series window is empty, or a coefficient is read outside it."""


class CharacterSeries:
    """Laurent coefficients on a finite validity window [n_min, n_max]."""

    __slots__ = ("coefficients", "window")

    def __init__(self, coefficients: Mapping[int, complex],
                 window: tuple[int, int] = DEFAULT_WINDOW):
        lo, hi = window
        if lo > hi:
            raise WindowError(f"empty window {window}")
        self.coefficients = {int(n): complex(c) for n, c in coefficients.items()
                             if lo <= n <= hi and complex(c) != 0}
        self.window = window

    def __eq__(self, other):
        if not isinstance(other, CharacterSeries):
            return NotImplemented
        return (self.coefficients, self.window) == (other.coefficients, other.window)

    def coeff(self, n: int) -> complex:
        lo, hi = self.window
        if not lo <= n <= hi:
            raise WindowError(f"coefficient {n} outside window {self.window}")
        return self.coefficients.get(n, 0.0 + 0.0j)

    def truncate(self, window: tuple[int, int]) -> "CharacterSeries":
        lo = max(window[0], self.window[0])
        hi = min(window[1], self.window[1])
        return CharacterSeries({n: c for n, c in self.coefficients.items()
                                if lo <= n <= hi}, (lo, hi))

    def __repr__(self):
        terms = [f"({c})t^{n}" for n, c in sorted(self.coefficients.items())[:8]]
        more = "..." if len(self.coefficients) > 8 else ""
        return f"CharacterSeries({' + '.join(terms)}{more}, window={self.window})"


def monomial(n: int, value: complex = 1.0, window=DEFAULT_WINDOW) -> CharacterSeries:
    return CharacterSeries({n: value}, window)


def ahat_squared(theta: complex) -> complex:
    """(i theta)^2 e^{i theta} / (1 - e^{i theta})^2, the squared A-hat factor.

    Raises ZeroDivisionError at a pole.
    """
    e = cmath.exp(1j * theta)
    denom = (1.0 - e) ** 2
    if abs(denom) < 1e-30:
        raise ZeroDivisionError(f"A-hat squared pole at theta={theta}")
    return (1j * theta) ** 2 * e / denom


def localized_index(numerator: CharacterSeries, normal_weights: Iterable[int],
                    direction: str) -> CharacterSeries:
    """Numerator divided by prod_j (1 - t^{w_j}), expanded in the given direction.

    This is the quotient by the alternating sum of exterior powers of the
    normal bundle, the localization denominator at an isolated fixed set.
    Each weight w is one pass over the numerator's window, whose quotient c of
    a by 1 - t^w is c_n = c_{n-w} + a_n in the positive direction (powers of
    t^w) and c_n = c_{n+w} - a_{n+w} in the negative one (powers of t^{-w}).
    A pass runs from the far end of the window, where c starts from 0, so
    c_n sums the a_k it reads from the farthest k inward, and a numerator
    term of any degree reaches every coefficient of the window.
    """
    if direction not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown direction {direction!r}")
    lo, hi = numerator.window
    c = numerator.coefficients
    for w in normal_weights:
        if w == 0:
            raise ValueError("normal weights must be nonzero")
        a, c = c, {}
        if direction == POSITIVE:
            for n in range(lo, hi + 1) if w > 0 else range(hi, lo - 1, -1):
                c[n] = c.get(n - w, 0) + a.get(n, 0)
        else:
            for n in range(hi, lo - 1, -1) if w > 0 else range(lo, hi + 1):
                c[n] = c.get(n + w, 0) - a.get(n + w, 0)
    return CharacterSeries(c, (lo, hi))


def integrality_report(series: CharacterSeries, tol: float = 1e-9) -> dict:
    """Coefficient integrality check for series claimed to lie in R(T)_loc."""
    bad = {n: c for n, c in series.coefficients.items()
           if abs(c.real - round(c.real)) > tol or abs(c.imag) > tol}
    return {"integral": not bad, "tolerance": tol,
            "violations": {str(n): [c.real, c.imag] for n, c in sorted(bad.items())}}


def series_to_csv(series: CharacterSeries) -> str:
    """CSV emission with header n, re, im over the full window."""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "re", "im"])
    lo, hi = series.window
    for n in range(lo, hi + 1):
        c = series.coefficients.get(n, 0.0 + 0.0j)
        writer.writerow([n, repr(c.real), repr(c.imag)])
    return buf.getvalue()
