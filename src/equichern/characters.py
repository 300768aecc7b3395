"""Truncated formal Laurent series in t = e^{i theta} and localization arithmetic.

Implements the character-ring shadow of localization: windowed Laurent
series with Cauchy products, geometric expansion of 1/(1 - c t^m) in either
direction, the squared A-hat factor of a weight-one circle action, and the
localized-index quotient by the alternating exterior-power character of the
normal bundle.
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
    """Series arithmetic produced an empty or inconsistent window."""


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

    def __add__(self, other: "CharacterSeries") -> "CharacterSeries":
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        if lo > hi:
            raise WindowError("windows do not overlap")
        a, b = self.coefficients, other.coefficients
        return CharacterSeries({n: a.get(n, 0) + b.get(n, 0) for n in range(lo, hi + 1)},
                               (lo, hi))

    def __mul__(self, other: "CharacterSeries") -> "CharacterSeries":
        """Cauchy product over the stored supports, on the intersection window.

        Coefficients outside a factor's window are treated as absent from its
        truncation; the result carries the intersection-safe window.
        """
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        if lo > hi:
            raise WindowError("empty product window")
        out: dict[int, complex] = {}
        for n, c in self.coefficients.items():
            for m, d in other.coefficients.items():
                k = n + m
                if lo <= k <= hi:
                    out[k] = out.get(k, 0) + c * d
        return CharacterSeries(out, (lo, hi))

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


def geometric_expand(c: complex, m: int, direction: str,
                     window=DEFAULT_WINDOW) -> CharacterSeries:
    """Expansion of 1/(1 - c t^m) in the requested power direction.

    Positive direction: sum_k c^k t^{km}.  Negative direction uses
    1/(1 - c t^m) = -c^{-1} t^{-m} / (1 - c^{-1} t^{-m}).
    """
    if m == 0:
        raise ValueError("weight m must be nonzero")
    lo, hi = window
    # the terms run away from 0 in one direction; the last is the last in the window
    if direction == POSITIVE:
        last = (hi if m > 0 else -lo) // abs(m)
        out = {k * m: c**k for k in range(last + 1)}
    elif direction == NEGATIVE:
        last = (-lo if m > 0 else hi) // abs(m)
        out = {-k * m: -(1.0 / c) ** k for k in range(1, last + 1)}
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return CharacterSeries(out, window)


def ahat_squared(theta: complex) -> complex:
    """(i theta)^2 e^{i theta} / (1 - e^{i theta})^2, the squared A-hat factor.

    Raises ZeroDivisionError at a pole.
    """
    e = cmath.exp(1j * theta)
    denom = (1.0 - e) ** 2
    if abs(denom) < 1e-30:
        raise ZeroDivisionError(f"A-hat squared pole at theta={theta}")
    return (1j * theta) ** 2 * e / denom


def ahat_squared_det_form(theta: complex) -> complex:
    """The same factor via the determinant shape ((x/2)/sinh(x/2))^2 at x = i theta."""
    x = 1j * theta / 2.0
    s = cmath.sinh(x)
    if abs(s) < 1e-30:
        raise ZeroDivisionError(f"A-hat squared pole at theta={theta}")
    return (x / s) ** 2


def ahat_squared_series(window=DEFAULT_WINDOW) -> CharacterSeries:
    """e^{i theta}/(1-e^{i theta})^2 as a series: ahat_squared without (i theta)^2.

    The rational prefactor (i theta)^2 cancels against the Chern form's
    top-degree 1/(i theta)^2 during index assembly and is therefore not
    expanded.
    """
    geo = geometric_expand(1.0, 1, POSITIVE, window)
    return monomial(1, 1.0, window) * geo * geo


def localized_index(numerator: CharacterSeries, normal_weights: Iterable[int],
                    direction: str) -> CharacterSeries:
    """Numerator divided by prod_j (1 - t^{w_j}), expanded in the given direction.

    This is the quotient by the alternating sum of exterior powers of the
    normal bundle, the localization denominator at an isolated fixed set.
    Each expansion runs on the numerator's window widened by the span of the
    product so far beyond degree 0, so that its terms of negative (positive)
    degree still meet every term of the expansion that lands in the window;
    the product keeps the numerator's window.
    """
    out = numerator
    lo, hi = numerator.window
    for w in normal_weights:
        if w == 0:
            raise ValueError("normal weights must be nonzero")
        degrees = [0, *out.coefficients]
        wide = (lo - max(degrees), hi - min(degrees))
        out = out * geometric_expand(1.0, w, direction, wide)
    return out


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


def series_from_csv(text: str) -> CharacterSeries:
    reader = _csv.reader(io.StringIO(text))
    header = next(reader)
    if [h.strip() for h in header] != ["n", "re", "im"]:
        raise ValueError("expected header n, re, im")
    coeffs = {}
    ns = []
    for row in reader:
        if not row:
            continue
        n = int(row[0])
        ns.append(n)
        coeffs[n] = float(row[1]) + 1j * float(row[2])
    if not ns:
        raise ValueError("empty series file")
    return CharacterSeries(coeffs, (min(ns), max(ns)))
