"""Fiberwise integration of Chern-form top components and index assembly.

Integration extracts the coefficient of the oriented volume (Berezin rule)
from the squared-A-hat times the transverse Chern form.  That coefficient is
a polynomial times the Gaussian body exp(-sum_p s_p z_p zbar_p), so each
monomial integrates in closed form by the Isserlis/Wick moment
int z^a zbar^b e^{-s|z|^2} d^2z = delta_ab pi a!/s^{a+1}.  The volume
orientation is symplectic: for p complex coordinate pairs it differs from
the literal conjugate-first wedge word by (-1)^{p(p-1)/2}, the single global
sign pinned by the golden index value.  Each top coefficient of the
model's Chern plan is integrated once.  Index characters read the W-cleared
numerator N = A-hat^2 plan.contract(moments)/pi^p, the index density times
the W character, directly on one small real grid: it is a Laurent polynomial
in q = e^{i theta}, read off by one direct DFT.  The index values are N over
the W character on the value grid, and the Fourier coefficients are N/ch_W
expanded in positive powers of q.  The theta side is plain Python (cmath and
lists, no numpy): the grids hold 16 fit points and at most a few thousand
values.  Oscillatory non-decaying
models are rejected with a divergence error and handled by the regularized
delta pairing of `equichern.pairing`.  The ``run-example c-plane`` command
runs here (`run_c_plane`), beside the index character it reports, so that no
other command compiles it.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from . import characters
from .augmentation import c_plane_uv
from .characters import CharacterSeries
from .equivariant import ChernPlan, chern_plan, w_character
from .exterior import Poly
from .geometry import ActionModel, orientation_sign, oriented_volume_coefficient
from .supermatrix import UnsupportedShapeError


# The index numerator is fitted from NUMERATOR_SAMPLES real-grid points as a
# Laurent polynomial of degree at most NUMERATOR_DEGREE; the fitted terms
# above that degree may be at most ALIAS_TOL times the largest term.
NUMERATOR_SAMPLES = 16
NUMERATOR_DEGREE = 4
ALIAS_TOL = 1e-10


class DivergenceError(ValueError):
    """Integrand lacks Gaussian decay; use delta_pairing for oscillatory models."""


class AliasError(ValueError):
    """The W-cleared index density is not a Laurent polynomial of the fitted degree."""


def gaussian_integral(model: ActionModel, poly: Poly, exponent: Poly) -> complex:
    """Exact integral of poly * e^exponent over the complex pairs (d^2z each).

    The exponent must be exactly -sum s_p z_p zbar_p with every s_p > 0; each
    monomial of poly then integrates by the Gaussian moment
    delta_ab pi a!/s^{a+1} per pair.
    """
    idx = model.algebra.coord_index
    pairs = [(idx[a], idx[b]) for a, b in model.algebra.conjugates.items()]
    if not pairs:
        raise DivergenceError(
            "no complex coordinate pairs carry Gaussian decay; use delta_pairing")
    # the decay rate s_p of each pair, read off its monomial z_p zbar_p
    expected = {tuple(int(k in ij) for k in range(len(idx))): p for p, ij in enumerate(pairs)}
    scales = [0.0] * len(pairs)
    for m, c in exponent.terms.items():
        if m not in expected:
            raise DivergenceError(
                f"body exponent has a non-Gaussian monomial (coefficient {c}); "
                "use delta_pairing for oscillatory integrands")
        a = -c
        if a.real <= 0 or abs(a.imag) > 1e-10 * abs(a):
            raise DivergenceError(
                f"body exponent is not negative definite (rate {a}); "
                "use delta_pairing for oscillatory integrands")
        scales[expected[m]] = a.real
    if any(s == 0.0 for s in scales):
        raise DivergenceError("body exponent misses Gaussian decay in some pair")
    paired = {i for pair in pairs for i in pair}
    total = 0.0 + 0.0j
    for m, c in poly.terms.items():
        if any(e and i not in paired for i, e in enumerate(m)):
            raise DivergenceError(
                f"integrand monomial {m} grows in a coordinate without Gaussian "
                "decay; use delta_pairing")
        for (i, j), s in zip(pairs, scales):
            if m[i] != m[j]:
                break
            c *= math.pi * math.factorial(m[i]) / s ** (m[i] + 1)
        else:
            total += c
    return total


def _index_numerator(model: ActionModel, plan: ChernPlan, thetas) -> list[complex]:
    """W-cleared index density N = density ch_W at every theta from one plan evaluation.

    The top coefficient of each plan form is integrated once against the
    Gaussian body by exact moments, and the plan contracts the moments
    against its weights; per theta only the weights and the A-hat factor
    change.  The circle acts through the base weight m, so the
    A-hat factor is taken at m theta.  The body must not depend on theta: a
    theta-dependent exponent is an oscillatory fiber.
    """
    if not plan.shared[1].is_zero:
        raise DivergenceError("body exponent depends on theta (an oscillatory "
                              "fiber); use delta_pairing")
    moments = [gaussian_integral(model, oriented_volume_coefficient(model, f),
                                 plan.shared[0]) for f in plan.forms]
    # dzbar^dz = 2i d^2z, so each pair contributes (2i)/(2 pi i) = 1/pi
    norm = math.pi ** len(model.algebra.conjugates)
    return [characters.ahat_squared(model.base.weight * t) * total / norm
            for t, total in zip(thetas, plan.contract(moments, thetas))]


def integrate_top_form(model: ActionModel, theta: complex) -> complex:
    """Index density at theta: oriented-volume Gaussian integral over TM.

    Takes A-hat squared times the transverse Chern form, extracts the top
    coefficient against the oriented volume, integrates it against the
    Gaussian body by exact moments, and applies the 1/(2 pi i) per complex
    pair normalization: the W-cleared numerator of the model's Chern plan at
    one theta, divided by the W character there.
    """
    numerator, = _index_numerator(model, chern_plan(model), [theta])
    return numerator / w_character(model, theta)


def fit_fourier(thetas: Sequence[complex], values: Sequence[complex],
                window: int) -> CharacterSeries:
    """Fourier coefficients on [-window, window] of samples on a uniform contour.

    The thetas must be x0 + 2 pi j/N + i eta for j = 0..N-1 with
    N >= 2 window + 1; the coefficients are then the direct DFT of the values,
    c_n = sum_j v_j e^{-2 pi i n j/N} / N e^{-i n theta_0}, which is also the
    least-squares fit on that window (its columns are orthogonal on the
    contour).  The factor e^{-i n theta_0} undoes the shift and the damping
    of the contour.
    """
    th = [complex(t) for t in thetas]
    n_samples = len(th)
    if n_samples < 2 * window + 1:
        raise ValueError(f"{n_samples} samples cannot resolve window {window}")
    if any(abs(t - th[0] - 2 * math.pi * j / n_samples) > 1e-9 for j, t in enumerate(th)):
        raise ValueError("Fourier samples must be uniform on a contour "
                         "x0 + 2 pi j/N + i eta")
    roots = [cmath.exp(-2j * math.pi * k / n_samples) for k in range(n_samples)]
    return CharacterSeries(
        {n: sum(v * roots[n * j % n_samples] for j, v in enumerate(values))
         / n_samples * cmath.exp(-1j * n * th[0]) for n in range(-window, window + 1)},
        (-window, window))


class IndexReport(NamedTuple):
    """Sampled index values, Fourier coefficients and pipeline diagnostics."""

    theta_samples: list[complex]
    values: list[complex]
    fourier: CharacterSeries
    diagnostics: dict

    def to_dict(self) -> dict:
        lo, hi = self.fourier.window
        return {
            "theta_samples": [[t.real, t.imag] for t in self.theta_samples],
            "values": [[v.real, v.imag] for v in self.values],
            "fourier": {
                "window": list(self.fourier.window),
                "coefficients": {
                    str(n): [c.real, c.imag]
                    for n in range(lo, hi + 1) for c in [self.fourier.coeff(n)]
                },
            },
            "diagnostics": self.diagnostics,
        }


def index_character(model: ActionModel, theta_samples: int = 32,
                    fourier_window: int = 16) -> IndexReport:
    """Index values on a uniform pole-avoiding theta grid and their Fourier series.

    The index density times the W character, N = density ch_W, is a Laurent
    polynomial in q = e^{i theta}.  N is read directly from the Chern plan and
    fitted once from NUMERATOR_SAMPLES points of the real grid
    2 pi (j + 1/2)/N - pi, symmetric about theta = 0, where the plan's
    divided differences keep the most digits; its terms of degree at most
    NUMERATOR_DEGREE are kept, and the fitted terms beyond that degree bound the aliasing error
    (AliasError when they are not negligible).  The values on the grid
    2 pi (j + 1/2)/K are N over w_character there (PoleGuardError near a
    pole), and the Fourier coefficients are the expansion of N/ch_W in
    positive powers of q (the regularization Im theta > 0), exact for every
    window.
    """
    if theta_samples < 2:
        raise ValueError("need at least two theta samples")
    w = model.bundle_w
    if w is None or sorted(w.parities) != [0, 1]:
        raise UnsupportedShapeError("the index character needs a W bundle with one "
                                    "even and one odd summand")
    # ch_W = q^a - q^b = q^a (1 - q^m) for the even weight a and the odd weight b
    a, b = w.weights if w.parities[0] == 0 else w.weights[::-1]
    m = b - a
    grid = [2 * math.pi * (j + 0.5) / NUMERATOR_SAMPLES - math.pi
            for j in range(NUMERATOR_SAMPLES)]
    fit = fit_fourier(grid, _index_numerator(model, chern_plan(model), grid),
                      (NUMERATOR_SAMPLES - 1) // 2)
    degrees = range(-NUMERATOR_DEGREE, NUMERATOR_DEGREE + 1)
    alias = max((abs(c) for n, c in fit.coefficients.items() if n not in degrees),
                default=0.0)
    if alias > ALIAS_TOL * max((abs(c) for c in fit.coefficients.values()), default=0.0):
        raise AliasError(f"the W-cleared index density has terms of degree above "
                         f"{NUMERATOR_DEGREE} (largest {alias:.3e})")

    thetas = [2 * math.pi * (j + 0.5) / theta_samples for j in range(theta_samples)]
    values = [sum(fit.coeff(n) * cmath.exp(1j * n * t) for n in degrees)
              / w_character(model, t) for t in thetas]
    # q^{-a} N on a window that holds all of it below the output window
    shifted = CharacterSeries({n - a: fit.coeff(n) for n in degrees},
                              (min(-fourier_window, -NUMERATOR_DEGREE - a), fourier_window))
    fourier = characters.localized_index(
        shifted, [m], characters.POSITIVE if m > 0 else characters.NEGATIVE
    ).truncate((-fourier_window, fourier_window))

    diagnostics = {
        "orientation_sign": orientation_sign(model),
        "numerator_alias_bound": alias,
        "conjugate_symmetry_deviation": max(abs(u - v.conjugate())
                                            for u, v in zip(values[::-1], values)),
        "regularization": "positive powers (Im theta > 0)",
    }
    return IndexReport(theta_samples=[complex(t) for t in thetas], values=values,
                       fourier=fourier, diagnostics=diagnostics)


def run_c_plane(args) -> int:
    """``equichern run-example c-plane``: the index character of `augmentation.c_plane_uv`.

    Compares the values with the closed form -e^{i theta}/(1 - e^{i theta})
    and the Fourier coefficients with -1 for n >= 1 (0 otherwise), writes
    ``index_report.json`` and ``fourier.csv``, and exits 0 when both are
    within their tolerances, 1 otherwise.
    """
    from .cli import EXIT_FAIL, EXIT_PASS, write_report

    report = index_character(c_plane_uv(), theta_samples=args.theta_samples,
                             fourier_window=args.fourier_window)
    golden_dev = 0.0
    for t, v in zip(report.theta_samples, report.values):
        ref = -cmath.exp(1j * t) / (1 - cmath.exp(1j * t))
        golden_dev = max(golden_dev, abs(v - ref))
    fourier_dev = 0.0
    for n in range(-args.fourier_window, args.fourier_window + 1):
        target = -1.0 if n >= 1 else 0.0
        fourier_dev = max(fourier_dev, abs(report.fourier.coeff(n) - target))
    passed = golden_dev < args.tol and fourier_dev < 1e-4
    payload = report.to_dict()
    payload["golden"] = {
        "value_deviation": golden_dev,
        "value_tolerance": args.tol,
        "fourier_deviation": fourier_dev,
        "fourier_tolerance": 1e-4,
        "passed": bool(passed),
    }
    write_report(args.out_dir / "index_report.json",
                 [{"kind": "index-character", "label": "c-plane", "payload": payload}])
    (args.out_dir / "fourier.csv").write_text(characters.series_to_csv(report.fourier),
                                              encoding="utf-8")
    print(f"c-plane: value deviation {golden_dev:.3e} (tol {args.tol:g}), "
          f"fourier deviation {fourier_dev:.3e} (tol 1e-04): "
          f"{'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


def __getattr__(name: str):
    # perfbench/tracer.py traces the pairing as quadrature.delta_pairing; the
    # pairing module loads only when that name is read.  ROADMAP item 1
    # retires this hook by pointing the tracer at pairing.delta_pairing.
    if name == "delta_pairing":
        from .pairing import delta_pairing
        return delta_pairing
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
