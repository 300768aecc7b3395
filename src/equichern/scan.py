"""Determinant ellipticity scan of a symbol matrix along shells.

The scan samples shells of the real coordinate space (the real structure
comes from the algebra's declared conjugate pairs), reads |det| and the
extreme singular values of a graded matrix from its 1x1 and 2x2 grading
blocks in closed form, and finds determinant zeros by damped Gauss-Newton on
the smallest singular value.  Grids are evaluated in slices of at most
``BATCH_POINTS`` points (`fill_batches`), which the symbol-algebra checks
share with the scan.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Sequence

import numpy as np

from .exterior import ExteriorAlgebra
from .polyeval import CompiledPolys
from .supermatrix import EVEN, ODD, SuperMatrix


class ScanGrid(NamedTuple):
    """Shell radii and sampling controls for the determinant scan."""

    radii: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 8.0)
    samples: int = 2000
    seed: int = 0
    threshold: float = 1e-6
    refine_iters: int = 80


class ShellResult(NamedTuple):
    radius: float
    min_normalized_det: float
    median_opnorm: float
    median_det: float
    degenerate: int


class ScanReport(NamedTuple):
    shells: list[ShellResult]
    growth_exponent: float
    passed: bool
    degenerate_points: list

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "growth_exponent": float(self.growth_exponent),
            "shells": [s._asdict() for s in self.shells],
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
    singular values nearly coincide.  Each block is first scaled by the power
    of two 2^-e that brings its largest modulus into [1/2, 1) (``frexp``), so
    the squares neither underflow nor overflow where the singular values do
    not, and the results are scaled back by 2^e (by 4^e for |det|).  Scaling
    by a power of two is exact, so elsewhere the values are those of the
    unscaled formulas bit for bit.
    """
    _, e = np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(b)),
                               np.maximum(np.abs(c), np.abs(d))))
    # ldexp on the parts: 2^-e itself is not a double below the normal range
    a, b, c, d = (np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e) for x in (a, b, c, d))
    top = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
    bottom = c.real ** 2 + c.imag ** 2 + d.real ** 2 + d.imag ** 2
    gap = np.hypot(top - bottom, 2.0 * np.abs(a * np.conj(c) + b * np.conj(d)))
    smax = np.sqrt((top + bottom + gap) / 2.0)
    det = np.abs(a * d - b * c)
    smin = np.divide(det, smax, out=np.zeros_like(smax), where=smax > 0)
    return np.ldexp(det, 2 * e), np.ldexp(smax, e), np.ldexp(smin, e)


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


# Most points whose (d, d) values the check-symbol grids hold at once, so that
# their working set does not grow with the sample count.
BATCH_POINTS = 4096


def fill_batches(out: np.ndarray, values, width: int) -> None:
    """Fill ``out[..., s]`` with ``values(s)`` for consecutive slices ``s``.

    A slice spans ``BATCH_POINTS // width`` indices of the last axis (at least
    one), so a ``values`` that evaluates ``width`` points per index holds at
    most ``BATCH_POINTS`` points at once, and each slice is reduced to its
    part of ``out`` before the next one is evaluated.
    """
    step = max(1, BATCH_POINTS // width)
    for start in range(0, out.shape[-1], step):
        s = slice(start, start + step)
        out[..., s] = values(s)


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
    normals ``sqrt(-2 ln u1)`` times ``cos(2 pi u2)`` and ``sin(2 pi u2)``,
    all cosine normals first.  Both halves are written into one output.
    """
    n = math.prod(shape)
    pairs = (n + 1) // 2
    words = np.frombuffer(random.Random(seed).randbytes(16 * pairs), dtype="<u8") >> 11
    radius = np.sqrt(-2.0 * np.log((words[:pairs] + 1) * 2.0 ** -53))
    angle = 2 * np.pi * (words[pairs:] * 2.0 ** -53)
    out = np.empty((2, pairs))
    np.cos(angle, out=out[0])
    np.sin(angle, out=out[1])
    out *= radius
    return out.reshape(-1)[:n].reshape(shape)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# Smallest shell radius whose normalized determinant the verdict reads.
VERDICT_RADIUS = 2.0
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
    straddled.  The shells are sampled together, in slices of at most
    ``BATCH_POINTS`` points (`fill_batches`), and all shells' candidates
    advance in lock-step, one batch of the matrix and its derivatives per
    step.  The shell directions are normalized
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
    table = CompiledPolys(algebra, polys)
    dets, opnorms, smins = stats = np.empty((3,) + dirs.shape[:2])
    fill_batches(stats, lambda s: _singular_stats(
        table.entries(_coords_from_real(algebra, r * dirs[:, s])), blocks), len(radii))
    scale = _median_last(opnorms)
    floor = DEGENERATE_TOL * np.maximum(scale, 1e-30)

    cand_idx = np.argsort(smins, axis=1)[:, :REFINE_CANDIDATES]
    p = np.take_along_axis(dirs, cand_idx[..., None], axis=1)
    ref_dets = np.take_along_axis(dets, cand_idx, axis=1)
    ref_opn = np.take_along_axis(opnorms, cand_idx, axis=1)
    refined = np.zeros(cand_idx.shape, dtype=bool)
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
            refined |= moved
            damping[active & ~moved] /= 2.0

    # each point counts once: the samples, then the candidates refinement
    # moved (an unmoved candidate is its sample, so it leaves the minima as
    # they are and only its degenerate count is masked out)
    all_dets = np.concatenate([dets, ref_dets], axis=1)
    all_opn = np.concatenate([opnorms, ref_opn], axis=1)
    counted = np.concatenate([np.ones(dets.shape, dtype=bool), refined], axis=1)
    degenerate = counted & (all_opn < floor[:, None])
    normalized = np.where(
        degenerate, 0.0, all_dets / np.maximum(all_opn, floor[:, None]) ** d)
    median_det = _median_last(dets)

    shells: list[ShellResult] = []
    degenerate_points = []
    for i, rad in enumerate(radii):
        n_deg = int(degenerate[i].sum())
        for idx in np.nonzero(degenerate[i])[0][:3]:
            q = dirs[i, idx] if idx < grid.samples else p[i, idx - grid.samples]
            degenerate_points.append(list(rad * q))
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
        for s in shells if s.radius >= VERDICT_RADIUS)
    return ScanReport(shells=shells, growth_exponent=growth,
                      passed=passed, degenerate_points=degenerate_points)
