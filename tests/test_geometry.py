import math
import random

import numpy as np
import pytest

from equichern import geometry, scan
from equichern.exterior import NUMERIC, SYMBOLIC, CompiledPolys, EvaluationError, Poly
from equichern.geometry import (
    ActionModel,
    BundleSpec,
    Coordinate,
    Grading,
    SuperMatrix,
    UnsupportedShapeError,
    augmented_symbol,
    builtin_model,
    c_plane,
    c_plane_uv,
    clifford_multiplication,
    homotopy_path,
    infinitesimal_generator,
    orbital_projection,
    zero_op_s1,
)
from equichern.modelfile import builtin_model_text, parse_model_text
from equichern.scan import ScanGrid, block_singular_values, ellipticity_scan, gaussian_draws
from conftest import eval_grid, odd_symbol_model


def entry_values(matrix, point):
    num = matrix.evaluate(point)
    d = num.dim
    return np.array([[num.entries[i][j].terms.get(0, 0.0) for j in range(d)]
                     for i in range(d)])


class TestInfinitesimalGenerator:
    def test_plane_unit_speed(self):
        m = c_plane()
        # oracle: d/dt exp(-i t) * 1 at t = 0
        h = 1e-7
        oracle = (np.exp(-1j * h) - np.exp(1j * h)) / (2 * h)
        got = infinitesimal_generator(m, 1.0)
        assert abs(got - oracle) < 1e-8
        assert abs(got - (-1j)) < 1e-13

    def test_fixed_point(self):
        m = c_plane()
        assert infinitesimal_generator(m, 0.0) == 0

    def test_circle_model_rotation_rate(self):
        m = zero_op_s1()
        assert infinitesimal_generator(m, 0.4) == 1.0


class TestOrbitalProjection:
    def test_unit_circle_covector(self):
        m = c_plane()
        phi = orbital_projection(m, 1.0, 1j)
        assert abs(phi - 1j) < 1e-14

    def test_origin_degenerates(self):
        m = c_plane()
        phi = orbital_projection(m, 0.0, 0.5 + 2j)
        assert phi == 0

    def test_composition_oracle(self, rng):
        # oracle: compose the action derivative with its metric adjoint by hand
        m = c_plane()
        for _ in range(25):
            z = complex(rng.standard_normal(), rng.standard_normal())
            xi = complex(rng.standard_normal(), rng.standard_normal())
            rho1 = infinitesimal_generator(m, z)
            pairing = (xi * np.conj(rho1)).real
            oracle = rho1 * pairing
            got = orbital_projection(m, z, xi)
            assert abs(got - oracle) < 1e-13
            assert abs(got - 1j * z * (np.conj(z) * xi).imag) < 1e-13

    def test_idempotent_up_to_orbit_norm(self, rng):
        # phi^2 = |rho|^2 phi on the orbit direction
        m = c_plane()
        for _ in range(25):
            z = complex(rng.standard_normal(), rng.standard_normal())
            xi = complex(rng.standard_normal(), rng.standard_normal())
            phi1 = orbital_projection(m, z, xi)
            phi2 = orbital_projection(m, z, phi1)
            rho_sq = abs(infinitesimal_generator(m, z)) ** 2
            assert abs(phi2 - rho_sq * phi1) < 1e-12 * max(1.0, abs(phi1))

    @pytest.mark.parametrize("build", [
        c_plane, c_plane_uv,
        lambda: parse_model_text(builtin_model_text("c-plane").replace(
            "z  complex weight=1", "z  complex weight=2"))],
        ids=["c-plane", "c-plane-uv", "base-weight-2"])
    def test_symbolic_route_and_array_calls_agree(self, rng, build):
        # _phi_polys (the augmentation's phi) and orbital_projection are the
        # two routes to phi; an array call is its scalar calls elementwise
        m = build()
        phi_poly = geometry._phi_polys(m)
        x = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        xi = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        rho, phi = infinitesimal_generator(m, x), orbital_projection(m, x, xi)
        for k in range(25):
            assert infinitesimal_generator(m, x[k]) == rho[k]
            assert orbital_projection(m, x[k], xi[k]) == phi[k]
            point = m.full_point({m.base.name: x[k], m.fiber.name: xi[k]})
            assert abs(phi_poly.evaluate(point) - phi[k]) <= 1e-13 * abs(phi[k])


class TestClifford:
    def test_unit_vector_matrix(self):
        m = c_plane()
        c = clifford_multiplication(m, 1j)
        vals = np.array([[c.entries[i][j].terms.get(0, 0.0) for j in range(2)]
                         for i in range(2)])
        assert np.abs(vals - np.array([[0, -1j], [1j, 0]])).max() < 1e-15
        sq = c @ c
        eye = SuperMatrix.identity(m.algebra, c.grading, NUMERIC)
        assert sq.isclose(eye, 1e-15)

    def test_zero_vector(self):
        m = c_plane()
        c = clifford_multiplication(m, 0.0)
        assert all(f.is_zero for row in c.entries for f in row)

    def test_clifford_relation_random(self, rng):
        m = c_plane()
        for _ in range(100):
            w = complex(rng.standard_normal(), rng.standard_normal())
            c = clifford_multiplication(m, w)
            sq = c @ c
            eye = SuperMatrix.identity(m.algebra, c.grading, NUMERIC)
            assert sq.isclose(eye.scale(abs(w) ** 2), 1e-12 * max(1.0, abs(w) ** 2))

    def test_exact_at_rational_points(self):
        m = c_plane()
        w = 0.75 + 0.5j
        sq = clifford_multiplication(m, w) @ clifford_multiplication(m, w)
        assert sq.entries[0][0].terms[0] == (w * w.conjugate()).real  # 13/16
        assert sq.entries[0][1].is_zero

    def test_unsupported_rank(self):
        m = zero_op_s1()
        with pytest.raises(UnsupportedShapeError):
            clifford_multiplication(m, 1.0)


def reference_augmented(z, xi):
    im = (np.conj(z) * xi).imag
    return np.array([
        [0, 0, -1j * np.conj(z) * im, np.conj(z) - 1j * np.conj(xi)],
        [0, 0, z + 1j * xi, -1j * z * im],
        [1j * z * im, np.conj(z) - 1j * np.conj(xi), 0, 0],
        [z + 1j * xi, 1j * np.conj(z) * im, 0, 0],
    ])


class TestAugmentedSymbol:
    def test_matches_reference_entrywise(self, rng):
        m = c_plane()
        aug = augmented_symbol(m)
        for _ in range(10):
            z = complex(rng.standard_normal(), rng.standard_normal())
            xi = complex(rng.standard_normal(), rng.standard_normal())
            vals = entry_values(aug, m.full_point({"z": z, "xi": xi}))
            assert np.abs(vals - reference_augmented(z, xi)).max() < 1e-12

    def test_zero_symbol_zero_projection(self):
        coords = (Coordinate("z", "complex", 0, "base"),
                  Coordinate("xi", "complex", 0, "fiber"))
        e = BundleSpec((0, 0), (0, 1))
        w = BundleSpec((0, 0), (0, 1))
        m = ActionModel("null", coords, e, w)
        z = m.algebra.zero(SYMBOLIC)
        m.set_symbol([[z, z], [z, z]])
        aug = augmented_symbol(m)
        assert all(f.is_zero for row in aug.entries for f in row)

    def test_transverse_covectors_leave_only_symbol_block(self, rng):
        # on rays with the covector orthogonal to the orbit, the orbital
        # Clifford block vanishes and only sigma (x) 1 remains
        m = c_plane()
        aug = augmented_symbol(m)
        for _ in range(10):
            z = complex(rng.standard_normal(), rng.standard_normal())
            t = rng.standard_normal()
            xi = t * z  # real multiples of z are orthogonal to the orbit
            phi = orbital_projection(m, z, xi)
            assert abs(phi) < 1e-13
            vals = entry_values(aug, m.full_point({"z": z, "xi": xi}))
            for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
                assert abs(vals[i, j]) < 1e-13
            sig = entry_values(m.symbol, m.full_point({"z": z, "xi": xi}))
            assert abs(vals[3, 0] - sig[1, 0]) < 1e-13
            assert abs(vals[0, 3] - sig[0, 1]) < 1e-13


class TestEllipticityScan:
    def test_augmented_symbol_passes(self):
        m = c_plane()
        report = ellipticity_scan(augmented_symbol(m), ScanGrid(samples=1500))
        assert report.passed
        assert all(s.min_normalized_det > 1e-6 for s in report.shells
                   if s.radius >= 2.0)
        assert report.growth_exponent > 4.0

    def test_unaugmented_symbol_fails_on_conic_zero_set(self):
        m = c_plane()
        report = ellipticity_scan(m.symbol, ScanGrid(samples=1500))
        assert not report.passed
        assert report.degenerate_points
        # the located degeneracy lies on xi = i z (covector aligned with the orbit)
        pt = report.degenerate_points[0]
        z = pt[0] + 1j * pt[1]
        xi = pt[2] + 1j * pt[3]
        assert abs(z + 1j * xi) < 1e-3 * max(1.0, abs(z))

    def test_identity_passes_with_unit_det(self):
        m = c_plane()
        eye = SuperMatrix.identity(m.algebra, augmented_symbol(m).grading, SYMBOLIC)
        report = ellipticity_scan(eye, ScanGrid(samples=200, refine_iters=5))
        assert report.passed
        assert all(abs(s.min_normalized_det - 1.0) < 1e-9 for s in report.shells)

    def test_empty_grid_rejected(self):
        m = c_plane()
        with pytest.raises(ValueError):
            ellipticity_scan(m.symbol, ScanGrid(samples=0))

    def test_each_point_counted_once(self):
        # the zero symbol is degenerate everywhere and refines nothing, so
        # each shell counts its samples and no copies of its candidates
        m = c_plane()
        zero = SuperMatrix.zero(m.algebra, augmented_symbol(m).grading)
        report = ellipticity_scan(zero, ScanGrid(samples=100))
        assert [s.degenerate for s in report.shells] == [100] * 7

    def test_one_evaluation_per_refinement_step(self, monkeypatch):
        # all shells are sampled together, slice by slice, and every
        # candidate refined in lock-step: one batch per step, one to score
        calls = []
        evaluate = CompiledPolys.entries

        def recording(table, arrays):
            calls.append(next(iter(arrays.values())))
            return evaluate(table, arrays)

        monkeypatch.setattr(CompiledPolys, "entries", recording)
        grid = ScanGrid()
        symbol = augmented_symbol(c_plane())
        passes = []
        for batch in (scan.BATCH_POINTS, len(grid.radii) * grid.samples):
            monkeypatch.setattr(scan, "BATCH_POINTS", batch)
            calls.clear()
            ellipticity_scan(symbol, grid)
            n = sum(c.ndim == 2 for c in calls)
            assert all(c.ndim == 2 and c.size <= batch for c in calls[:n])
            assert len(calls) - n <= grid.refine_iters + 1
            passes.append(np.concatenate(calls[:n], axis=1))
        # the slices cover every sample once, in order, as one whole batch does
        assert np.array_equal(*passes)


    @pytest.mark.parametrize("seed", range(40))
    def test_unaugmented_symbol_fails_on_every_seed(self, seed):
        # the Gauss-Newton refinement lands on the conic zero set whatever
        # the draws, so the negative control does not rest on the seed
        m = c_plane()
        report = ellipticity_scan(m.symbol, ScanGrid(samples=1500, seed=seed))
        assert not report.passed
        assert report.degenerate_points
        pt = report.degenerate_points[0]
        z = pt[0] + 1j * pt[1]
        xi = pt[2] + 1j * pt[3]
        assert abs(z + 1j * xi) < 1e-3 * max(1.0, abs(z))

    @pytest.mark.parametrize("samples", [500, 2000])
    @pytest.mark.parametrize("name", ["c-plane", "constant-symbol"])
    def test_augmented_models_pass_on_every_seed(self, name, samples):
        # both augmented symbols are scalar multiples of unitaries pointwise,
        # so the normalized determinant is 1 up to rounding everywhere
        aug = augmented_symbol(parse_model_text(builtin_model_text(name)))
        for seed in range(40):
            report = ellipticity_scan(aug, ScanGrid(samples=samples, seed=seed))
            assert report.passed
            assert min(s.min_normalized_det for s in report.shells) >= 1 - 1e-13

    def test_negative_control_reaches_floor_in_three_batches(self, monkeypatch):
        calls = []
        evaluate = CompiledPolys.entries

        def counting(table, arrays):
            calls.append(np.shape(next(iter(arrays.values()))))
            return evaluate(table, arrays)

        monkeypatch.setattr(CompiledPolys, "entries", counting)
        symbol = c_plane().symbol
        for seed in range(40):
            calls.clear()
            report = ellipticity_scan(symbol, ScanGrid(samples=1500, seed=seed))
            assert report.degenerate_points
            shell = [c for c in calls if len(c) == 2]
            assert len(calls) - len(shell) <= 3  # refinement batches after the shell pass


class TestGaussianDraws:
    def test_matches_little_endian_box_muller_loop(self):
        # odd count: the last pair's sine is dropped
        shape = (3, 5, 3)
        got = gaussian_draws(7, shape)
        assert got.shape == shape
        assert got.tobytes() == gaussian_draws(7, shape).tobytes()
        pairs = (got.size + 1) // 2
        data = random.Random(7).randbytes(16 * pairs)
        words = [int.from_bytes(data[8 * k:8 * k + 8], "little") >> 11
                 for k in range(2 * pairs)]
        ref = []
        for trig in (math.cos, math.sin):
            for k in range(pairs):
                radius = math.sqrt(-2.0 * math.log((words[k] + 1) * 2.0 ** -53))
                ref.append(radius * trig(2 * math.pi * (words[pairs + k] * 2.0 ** -53)))
        # numpy's and libm's log, cos and sin may differ by an ulp or two
        np.testing.assert_allclose(got.ravel(), ref[:got.size], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 45, 1000, 7 * 2000 * 4 + 1])
    def test_bits_of_the_concatenated_halves(self, n):
        # the two Box-Muller halves as separate products, joined by concatenate
        pairs = (n + 1) // 2
        words = np.frombuffer(random.Random(n).randbytes(16 * pairs), dtype="<u8") >> 11
        radius = np.sqrt(-2.0 * np.log((words[:pairs] + 1) * 2.0 ** -53))
        angle = 2 * np.pi * (words[pairs:] * 2.0 ** -53)
        ref = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
        assert gaussian_draws(n, (n,)).tobytes() == ref.tobytes()

    def test_seeds_differ(self):
        draws = [gaussian_draws(seed, (1000,)) for seed in (0, 1, 2**40)]
        for i in range(len(draws)):
            for j in range(i):
                assert not np.any(draws[i] == draws[j])

    def test_standard_normal_moments(self):
        # 5 standard errors at n = 1e5: mean 1/sqrt(n), variance sqrt(2/n), the
        # share inside one sigma sqrt(p(1-p)/n) with p = erf(1/sqrt(2))
        n = 100_000
        z = gaussian_draws(20240817, (n,))
        assert abs(z.mean()) < 5 / math.sqrt(n)
        assert abs(z.var() - 1) < 5 * math.sqrt(2 / n)
        p = math.erf(1 / math.sqrt(2))
        assert abs(np.mean(np.abs(z) < 1) - p) < 5 * math.sqrt(p * (1 - p) / n)


def svd_oracle(mats):
    svals = np.linalg.svd(mats, compute_uv=False)
    return np.abs(np.linalg.det(mats)), svals[..., 0], svals[..., -1]


def assert_matches_svd(got, mats, tol=1e-13):
    """(|det|, sigma_max, sigma_min) against svd + det, relative to sigma_max."""
    dets, smax, smin = got
    ref_det, ref_max, ref_min = svd_oracle(mats)
    d = mats.shape[-1]
    assert np.all(np.abs(smax - ref_max) <= tol * ref_max)
    assert np.all(np.abs(smin - ref_min) <= tol * ref_max)
    assert np.all(np.abs(dets - ref_det) <= tol * ref_max ** d)


def stats(mats, blocks):
    """`scan._singular_stats` of ``(..., d, d)`` matrices, passed entry-first."""
    return scan._singular_stats(np.moveaxis(mats, (-2, -1), (0, 1)), blocks)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def odd_matrices(x, y):
    """[[0, X], [Y, 0]] in the (even, even, odd, odd) basis of the augmented symbol."""
    mats = np.zeros(x.shape[:-2] + (4, 4), dtype=complex)
    mats[..., :2, 2:] = x
    mats[..., 2:, :2] = y
    return mats


def random_unitary(rng, n):
    q, _ = np.linalg.qr(random_complex(rng, (n, 2, 2)))
    return q


class TestBlockSingularValues:
    """The closed-form graded singular values against np.linalg.svd."""

    odd_blocks = scan._grading_blocks(augmented_symbol(c_plane()))

    def test_odd_augmented_symbol_splits_into_two_blocks(self):
        assert self.odd_blocks == [([0, 1], [2, 3]), ([2, 3], [0, 1])]

    def test_single_blocks(self, rng):
        blocks = random_complex(rng, (2000, 2, 2)) * np.exp(rng.uniform(-5, 5, (2000, 1, 1)))
        got = block_singular_values(blocks[:, 0, 0], blocks[:, 0, 1],
                                    blocks[:, 1, 0], blocks[:, 1, 1])
        assert_matches_svd(got, blocks)

    def test_random_odd_matrices(self, rng):
        mats = odd_matrices(random_complex(rng, (2000, 2, 2)),
                            random_complex(rng, (2000, 2, 2)))
        assert_matches_svd(stats(mats, self.odd_blocks), mats)

    def test_near_equal_singular_values(self, rng):
        # scaled unitaries plus a 1e-10 perturbation: the textbook
        # sqrt(f^2 - 4|det|^2) form loses about eight digits here
        n = 500
        x = 3.0 * random_unitary(rng, n) + 1e-10 * random_complex(rng, (n, 2, 2))
        y = 3.0 * random_unitary(rng, n) + 1e-10 * random_complex(rng, (n, 2, 2))
        mats = odd_matrices(x, y)
        _, ref_max, ref_min = svd_oracle(x)
        assert np.all(ref_max / ref_min - 1 < 1e-8)
        assert_matches_svd(stats(mats, self.odd_blocks), mats)
        _, smax, smin = block_singular_values(x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1])
        assert np.all(np.abs(smin - ref_min) <= 1e-13 * ref_min)

    def test_rank_deficient_blocks(self, rng):
        n = 500
        u = random_complex(rng, (n, 2, 1))
        v = random_complex(rng, (n, 1, 2))
        x = u @ v  # rank one
        mats = np.concatenate([odd_matrices(x, random_complex(rng, (n, 2, 2))),
                               odd_matrices(x, np.zeros((n, 2, 2))),
                               odd_matrices(np.zeros((n, 2, 2)), x)])
        got = stats(mats, self.odd_blocks)
        assert_matches_svd(got, mats)
        _, smax, smin = block_singular_values(x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1])
        assert np.all(smin <= 1e-15 * smax)

    def test_one_by_one_blocks(self, rng):
        symbol = c_plane().symbol
        blocks = scan._grading_blocks(symbol)
        assert blocks == [([0], [1]), ([1], [0])]
        pts = random_complex(rng, (300, 2))
        vals = CompiledPolys(symbol.algebra, scan._entry_polys(symbol)).entries({
            "z": pts[:, 0], "zbar": np.conj(pts[:, 0]),
            "xi": pts[:, 1], "xibar": np.conj(pts[:, 1])})
        mats = np.moveaxis(vals, (0, 1), (-2, -1))
        assert_matches_svd(scan._singular_stats(vals, blocks), mats)

    def test_zero_matrix(self):
        m = c_plane()
        zero = SuperMatrix.zero(m.algebra, augmented_symbol(m).grading, SYMBOLIC)
        blocks = scan._grading_blocks(zero)
        assert blocks is not None
        mats = np.zeros((5, 4, 4), dtype=complex)
        dets, smax, smin = stats(mats, blocks)
        assert not dets.any() and not smax.any() and not smin.any()
        assert_matches_svd((dets, smax, smin), mats)

    def test_even_identity(self):
        m = c_plane()
        eye = SuperMatrix.identity(m.algebra, augmented_symbol(m).grading, SYMBOLIC)
        blocks = scan._grading_blocks(eye)
        assert blocks == [([0, 1], [0, 1]), ([2, 3], [2, 3])]
        mats = np.broadcast_to(np.eye(4, dtype=complex), (5, 4, 4))
        dets, smax, smin = stats(mats, blocks)
        assert np.all(dets == 1) and np.all(smax == 1) and np.all(smin == 1)

    def test_fallback_to_svd(self, monkeypatch):
        m = c_plane()
        aug = augmented_symbol(m)
        alg = m.algebra
        mixed = aug + SuperMatrix.identity(alg, aug.grading, SYMBOLIC)
        assert scan._grading_blocks(mixed) is None
        # an odd matrix whose blocks are 3x3
        grading = Grading((0, 0, 0, 1, 1, 1))
        z = alg.coord("z")
        rows = [[alg.scalar(z + i - j) if (i < 3) != (j < 3) else 0.0
                 for j in range(6)] for i in range(6)]
        large = SuperMatrix(alg, grading, rows)
        assert large.is_odd()
        assert scan._grading_blocks(large) is None

        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        grid = ScanGrid(samples=50, refine_iters=0)
        ellipticity_scan(aug, grid)
        assert calls == []
        for matrix in (mixed, large):
            calls.clear()
            ellipticity_scan(matrix, grid)
            d = matrix.dim
            assert calls == [((len(grid.radii), grid.samples, d, d), False)]

    def test_scan_stats_match_svd_on_model_samples(self, monkeypatch):
        # the scan's own statistics on every batch it evaluates
        seen = []
        evaluate = CompiledPolys.entries

        def recording(table, arrays):
            out = evaluate(table, arrays)
            seen.append(out)
            return out

        monkeypatch.setattr(CompiledPolys, "entries", recording)
        monkeypatch.setattr(scan, "BATCH_POINTS", 997)  # several shell batches
        aug = augmented_symbol(c_plane())
        report = ellipticity_scan(aug, ScanGrid(samples=300, refine_iters=0))
        assert len(seen) > 1
        for vals in seen:
            assert_matches_svd(scan._singular_stats(vals, self.odd_blocks),
                               np.moveaxis(vals, (0, 1), (-2, -1)))
        mats = np.moveaxis(np.concatenate(seen, axis=3), (0, 1), (-2, -1))
        ref_det, ref_max, _ = svd_oracle(mats)
        for shell, det, opn in zip(report.shells, ref_det, ref_max):
            assert abs(shell.median_opnorm - np.median(opn)) <= 1e-13 * np.median(opn)
            assert abs(shell.median_det - np.median(det)) <= 1e-13 * np.median(det)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 500, 2000, 2001])
def test_median_matches_numpy(rng, n):
    values = rng.standard_normal((7, n))
    for a in (values, np.round(values, 1), np.abs(values)):  # ties, one sign
        assert np.array_equal(scan._median_last(a), np.median(a, axis=1))


def term_scale(poly, arrays):
    """Sum of |coefficient x monomial| over the terms: the rounding scale of a value."""
    absolute = Poly(poly.algebra, {m: abs(c) for m, c in poly.terms.items()})
    return eval_grid(absolute, {k: np.abs(v) for k, v in arrays.items()}).real


def template_matrices():
    """Symbol, augmented symbol and the scan's derivative jet of each shipped template."""
    out = {}
    for name in ("c-plane", "constant-symbol"):
        model = parse_model_text(builtin_model_text(name))
        aug = scan._entry_polys(augmented_symbol(model))
        out[f"{name}-symbol"] = (model.algebra, scan._entry_polys(model.symbol))
        out[f"{name}-augmented"] = (model.algebra, aug)
        out[f"{name}-jet"] = (model.algebra, np.concatenate(
            [aug[None], scan._real_derivatives(aug, model.algebra)]))
    return out


class TestCompiledPolys:
    """The compiled evaluator against the term-by-term `conftest.eval_grid`, entry by entry."""

    def assert_matches_eval_grid(self, algebra, polys, rng):
        radii = np.array([0.3, 1.0, 2.0, 8.0, 1e3])[:, None, None]
        pts = radii * rng.standard_normal((5, 40, 4))
        arrays = scan._coords_from_real(algebra, pts)
        table = CompiledPolys(algebra, polys)
        assert table.shape == polys.shape
        assert len(table.rows) == sum(f is not None for f in polys.flat)
        # one complex coefficient, two doubles, per compiled row and monomial
        assert len(table.coeffs) == 2 * len(table.rows) * len(table.factors)
        entries = table.entries(arrays)
        assert entries.shape == polys.shape + (5, 40)
        for idx, f in np.ndenumerate(polys):
            if f is None:
                assert np.all(entries[idx] == 0)
                continue
            tol = 1e-13 * term_scale(f, arrays)
            assert np.all(np.abs(entries[idx] - eval_grid(f, arrays)) <= tol)

    @pytest.mark.parametrize("name", sorted(template_matrices()))
    def test_templates(self, rng, name):
        self.assert_matches_eval_grid(*template_matrices()[name], rng)

    @pytest.mark.parametrize("n_even, n_odd", [(2, 2), (1, 2), (3, 3)])
    def test_larger_symbols(self, rng, n_even, n_odd):
        model = odd_symbol_model(n_even, n_odd, rng)
        polys = scan._entry_polys(model.symbol)
        self.assert_matches_eval_grid(model.algebra, polys, rng)
        jet = np.concatenate([polys[None], scan._real_derivatives(polys, model.algebra)])
        self.assert_matches_eval_grid(model.algebra, jet, rng)

    def test_missing_coordinate_is_named(self):
        m = c_plane()
        table = CompiledPolys(m.algebra, scan._entry_polys(m.symbol))
        with pytest.raises(EvaluationError, match="'xibar'"):
            table.entries({"z": np.ones(3), "zbar": np.ones(3), "xi": np.ones(3)})

    def test_grid_shape_comes_from_the_evaluated_coordinates(self):
        alg = c_plane().algebra
        z = alg.coord("z")
        table = CompiledPolys(alg, np.array([z * z, None], dtype=object))
        want = np.array([[0.0, 1.0, 4.0], [0.0, 0.0, 0.0]])
        for point in ({"z": np.arange(3.0)}, {"xi": 0.0, "z": np.arange(3.0)},
                      {"z": np.arange(3.0), "xi": 0.0}):
            assert np.array_equal(table.entries(point), want)
        # a table of constants has no coordinate: its grid is the point's
        constant = CompiledPolys(alg, np.array([alg.const(2.0)], dtype=object))
        assert np.array_equal(constant.entries({"xi": 0.0, "z": np.arange(3.0)}),
                              np.full((1, 3), 2.0))


class TestHomotopy:
    def test_stage_endpoints(self):
        m = c_plane()
        path = homotopy_path(m)
        assert path.stage_count == 2
        start = path.matrix_at(0, 0.0)
        aug = augmented_symbol(m)
        assert all(x == y for r1, r2 in zip(start.entries, aug.entries)
                   for x, y in zip(r1, r2))

    def test_final_endpoint_is_constant_coefficient_form(self, rng):
        # stage-2 endpoint squares to (|z+i xi|^2 + |i z + xi|^2) I
        m = c_plane()
        path = homotopy_path(m)
        end = path.matrix_at(1, 1.0)
        sq = end @ end
        for _ in range(5):
            z = complex(rng.standard_normal(), rng.standard_normal())
            xi = complex(rng.standard_normal(), rng.standard_normal())
            vals = entry_values(sq, m.full_point({"z": z, "xi": xi}))
            scalar = abs(z + 1j * xi) ** 2 + abs(1j * z + xi) ** 2
            assert np.abs(vals - scalar * np.eye(4)).max() < 1e-12

    def test_midpath_ellipticity(self):
        m = c_plane()
        path = homotopy_path(m)
        for stage in (0, 1):
            mid = path.matrix_at(stage, 0.5)
            report = ellipticity_scan(mid, ScanGrid(samples=400, refine_iters=25))
            assert report.passed


class TestModelValidation:
    @pytest.mark.parametrize("roles", [("base", "base", "fiber"), ("base", "fiber", "fiber"),
                                       ("fiber",), ()],
                             ids=["two-bases", "two-fibers", "no-base", "none"])
    def test_one_base_and_at_most_one_fiber(self, roles):
        coords = [Coordinate(f"c{k}", "complex", 1, role) for k, role in enumerate(roles)]
        with pytest.raises(ValueError, match="one base coordinate"):
            ActionModel("bad", coords, BundleSpec((0, 1), (0, 1)))

    def test_fiberless_model_builds(self):
        m = ActionModel("flat", (Coordinate("x", "complex", 1, "base"),),
                        BundleSpec((0, 1), (0, 1)))
        assert m.base.name == "x" and m.fiber is None

    def test_symbol_must_be_odd(self):
        coords = (Coordinate("z", "complex", 1, "base"),
                  Coordinate("xi", "complex", 1, "fiber"))
        e = BundleSpec((0, 1), (0, 1))
        m = ActionModel("bad", coords, e)
        one = m.algebra.one(SYMBOLIC)
        z = m.algebra.zero(SYMBOLIC)
        with pytest.raises(ValueError):
            m.set_symbol([[one, z], [z, one]])

    def test_setters_accept_zero_and_reject_even(self):
        m = c_plane()
        for setter, grading, error in (
                (m.set_symbol, m.bundle_e.grading(), ValueError),
                (m.set_odd_term, m.bundle_script_e.grading(), UnsupportedShapeError)):
            setter(SuperMatrix.zero(m.algebra, grading, SYMBOLIC))
            with pytest.raises(ValueError, match="odd") as info:
                setter(SuperMatrix.identity(m.algebra, grading))
            assert type(info.value) is error

    def test_tensor_bundle_weights(self):
        m = c_plane()
        assert m.bundle_script_e.weights == (0, 2, 1, 1)
        assert m.bundle_script_e.parities == (0, 0, 1, 1)

    def test_plane_uv_odd_term_matches_written_matrix(self):
        # i (sigma (x) 1 + 1 (x) c(v)) on the basis (0,0), (1,1), (0,1), (1,0)
        m = c_plane_uv()
        alg = m.algebra
        u, ub, v, vb = (alg.coord(c) for c in ("u", "ubar", "v", "vbar"))
        written = [[0, 0, vb, ub],
                   [0, 0, u, -1 * v],
                   [v, ub, 0, 0],
                   [u, -1 * vb, 0, 0]]
        rows = [[alg.scalar(p) if isinstance(p, Poly) else alg.scalar(float(p))
                 for p in row] for row in written]
        ref = SuperMatrix(alg, m.bundle_script_e.grading(), rows).scale(1j)
        assert m.odd_term.entries == ref.entries

    def test_builtin_lookup(self):
        assert builtin_model("c-plane").name == "c-plane"
        with pytest.raises(KeyError):
            builtin_model("bogus")

    def test_full_point_adds_conjugates(self):
        m = c_plane()
        pt = m.full_point({"z": 1 + 2j, "xi": 3.0})
        assert pt["zbar"] == 1 - 2j
        assert pt["xibar"] == 3.0
