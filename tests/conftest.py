import numpy as np
import pytest

from equichern.exterior import EvaluationError, ExteriorAlgebra, Poly


@pytest.fixture
def plane_algebra():
    return ExteriorAlgebra(
        ["du", "dubar", "dv", "dvbar"], ["u", "ubar", "v", "vbar"])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_poly(algebra, rng, max_degree=2, n_terms=3):
    n = len(algebra.coordinates)
    terms = {}
    for _ in range(n_terms):
        m = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(n))
        terms[m] = complex(rng.standard_normal(), rng.standard_normal())
    return Poly(algebra, terms)


def eval_grid(poly, arrays):
    """A polynomial on coordinate arrays of a common shape, term by term.

    The oracle for `CompiledPolys.entries` (and so for `Poly.eval_grid`):
    each term is its coefficient times numpy powers of the coordinate arrays.
    """
    coords = poly.algebra.coordinates
    shape = None
    for a in arrays.values():
        shape = np.shape(a)
        break
    total = np.zeros(shape if shape is not None else (), dtype=np.complex128)
    for m, c in poly.terms.items():
        val = np.full(total.shape, c, dtype=np.complex128)
        for i, e in enumerate(m):
            if e == 0:
                continue
            name = coords[i]
            if name not in arrays:
                raise EvaluationError(f"no value assigned to coordinate {name!r}")
            val = val * np.asarray(arrays[name]) ** e
        total = total + val
    return total


def random_form(algebra, rng, backend="symbolic", degrees=None, n_terms=4):
    from equichern.exterior import Form

    ngen = len(algebra.generators)
    terms = {}
    for _ in range(n_terms):
        mask = int(rng.integers(0, 1 << ngen))
        if degrees is not None and mask.bit_count() not in degrees:
            continue
        if backend == "numeric":
            terms[mask] = complex(rng.standard_normal(), rng.standard_normal())
        else:
            terms[mask] = random_poly(algebra, rng)
    return Form(algebra, backend, terms)


def odd_symbol_model(n_even, n_odd, rng):
    """A model on (z, xi) whose E has n_even even and n_odd odd summands.

    Its symbol is odd, with random polynomial entries of degree up to four
    (see `random_poly`) and one structurally zero entry in each odd block.
    """
    from equichern.geometry import COMPLEX, ActionModel, BundleSpec, Coordinate

    coords = (Coordinate("z", COMPLEX, 1, "base"), Coordinate("xi", COMPLEX, 1, "fiber"))
    parities = (0,) * n_even + (1,) * n_odd
    model = ActionModel(f"odd-symbol-{n_even}-{n_odd}", coords,
                        BundleSpec(tuple(range(len(parities))), parities))
    alg = model.algebra
    rows = [[alg.scalar(random_poly(alg, rng, max_degree=1)) if p != q else 0.0
             for q in parities] for p in parities]
    rows[0][n_even] = rows[n_even][0] = 0.0
    model.set_symbol(rows)
    return model


def weighted_plane_uv(m):
    """c-plane-uv with the circle acting with weight m on both coordinates.

    The base u and the fiber v carry weight m and E = W = (0, m) with
    parities (0, 1); the symbol is [[0, ubar], [u, 0]] and the odd term is
    i times its augmentation by c(v), as `geometry.c_plane_uv` builds the
    weight-one model.  The circle acts through its m-fold cover, so the
    index character is -q^m/(1 - q^m).
    """
    from equichern.exterior import SYMBOLIC
    from equichern.geometry import (COMPLEX, ActionModel, BundleSpec, Coordinate,
                                    _augmented_from_cliff_arg)

    coords = (Coordinate("u", COMPLEX, m, "base"), Coordinate("v", COMPLEX, m, "fiber"))
    spec = BundleSpec((0, m), (0, 1))
    model = ActionModel(f"c-plane-uv-weight-{m}", coords, spec, spec)
    alg = model.algebra
    zero = alg.zero(SYMBOLIC)
    model.set_symbol([[zero, alg.scalar(alg.coord("ubar"))], [alg.scalar(alg.coord("u")), zero]])
    model.set_odd_term(_augmented_from_cliff_arg(model, alg.coord("v")).scale(1j))
    return model
