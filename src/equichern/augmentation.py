"""The augmentation of a symbol by orbital Clifford multiplication, and the sheared plane.

`augment_by_clifford` forms sigma (x) 1 + 1 (x) c(w) on E (x) W, with the
graded tensor signs, for a polynomial orbital value w: with w = phi it is
`geometry.augmented_symbol`, and with constant-coefficient values it gives
the stages of `homotopy.homotopy_path`.  `c_plane_uv`, the plane model after
the shear change of variables, takes i times its symbol augmented by c(v)
as the odd term of its superconnection.  ``run-example c-plane``, the dense
route and ``check-symbol`` load this module; the delta pairing does not.
"""

from __future__ import annotations

from .exterior import Poly
from .geometry import COMPLEX, ActionModel, BundleSpec, Coordinate
from .supermatrix import SuperMatrix, UnsupportedShapeError


def augment_by_clifford(model: ActionModel, w: Poly) -> SuperMatrix:
    """sigma (x) 1 + 1 (x) c(w) on E (x) W with graded tensor signs.

    c(w) is Clifford multiplication by the orbital value w, with conj(w) in
    its upper right entry, as in `homotopy.clifford_multiplication`.
    """
    e, wspec = model.bundle_e, model.bundle_w
    if e is None or wspec is None or e.rank != 2 or wspec.rank != 2:
        raise UnsupportedShapeError("augmentation needs rank-2 E and W bundles")
    alg = model.algebra
    zero = alg.zero()
    sigma = model.symbol.entries
    cmat = [[None, alg.scalar(model.conj_poly(w))], [alg.scalar(w), None]]
    basis = list(model.script_e_pairs)
    d = len(basis)
    out = [[zero for _ in range(d)] for _ in range(d)]
    for col, (j, k) in enumerate(basis):
        for row, (i, l) in enumerate(basis):
            acc = zero
            if l == k and not sigma[i][j].is_zero:
                acc = acc + sigma[i][j]
            if i == j and cmat[l][k] is not None:
                term = cmat[l][k]
                if e.parities[i] == 1:
                    term = -term
                acc = acc + term
            out[row][col] = acc
    return SuperMatrix(alg, model.bundle_script_e.grading(), out)


def c_plane_uv() -> ActionModel:
    """The plane model after the shear change of variables; Gaussian weight one."""
    coords = (Coordinate("u", COMPLEX, 1, "base"),
              Coordinate("v", COMPLEX, 1, "fiber"))
    e = BundleSpec((0, 1), (0, 1))
    w = BundleSpec((0, 1), (0, 1))
    model = ActionModel("c-plane-uv", coords, e, w)
    alg = model.algebra
    zero = alg.zero()
    sigma = [[zero, alg.scalar(alg.coord("ubar"))], [alg.scalar(alg.coord("u")), zero]]
    model.set_symbol(sigma)
    # superconnection odd term: i * (the symbol augmented by c(v))
    model.set_odd_term(augment_by_clifford(model, alg.coord("v")).scale(1j))
    return model
