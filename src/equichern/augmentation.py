"""The augmentation of a symbol by orbital Clifford multiplication, and the sheared plane.

`augment_by_clifford` forms sigma (x) 1 + 1 (x) c(w) on E (x) W, with the
graded tensor signs, for a polynomial orbital value w, as a polynomial
matrix (`ring.PolyMatrix`): with w = phi it is `geometry.augmented_symbol`,
and with constant-coefficient values it gives the stages of
`homotopy.homotopy_path`.  `c_plane_uv`, the plane model after the shear
change of variables, takes i times its symbol augmented by c(v) as the odd
term of its superconnection, which `ActionModel.set_odd_term` wraps in a
supermatrix.  ``run-example c-plane``, the dense
route and ``check-symbol`` load this module; the delta pairing does not.
"""

from __future__ import annotations

from .geometry import COMPLEX, ActionModel, BundleSpec, Coordinate
from .ring import Poly, PolyMatrix, UnsupportedShapeError


def augment_by_clifford(model: ActionModel, w: Poly) -> PolyMatrix:
    """sigma (x) 1 + 1 (x) c(w) on E (x) W with graded tensor signs.

    c(w) is Clifford multiplication by the orbital value w, with conj(w) in
    its upper right entry, as in `homotopy.clifford_multiplication`.
    """
    e, wspec = model.bundle_e, model.bundle_w
    if e is None or wspec is None or e.rank != 2 or wspec.rank != 2:
        raise UnsupportedShapeError("augmentation needs rank-2 E and W bundles")
    zero = model.algebra.const(0.0)
    sigma = model.symbol.rows
    cmat = [[None, model.conj_poly(w)], [w, None]]
    basis = model.script_e_pairs
    out = [[zero] * len(basis) for _ in basis]
    for col, (j, k) in enumerate(basis):
        for row, (i, l) in enumerate(basis):
            acc = sigma[i][j] if l == k else zero
            if i == j and cmat[l][k] is not None:
                term = -cmat[l][k] if e.parities[i] == 1 else cmat[l][k]
                # a zero acc is not added: 0.0 + c would turn a -0.0 part of c into 0.0
                acc = acc + term if not acc.is_zero else term
            out[row][col] = acc
    return PolyMatrix(model.algebra, model.bundle_script_e.parities, tuple(map(tuple, out)))


def c_plane_uv() -> ActionModel:
    """The plane model after the shear change of variables; Gaussian weight one."""
    coords = (Coordinate("u", COMPLEX, 1, "base"),
              Coordinate("v", COMPLEX, 1, "fiber"))
    e = BundleSpec((0, 1), (0, 1))
    w = BundleSpec((0, 1), (0, 1))
    model = ActionModel("c-plane-uv", coords, e, w)
    alg = model.algebra
    zero = alg.const(0.0)
    model.set_symbol([[zero, alg.coord("ubar")], [alg.coord("u"), zero]])
    # superconnection odd term: i * (the symbol augmented by c(v))
    model.set_odd_term([[1j * p for p in row]
                        for row in augment_by_clifford(model, alg.coord("v")).rows])
    return model
