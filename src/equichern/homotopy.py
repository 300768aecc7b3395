"""The c-plane model, and the homotopy of its augmented symbol to the normal form.

`c_plane` is the rotation of the complex plane with the shifted
Cauchy-Riemann symbol; the odd term of its superconnection is i times the
constant-coefficient endpoint of `homotopy_path`, the two-stage linear
homotopy from the symbol augmented by orbital Clifford multiplication
(`geometry.augmented_symbol`) to that normal form.
`clifford_multiplication` is the Clifford multiplication of the
augmentation, by one orbital value.  No command loads this module:
``check-symbol`` reads its models from files, and ``run-example c-plane``
builds the sheared model `augmentation.c_plane_uv`.
"""

from __future__ import annotations

from .exterior import Form
from .augmentation import augment_by_clifford
from .geometry import COMPLEX, ActionModel, BundleSpec, Coordinate, augmented_symbol
from .supermatrix import SuperMatrix, UnsupportedShapeError


def clifford_multiplication(model: ActionModel, w) -> SuperMatrix:
    """Left Clifford multiplication by an orbital tangent value on the W bundle."""
    if model.bundle_w is None or model.bundle_w.rank != 2:
        raise UnsupportedShapeError("Clifford multiplication needs a rank-2 W bundle")
    w = complex(w)
    alg = model.algebra
    z = alg.zero()
    return SuperMatrix(alg, model.bundle_w.grading(),
                       [[z, Form(alg, {0: w.conjugate()})], [Form(alg, {0: w}), z]])


def c_plane() -> ActionModel:
    """Rotation of the complex plane with the shifted Cauchy-Riemann symbol."""
    coords = (Coordinate("z", COMPLEX, 1, "base"),
              Coordinate("xi", COMPLEX, 1, "fiber"))
    e = BundleSpec((0, 1), (0, 1))
    w = BundleSpec((0, 1), (0, 1))
    model = ActionModel("c-plane", coords, e, w)
    alg = model.algebra
    z = alg.coord("z")
    zb = alg.coord("zbar")
    x = alg.coord("xi")
    xb = alg.coord("xibar")
    zero = alg.zero()
    sigma = [[zero, alg.scalar(zb - 1j * xb)], [alg.scalar(z + 1j * x), zero]]
    model.set_symbol(sigma)
    # superconnection odd term: i * (constant-coefficient endpoint of the homotopy)
    model.set_odd_term(augment_by_clifford(model, 1j * z + x).scale(1j))
    return model


class HomotopyPath:
    """Consecutive linear interpolations between symbol matrices."""

    __slots__ = ("stages",)

    def __init__(self, stages: tuple[tuple[SuperMatrix, SuperMatrix], ...]):
        for (a0, a1), (b0, b1) in zip(stages, stages[1:]):
            if not all(x == y for r1, r2 in zip(a1.entries, b0.entries)
                       for x, y in zip(r1, r2)):
                raise ValueError("endpoints of consecutive stages must match")
        self.stages = stages

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def matrix_at(self, stage: int, s: float) -> SuperMatrix:
        a, b = self.stages[stage]
        return a.scale(1.0 - s) + b.scale(s)


def homotopy_path(model: ActionModel) -> HomotopyPath:
    """Two-stage path: flatten the orbital factor, then shear in the fiber."""
    start = augmented_symbol(model)
    if model.fiber.kind != COMPLEX:
        raise UnsupportedShapeError("homotopy implemented for complex base and fiber")
    zc = model.algebra.coord(model.base.name)
    xc = model.algebra.coord(model.fiber.name)
    mid = augment_by_clifford(model, 1j * zc)
    end = augment_by_clifford(model, 1j * zc + xc)
    return HomotopyPath(((start, mid), (mid, end)))
