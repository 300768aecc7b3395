"""The c-plane model, and the homotopy of its augmented symbol to the normal form.

`c_plane` is the rotation of the complex plane with the shifted
Cauchy-Riemann symbol; the odd term of its superconnection is i times the
constant-coefficient endpoint of `homotopy_path`, the two-stage linear
homotopy from the symbol augmented by orbital Clifford multiplication
(`geometry.augmented_symbol`) to that normal form.  The path's stages are
polynomial matrices, which the ellipticity scan reads; only the odd term is
wrapped in a supermatrix (`ActionModel.set_odd_term`).
`clifford_multiplication` is the Clifford multiplication of the
augmentation, by one orbital value, a supermatrix of numbers.  No command
loads this module: ``check-symbol`` reads its models from files, and
``run-example c-plane`` builds the sheared model `augmentation.c_plane_uv`.
"""

from __future__ import annotations

from .augmentation import augment_by_clifford
from .exterior import Form
from .geometry import COMPLEX, ActionModel, BundleSpec, Coordinate, augmented_symbol
from .ring import PolyMatrix, UnsupportedShapeError
from .supermatrix import Grading, SuperMatrix


def clifford_multiplication(model: ActionModel, w) -> SuperMatrix:
    """Left Clifford multiplication by an orbital tangent value on the W bundle."""
    if model.bundle_w is None or model.bundle_w.rank != 2:
        raise UnsupportedShapeError("Clifford multiplication needs a rank-2 W bundle")
    w = complex(w)
    alg = model.algebra
    z = alg.zero()
    return SuperMatrix(alg, Grading(model.bundle_w.parities),
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
    zero = alg.const(0.0)
    model.set_symbol([[zero, zb - 1j * xb], [z + 1j * x, zero]])
    # superconnection odd term: i * (constant-coefficient endpoint of the homotopy)
    model.set_odd_term([[1j * p for p in row]
                        for row in augment_by_clifford(model, 1j * z + x).rows])
    return model


class HomotopyPath:
    """Consecutive linear interpolations between symbol matrices (`ring.PolyMatrix`)."""

    __slots__ = ("stages",)

    def __init__(self, stages: tuple[tuple[PolyMatrix, PolyMatrix], ...]):
        for (a0, a1), (b0, b1) in zip(stages, stages[1:]):
            if a1 != b0:
                raise ValueError("endpoints of consecutive stages must match")
        self.stages = stages

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def matrix_at(self, stage: int, s: float) -> PolyMatrix:
        """The symbol matrix a fraction s along a stage, which the ellipticity scan reads."""
        a, b = self.stages[stage]
        return a._replace(rows=tuple(tuple(x * (1.0 - s) + y * s for x, y in zip(r1, r2))
                                     for r1, r2 in zip(a.rows, b.rows)))


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
