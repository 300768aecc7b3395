"""The coordinate ring: sparse polynomials, and square matrices of them with a grading.

`ExteriorAlgebra` names a model's polynomial coordinates (conjugates such as
``z`` and ``zbar`` are independent symbols; the ring never assumes reality)
and the 1-form generators of its exterior algebra.  `Poly`, a sparse complex
polynomial in the coordinates with formal derivatives, is an element of the
ring; `PolyMatrix`, rows of polynomials with a parity per row and column, is
a symbol as the model files write it and as the checks and the ellipticity
scan read it.  Forms (`equichern.exterior`) enter only where a curvature is
built: the algebra's form constructors ``zero``, ``one``, ``scalar`` and
``gen`` load that module when called, so the symbol checks compile no form.
A polynomial is evaluated at a point of scalars term by term in plain Python
(`equichern.pointwise.poly_value`, over its terms flattened to a number and
the coordinates it multiplies) and on a grid of points by
`equichern.polyeval.CompiledPolys`, which loads numpy; this module loads
neither until a value is asked for.  `full_point`, beside the algebra that
declares the conjugate pairs, completes a point or a grid with the
conjugate coordinates, for both evaluators.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

EVEN = 0
ODD = 1


class AlgebraError(Exception):
    """Base class for exterior-algebra usage errors."""


class AlgebraMismatchError(AlgebraError):
    """Operands belong to different algebras."""


class BackendError(AlgebraError):
    """Operation not supported on this kind of coefficient (number or polynomial)."""


class EvaluationError(AlgebraError):
    """A coordinate appearing in a coefficient was not assigned a value."""


class UnsupportedShapeError(ValueError):
    """Matrix shape outside what an algorithm supports (e.g. non-diagonal body)."""


def merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending bitmask subsets."""
    sign = 1
    while b:
        low = b & -b
        if (a >> low.bit_length()).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


class ExteriorAlgebra:
    """A Grassmann algebra with named generators over a ring of polynomial coordinates.

    Parameters
    ----------
    generators:
        1-form generator names; declaration order is the canonical order.
    coordinates:
        polynomial coordinate names (conjugates are separate entries).
    conjugates:
        declared conjugate pairs ``z -> zbar``; a coordinate in no pair is
        real.  Read by the model's ``conj_poly``, `full_point` (beside this
        class), ``orientation_sign``, the model parser's ``conj()``,
        the Gaussian moments (``quadrature.gaussian_integral``) and the
        ellipticity scan.
    """

    def __init__(
        self,
        generators: Sequence[str],
        coordinates: Sequence[str] = (),
        conjugates: Mapping[str, str] | None = None,
    ):
        if len(set(generators)) != len(generators):
            raise AlgebraError("generator names must be unique")
        if len(set(coordinates)) != len(coordinates):
            raise AlgebraError("coordinate names must be unique")
        self.generators = tuple(generators)
        self.coordinates = tuple(coordinates)
        self.gen_index = {g: i for i, g in enumerate(self.generators)}
        self.coord_index = {c: i for i, c in enumerate(self.coordinates)}
        self.n_components = 1 << len(self.generators)
        # the exterior derivative takes coordinate x to the generator dx
        self.differentials = {c: "d" + c for c in self.coordinates
                              if "d" + c in self.gen_index}
        self.conjugates = dict(conjugates or {})
        self._words: dict[tuple, tuple[int, int]] = {}
        paired = list(self.conjugates) + list(self.conjugates.values())
        if len(set(paired)) != len(paired) or not set(paired) <= set(self.coordinates):
            raise AlgebraError("conjugate pairs must be disjoint declared coordinates")

    # -- polynomial constructors ------------------------------------------

    def const(self, value: complex) -> "Poly":
        zero = (0,) * len(self.coordinates)
        return Poly(self, {zero: value})

    def coord(self, name: str) -> "Poly":
        if name not in self.coord_index:
            raise AlgebraError(f"unknown coordinate {name!r}")
        exps = [0] * len(self.coordinates)
        exps[self.coord_index[name]] = 1
        return Poly(self, {tuple(exps): 1.0})

    # -- form constructors (equichern.exterior loads with the first) ----------

    def zero(self):
        return self.scalar(0.0)

    def one(self):
        return self.scalar(1.0)

    def scalar(self, value):
        from .exterior import Form

        return Form(self, {0: value if isinstance(value, Poly) else self.const(value)})

    def gen(self, name: str):
        from .exterior import Form

        mask, _ = self.mask_of((name,))
        return Form(self, {mask: self.const(1.0)})

    def mask_of(self, names: Iterable[str]) -> tuple[int, int]:
        """Bitmask of a generator tuple plus the sign of sorting it canonically.

        Each word that passes its checks is kept, so reading it again is one lookup.
        """
        names = tuple(names)
        if names not in self._words:
            mask, sign = 0, 1
            for name in names:
                if name not in self.gen_index:
                    raise AlgebraError(f"unknown generator {name!r}")
                bit = 1 << self.gen_index[name]
                if mask & bit:
                    raise AlgebraError("repeated generator in subset")
                sign *= merge_sign(mask, bit)
                mask |= bit
            self._words[names] = mask, sign
        return self._words[names]

    def __repr__(self):
        return f"ExteriorAlgebra(generators={self.generators}, coordinates={self.coordinates})"


def full_point(algebra: ExteriorAlgebra, point: Mapping[str, complex]) -> dict[str, complex]:
    """Extend a point on the real locus with its conjugate coordinates.

    The values may be numbers or numpy arrays; conjugates are taken
    elementwise.
    """
    added = {b: point[a].conjugate() for a, b in algebra.conjugates.items()
             if a in point and b not in point}
    return {**point, **added}


class Poly:
    """Sparse polynomial: exponent tuple over the algebra's coordinates -> coefficient."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: ExteriorAlgebra, terms: Mapping[tuple, complex]):
        self.algebra = algebra
        self.terms = {
            tuple(m): complex(c) for m, c in terms.items() if complex(c) != 0
        }

    def _check(self, other: "Poly"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("polynomials over different algebras")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Poly(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return self.algebra.const(other)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        out: dict[tuple, complex] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0.0) + c1 * c2
        return Poly(self.algebra, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.algebra.const(1.0)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, coord: str) -> "Poly":
        """Formal partial derivative with respect to a declared coordinate."""
        i = self.algebra.coord_index[coord]
        out: dict[tuple, complex] = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = m[:i] + (m[i] - 1,) + m[i + 1:]
                out[m2] = out.get(m2, 0.0) + c * m[i]
        return Poly(self.algebra, out)

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        """The value at a point of scalars, term by term (`pointwise.poly_value`)."""
        from .pointwise import poly_value

        return poly_value(self, point)

    def eval_grid(self, arrays):
        """Vectorized evaluation on coordinate arrays of a common shape."""
        from .polyeval import CompiledPolys

        return CompiledPolys(self.algebra, self).entries(arrays)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self) -> complex:
        zero = (0,) * len(self.algebra.coordinates)
        return self.terms.get(zero, 0.0 + 0.0j)

    def without_constant(self) -> "Poly":
        zero = (0,) * len(self.algebra.coordinates)
        return Poly(self.algebra, {m: c for m, c in self.terms.items() if m != zero})

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        coords = self.algebra.coordinates
        parts = []
        for m, c in sorted(self.terms.items()):
            factors = [f"{coords[i]}^{e}" if e > 1 else coords[i]
                       for i, e in enumerate(m) if e > 0]
            parts.append("*".join([f"({c})"] + factors) if factors else f"({c})")
        return " + ".join(parts)


class PolyMatrix(NamedTuple):
    """A square matrix of polynomials over one algebra, with a parity (EVEN or ODD) per row.

    Entry (i, j) has parity ``parities[i] + parities[j]`` mod 2: a symbol is
    odd, zero on the blocks that join rows and columns of equal parity.
    `supermatrix.SuperMatrix` wraps the rows where a curvature is built.
    """

    algebra: ExteriorAlgebra
    parities: tuple[int, ...]
    rows: tuple[tuple[Poly, ...], ...]
