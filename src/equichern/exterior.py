"""Exact exterior (Grassmann) algebra over a finite set of named 1-form generators.

A coefficient is either a `Poly`, a sparse complex polynomial in the declared
coordinates (with formal derivatives), or a ``complex``, a value at a point;
its type is the only mark of which a form holds.  `Form(algebra, terms)`
keeps a `Poly` as it is and turns any other value into a ``complex``.
``zero``, ``one``, ``scalar`` and ``gen`` build polynomial forms; numbers
enter only by evaluation (`Form.evaluate` and the evaluations built on it)
or by an explicit ``Form(algebra, {mask: value})``.  In arithmetic a number
meets a `Poly` as a constant polynomial (`Poly._coerce`); a missing
coefficient reads as ``0j``; ``d`` needs polynomials and ``isclose``
numbers, and either raises BackendError otherwise.  Conjugate coordinates
such as ``z`` and ``zbar`` are independent symbols; the kernel never
assumes reality.  Generator subsets are stored as bitmasks in declaration
order, so every form has a unique canonical representation and equality
is exact.
At a point of scalars, polynomials and forms are evaluated term by term in
plain Python (`equichern.pointwise.poly_value`); on a grid of points, by
`equichern.polyeval.CompiledPolys`, one product of a coefficient matrix and
the monomials, which loads numpy.  This module loads neither until a value
is asked for.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


class AlgebraError(Exception):
    """Base class for exterior-algebra usage errors."""


class AlgebraMismatchError(AlgebraError):
    """Operands belong to different algebras."""


class BackendError(AlgebraError):
    """Operation not supported on this kind of coefficient (number or polynomial)."""


class EvaluationError(AlgebraError):
    """A coordinate appearing in a coefficient was not assigned a value."""


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending bitmask subsets."""
    sign = 1
    while b:
        low = b & -b
        if (a >> low.bit_length()).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


class ExteriorAlgebra:
    """A Grassmann algebra with named generators and polynomial coordinates.

    Parameters
    ----------
    generators:
        1-form generator names; declaration order is the canonical order.
    coordinates:
        polynomial coordinate names (conjugates are separate entries).
    conjugates:
        declared conjugate pairs ``z -> zbar``; a coordinate in no pair is
        real.  Read by the model's ``conj_poly``, ``polyeval.full_point``,
        ``orientation_sign``, the model parser's ``conj()``,
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

    # -- form constructors --------------------------------------------------

    def zero(self) -> "Form":
        return Form(self, {})

    def one(self) -> "Form":
        return self.scalar(1.0)

    def scalar(self, value) -> "Form":
        return Form(self, {0: value if isinstance(value, Poly) else self.const(value)})

    def gen(self, name: str) -> "Form":
        mask, _ = self.mask_of((name,))
        return Form(self, {mask: self.const(1.0)})

    def mask_of(self, names: Iterable[str]) -> tuple[int, int]:
        """Bitmask of a generator tuple plus the sign of sorting it canonically."""
        mask, sign = 0, 1
        for name in names:
            if name not in self.gen_index:
                raise AlgebraError(f"unknown generator {name!r}")
            bit = 1 << self.gen_index[name]
            if mask & bit:
                raise AlgebraError("repeated generator in subset")
            sign *= _merge_sign(mask, bit)
            mask |= bit
        return mask, sign

    # -- numeric multiplication table ---------------------------------------

    def pair_table(self) -> list[tuple[int, int, int, float]]:
        """Wedge structure: every disjoint pair (a, b), its union c and sign."""
        K = self.n_components
        return [(a, b, a | b, float(_merge_sign(a, b)))
                for a in range(K) for b in range(K) if not a & b]

    def __repr__(self):
        return f"ExteriorAlgebra(generators={self.generators}, coordinates={self.coordinates})"


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

    def __radd__(self, other):
        return self.__add__(other)

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

    def __rmul__(self, other):
        return self.__mul__(other)

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
            if m[i] == 0:
                continue
            m2 = list(m)
            m2[i] -= 1
            m2 = tuple(m2)
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


class Form:
    """Element of the exterior algebra: canonical generator subsets to coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: ExteriorAlgebra, terms: Mapping[int, object]):
        self.algebra = algebra
        clean: dict[int, object] = {}
        for mask, coeff in terms.items():
            if isinstance(coeff, Poly):
                if coeff.is_zero:
                    continue
            elif not (coeff := complex(coeff)):
                continue
            clean[int(mask)] = coeff
        self.terms = clean

    def _check(self, other: "Form"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("forms over different algebras")

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Form(self.algebra, out)

    def __neg__(self):
        return Form(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            return self.wedge(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "Form":
        if not isinstance(factor, Poly):
            factor = complex(factor)
        return Form(self.algebra, {m: factor * c for m, c in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        """Exterior product; generator squares vanish, signs from transpositions."""
        self._check(other)
        out: dict[int, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                c = c1 * c2
                if _merge_sign(m1, m2) < 0:
                    c = -c
                out[m] = out[m] + c if m in out else c
        return Form(self.algebra, out)

    # -- graded derivations ---------------------------------------------------

    def interior(self, vector: Mapping[str, object]) -> "Form":
        """Contraction with a vector field given by components dual to the generators."""
        gi = self.algebra.gen_index
        comps = {}
        for name, val in vector.items():
            if name not in gi:
                raise AlgebraError(f"unknown generator {name!r}")
            comps[gi[name]] = val
        order = sorted(comps)
        out: dict[int, object] = {}
        for mask, coeff in self.terms.items():
            for i in order:
                bit = 1 << i
                if not mask & bit:
                    continue
                m = mask ^ bit
                c = coeff * comps[i]
                if _merge_sign(bit, m) < 0:
                    c = -c
                out[m] = out[m] + c if m in out else c
        return Form(self.algebra, out)

    def d(self) -> "Form":
        """Exterior derivative via the declared coordinate differentials."""
        out: dict[int, object] = {}
        for mask, coeff in self.terms.items():
            if not isinstance(coeff, Poly):
                raise BackendError("the exterior derivative needs polynomial coefficients")
            for coord, gen in self.algebra.differentials.items():
                dc = coeff.diff(coord)
                if dc.is_zero:
                    continue
                gbit = 1 << self.algebra.gen_index[gen]
                if gbit & mask:
                    continue
                m = gbit | mask
                if _merge_sign(gbit, mask) < 0:
                    dc = -dc
                out[m] = out[m] + dc if m in out else dc
        return Form(self.algebra, out)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Mapping[str, complex]) -> "Form":
        """Evaluate polynomial coefficients at a point, yielding a form of numbers."""
        return Form(self.algebra, {m: c.evaluate(point) if isinstance(c, Poly) else c
                                   for m, c in self.terms.items()})

    # -- inspection --------------------------------------------------------------

    def coefficient(self, names: Iterable[str]):
        """Coefficient with respect to the given generator ordering (Berezin read-off)."""
        mask, sign = self.algebra.mask_of(names)
        if mask not in self.terms:
            return 0j
        c = self.terms[mask]
        return c if sign > 0 else -c

    def component(self, degree: int) -> "Form":
        return Form(self.algebra, {m: c for m, c in self.terms.items() if m.bit_count() == degree})

    @property
    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def norm_max(self) -> float:
        """Largest coefficient magnitude (over monomials, for a polynomial coefficient)."""
        return max((c.max_abs_coeff() if isinstance(c, Poly) else abs(c)
                    for c in self.terms.values()), default=0.0)

    def isclose(self, other: "Form", tol: float = 1e-12) -> bool:
        self._check(other)
        if any(isinstance(c, Poly) for f in (self, other) for c in f.terms.values()):
            raise BackendError("isclose compares forms of numbers")
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0) - other.terms.get(k, 0)) <= tol for k in keys)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self.terms:
            return "0"
        gens = self.algebra.generators
        parts = []
        for mask in sorted(self.terms):
            names = [gens[i] for i in range(len(gens)) if mask & (1 << i)]
            word = "^".join(names) if names else "1"
            parts.append(f"({self.terms[mask]})*{word}")
        return " + ".join(parts)
