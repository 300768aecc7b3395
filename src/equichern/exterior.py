"""Exact exterior (Grassmann) algebra over a finite set of named 1-form generators.

Two coefficient backends share one Grassmann structure: sparse complex
polynomials in declared coordinates (supporting formal derivatives), and
plain complex numbers as the evaluation target.  Conjugate coordinates such
as ``z`` and ``zbar`` are independent symbols; the kernel never assumes
reality.  Generator subsets are stored as bitmasks in declaration order, so
every form has a unique canonical representation and equality is exact.  An
array of polynomials compiles, in plain Python, into one monomial table, so
its values on a grid of points are a single matrix product, which runs in
`equichern.kernels`, so this module loads no numpy.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

SYMBOLIC = "symbolic"
NUMERIC = "numeric"


class AlgebraError(Exception):
    """Base class for exterior-algebra usage errors."""


class AlgebraMismatchError(AlgebraError):
    """Operands belong to different algebras or backends."""


class BackendError(AlgebraError):
    """Operation not supported on this coefficient backend."""


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
        real.  Read by the model's ``conj_poly`` and ``full_point``,
        ``orientation_sign``, ``cartan_field``, the model parser's ``conj()``,
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

    def zero(self, backend: str = SYMBOLIC) -> "Form":
        return Form(self, backend, {})

    def one(self, backend: str = SYMBOLIC) -> "Form":
        return self.scalar(1.0, backend)

    def scalar(self, value, backend: str = SYMBOLIC) -> "Form":
        if backend == NUMERIC:
            return Form(self, backend, {0: complex(value)})
        if isinstance(value, Poly):
            return Form(self, backend, {0: value})
        return Form(self, backend, {0: self.const(value)})

    def gen(self, name: str, backend: str = SYMBOLIC) -> "Form":
        mask, _ = self.mask_of((name,))
        coeff = 1.0 + 0.0j if backend == NUMERIC else self.const(1.0)
        return Form(self, backend, {mask: coeff})

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
        """Evaluate at a point; raises naming the first unassigned coordinate."""
        coords = self.algebra.coordinates
        total = 0.0 + 0.0j
        for m, c in self.terms.items():
            val = c
            for i, e in enumerate(m):
                if e == 0:
                    continue
                name = coords[i]
                if name not in point:
                    raise EvaluationError(f"no value assigned to coordinate {name!r}")
                val *= complex(point[name]) ** e
            total += val
        return total

    def eval_grid(self, arrays):
        """Vectorized evaluation on coordinate arrays of a common shape."""
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


class CompiledPolys:
    """An array of polynomials compiled once, evaluated on grids as one product.

    ``polys`` is a nested sequence (or an object array) of polynomials, None
    for zero, of shape ``shape``.  Each polynomial at the flat positions
    ``rows`` is one row of ``coeffs``, against the monomials numbered in order
    of first appearance; the None entries are not compiled.  ``coeffs`` holds
    that complex matrix row-major as interleaved doubles and ``rows`` as
    64-bit integers, stdlib buffers that numpy reads without a copy.  A
    monomial is its ``factors``, pairs of a position in ``coords`` (the
    coordinates that occur) and an exponent of at most ``top`` there.  On
    coordinate arrays of one shape every monomial is formed once, from
    per-coordinate power tables, and the polynomials are ``coeffs @ monomials``
    (`equichern.kernels.entries`).
    """

    def __init__(self, algebra: ExteriorAlgebra, polys):
        self.shape, flat = _flatten(polys)
        self.rows = array("q", (r for r, f in enumerate(flat) if f is not None))
        monomials: dict[tuple, int] = {}
        terms = [(row, monomials.setdefault(mono, len(monomials)), c)
                 for row, r in enumerate(self.rows) for mono, c in flat[r].terms.items()]
        self.coeffs = array("d", bytes(16 * len(self.rows) * len(monomials)))
        for row, col, c in terms:
            k = 2 * (row * len(monomials) + col)
            self.coeffs[k], self.coeffs[k + 1] = c.real, c.imag
        used = [k for k in range(len(algebra.coordinates)) if any(m[k] for m in monomials)]
        self.coords = tuple(algebra.coordinates[k] for k in used)
        self.top = [max(m[k] for m in monomials) for k in used]
        self.factors = [[(n, m[k]) for n, k in enumerate(used) if m[k]] for m in monomials]

    def entries(self, arrays):
        """``shape`` + grid shape: each polynomial on the grid, exact zeros for None."""
        from .kernels import entries

        return entries(self, arrays)


def _flatten(polys) -> tuple[tuple[int, ...], list]:
    """The shape and the flat row-major entries of a nested sequence of polynomials."""
    if polys is None or isinstance(polys, Poly):
        return (), [polys]
    parts = [_flatten(p) for p in polys]
    shape = (len(parts),) + (parts[0][0] if parts else ())
    return shape, [f for _, flat in parts for f in flat]


def _coeff_is_zero(c) -> bool:
    if isinstance(c, Poly):
        return c.is_zero
    return c == 0


class Form:
    """Element of the exterior algebra: canonical generator subsets to coefficients."""

    __slots__ = ("algebra", "backend", "terms")

    def __init__(self, algebra: ExteriorAlgebra, backend: str, terms: Mapping[int, object]):
        if backend not in (SYMBOLIC, NUMERIC):
            raise BackendError(f"unknown backend {backend!r}")
        self.algebra = algebra
        self.backend = backend
        clean: dict[int, object] = {}
        for mask, coeff in terms.items():
            if backend == NUMERIC:
                coeff = complex(coeff)
            elif not isinstance(coeff, Poly):
                coeff = algebra.const(coeff)
            if not _coeff_is_zero(coeff):
                clean[int(mask)] = coeff
        self.terms = clean

    def _check(self, other: "Form"):
        if self.algebra is not other.algebra or self.backend != other.backend:
            raise AlgebraMismatchError("forms over different algebras or backends")

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Form(self.algebra, self.backend, out)

    def __neg__(self):
        return Form(self.algebra, self.backend, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            return self.wedge(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "Form":
        if self.backend == NUMERIC:
            factor = complex(factor)
        elif not isinstance(factor, Poly):
            factor = self.algebra.const(factor)
        return Form(self.algebra, self.backend,
                    {m: factor * c for m, c in self.terms.items()})

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
        return Form(self.algebra, self.backend, out)

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
        return Form(self.algebra, self.backend, out)

    def d(self) -> "Form":
        """Exterior derivative via the declared coordinate differentials."""
        if self.backend != SYMBOLIC:
            raise BackendError("exterior derivative requires the symbolic backend")
        out: dict[int, object] = {}
        for mask, coeff in self.terms.items():
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
        return Form(self.algebra, SYMBOLIC, out)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Mapping[str, complex]) -> "Form":
        """Evaluate polynomial coefficients at a point, yielding a numeric form."""
        if self.backend == NUMERIC:
            return self
        return Form(self.algebra, NUMERIC,
                    {m: c.evaluate(point) for m, c in self.terms.items()})

    # -- inspection --------------------------------------------------------------

    def coefficient(self, names: Iterable[str]):
        """Coefficient with respect to the given generator ordering (Berezin read-off)."""
        mask, sign = self.algebra.mask_of(names)
        if mask not in self.terms:
            if self.backend == NUMERIC:
                return 0.0 + 0.0j
            return self.algebra.const(0.0)
        c = self.terms[mask]
        return c if sign > 0 else -c

    def component(self, degree: int) -> "Form":
        return Form(self.algebra, self.backend,
                    {m: c for m, c in self.terms.items() if m.bit_count() == degree})

    @property
    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def norm_max(self) -> float:
        """Largest coefficient magnitude (over monomials, in the symbolic backend)."""
        if self.backend == NUMERIC:
            return max((abs(c) for c in self.terms.values()), default=0.0)
        return max((c.max_abs_coeff() for c in self.terms.values()), default=0.0)

    def isclose(self, other: "Form", tol: float = 1e-12) -> bool:
        self._check(other)
        if self.backend != NUMERIC:
            raise BackendError("isclose compares numeric forms")
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0) - other.terms.get(k, 0)) <= tol for k in keys)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.algebra is other.algebra and self.backend == other.backend
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.algebra), self.backend, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

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
