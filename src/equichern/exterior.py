"""Exact exterior (Grassmann) algebra over a model's named 1-form generators.

A `Form` maps canonical generator subsets to coefficients.  A coefficient is
either a `Poly` of the coordinate ring (`equichern.ring`, which also holds
the algebra class and its errors) or a ``complex``, a value at a point; its
type is the only mark of which a form holds.  `Form(algebra, terms)` keeps a
`Poly` as it is and turns any other value into a ``complex``.  The algebra's
``zero``, ``one``, ``scalar`` and ``gen`` build polynomial forms; numbers
enter only by evaluation (`Form.evaluate` and the evaluations built on it)
or by an explicit ``Form(algebra, {mask: value})``.  In arithmetic a number
meets a `Poly` as a constant polynomial (`Poly._coerce`); a missing
coefficient reads as ``0j``; ``d`` needs polynomials and ``isclose``
numbers, and either raises BackendError otherwise.  Generator subsets are
stored as bitmasks in declaration order, so every form has a unique
canonical representation and equality is exact, and every permutation sign
comes from `ring.merge_sign`.  Forms are built only where a curvature is
built (the superconnection's odd term, its curvature and the moment); a
symbol is a `ring.PolyMatrix`, and the symbol checks never load this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .ring import AlgebraError, AlgebraMismatchError, BackendError, Poly, merge_sign


class Form:
    """Element of the exterior algebra: canonical generator subsets to coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: Mapping[int, object]):
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
                if merge_sign(m1, m2) < 0:
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
                if merge_sign(bit, m) < 0:
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
                if merge_sign(gbit, mask) < 0:
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
        return self.terms[mask] if sign > 0 else -self.terms[mask]

    def component(self, degree: int) -> "Form":
        return Form(self.algebra, {m: c for m, c in self.terms.items() if m.bit_count() == degree})

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
