"""Structured-text model files: coordinates, bundles and symbol matrix.

The format is line-based with bracketed sections; symbol entries are
polynomial strings over the declared coordinates (complex literals, names,
+ - * ^, parentheses, and conj(name) for the conjugate symbol).  No code is
executed; parse errors carry line and column.

Example::

    model c-plane
    [coordinates]
    z  complex weight=1 role=base
    xi complex weight=1 role=fiber
    [bundle.E]
    summand weight=0 parity=even
    summand weight=1 parity=odd
    [bundle.W]
    summand weight=0 parity=even
    summand weight=1 parity=odd
    [symbol]
    0, conj(z) - i*conj(xi)
    z + i*xi, 0
"""

from __future__ import annotations

import cmath
import re
from importlib import resources
from typing import NamedTuple, Sequence

from .exterior import Poly
from .geometry import COMPLEX, ActionModel, BundleSpec, Coordinate, augmented_symbol
from .supermatrix import UnsupportedShapeError


class ModelParseError(ValueError):
    """Syntax or semantic error in a model file, with source location."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- polynomial expressions -------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[+\-*^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


# Largest power accepted after ``^``: Poly.__pow__ multiplies once per unit of
# the exponent, and symbols of interest have low degree.
MAX_EXPONENT = 64
# Deepest nesting of parentheses and unary minus signs accepted in an entry:
# the parser recurses once per level, and Python's recursion limit is finite.
MAX_NESTING = 64


class _Token(NamedTuple):
    kind: str
    text: str
    col: int


def _tokenize(text: str, line: int) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ModelParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    out.append(_Token("end", "", len(text) + 1))
    return out


class _PolyParser:
    """Recursive-descent parser producing a sparse polynomial."""

    def __init__(self, tokens: list[_Token], model: ActionModel, line: int):
        self.tokens = tokens
        self.model = model
        self.line = line
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        raise ModelParseError(msg, self.line, self.peek().col)

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r}")
        # a product of finite literals can overflow, and inf * i is nan
        if not all(map(cmath.isfinite, p.terms.values())):
            raise ModelParseError("a coefficient overflows a double", self.line)
        return p

    def expr(self) -> Poly:
        sign = 1.0
        while self.peek().text in ("+", "-"):
            if self.next().text == "-":
                sign = -sign
        p = self.term() * sign
        while self.peek().text in ("+", "-"):
            op = self.next().text
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek().text == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        p = self.atom()
        if self.peek().text == "^":
            self.next()
            t = self.next()
            if t.kind != "num" or "." in t.text:
                raise ModelParseError("exponent must be a nonnegative integer",
                                      self.line, t.col)
            digits = t.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ModelParseError(f"exponent above {MAX_EXPONENT}",
                                      self.line, t.col)
            p = p ** int(digits)
        return p

    def atom(self) -> Poly:
        t = self.next()
        alg = self.model.algebra
        if t.text in ("-", "("):
            return self.nested(t)
        if t.kind == "num":
            if not cmath.isfinite(float(t.text)):
                raise ModelParseError("number overflows a double", self.line, t.col)
            return alg.const(float(t.text))
        if t.kind == "name":
            if t.text == "i":
                return alg.const(1j)
            if t.text == "conj":
                lp = self.next()
                if lp.text != "(":
                    raise ModelParseError("expected '(' after conj", self.line, lp.col)
                name = self.next()
                if name.kind != "name":
                    raise ModelParseError("expected coordinate name in conj()",
                                          self.line, name.col)
                rp = self.next()
                if rp.text != ")":
                    raise ModelParseError("expected ')'", self.line, rp.col)
                bar = self.model.algebra.conjugates.get(name.text)
                if bar is None:
                    raise ModelParseError(
                        f"coordinate {name.text!r} has no conjugate", self.line, name.col)
                return alg.coord(bar)
            if t.text in alg.coord_index:
                return alg.coord(t.text)
            raise ModelParseError(f"unknown coordinate {t.text!r}", self.line, t.col)
        raise ModelParseError(f"unexpected {t.text!r}", self.line, t.col)

    def nested(self, t: _Token) -> Poly:
        """A unary minus or a parenthesized expression, opened by ``t``, one level deeper."""
        if self.depth == MAX_NESTING:
            raise ModelParseError(
                f"parentheses and unary signs nested more than {MAX_NESTING} deep",
                self.line, t.col)
        self.depth += 1
        if t.text == "-":
            p = -self.atom()
        else:
            p = self.expr()
            closing = self.next()
            if closing.text != ")":
                raise ModelParseError("expected ')'", self.line, closing.col)
        self.depth -= 1
        return p


def parse_polynomial(text: str, model: ActionModel, line: int = 1) -> Poly:
    return _PolyParser(_tokenize(text, line), model, line).parse()


# -- model files --------------------------------------------------------------------

_KV_RE = re.compile(r"(\w+)\s*=\s*([^\s]+)")


def _parse_kv(parts: Sequence[str], line: int) -> dict[str, str]:
    out = {}
    for part in parts:
        m = _KV_RE.fullmatch(part)
        if not m:
            raise ModelParseError(f"expected key=value, got {part!r}", line)
        out[m.group(1)] = m.group(2)
    return out


# Largest integer magnitude a float holds exactly; weights enter float arithmetic.
_MAX_WEIGHT = 2 ** 53


def _int_value(kv: dict[str, str], key: str, line: int) -> int:
    try:
        value = int(kv.get(key, "0"))
    except ValueError:
        raise ModelParseError(f"{key} must be an integer, got {kv[key]!r}", line) from None
    if abs(value) > _MAX_WEIGHT:
        raise ModelParseError(f"{key} must be at most 2**53 in magnitude", line)
    return value


# The section headers a model file may use, lower-cased.
_SECTIONS = ("coordinates", "bundle.e", "bundle.w", "symbol")


def parse_model_text(text: str) -> ActionModel:
    """Parse a model document into an ActionModel; errors carry line/column.

    The model's superconnection odd term is i times its augmented symbol.
    """
    name = None
    coords: list[Coordinate] = []
    taken: dict[str, int] = {}  # coordinate names, conjugates included -> line
    roles: dict[str, list[tuple[Coordinate, int]]] = {"base": [], "fiber": []}
    bundles: dict[str, list[tuple[int, int]]] = {"e": [], "w": []}
    section_lines: dict[str, int] = {}
    symbol_lines: list[tuple[int, str]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("model "):
            name = stripped[len("model "):].strip()
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ModelParseError(
                    f"unknown section {stripped!r}; expected [coordinates], "
                    "[bundle.E], [bundle.W] or [symbol]", lineno)
            section_lines.setdefault(section, lineno)
            continue
        if section == "coordinates":
            parts = stripped.split()
            if len(parts) < 2:
                raise ModelParseError("expected: name kind [weight=..] [role=..]",
                                      lineno)
            kv = _parse_kv(parts[2:], lineno)
            weight = _int_value(kv, "weight", lineno)
            try:
                coord = Coordinate(parts[0], parts[1], weight, kv.get("role", "base"))
            except ValueError as exc:
                raise ModelParseError(str(exc), lineno) from None
            # a complex coordinate z also declares its conjugate zbar
            names = [coord.name] + ([coord.name + "bar"] if coord.kind == COMPLEX else [])
            for n in names:
                if n in taken:
                    raise ModelParseError(
                        f"coordinate name {n!r} already declared on line {taken[n]}",
                        lineno)
                taken[n] = lineno
            coords.append(coord)
            roles[coord.role].append((coord, lineno))
        elif section in ("bundle.e", "bundle.w"):
            parts = stripped.split()
            if parts[0] != "summand":
                raise ModelParseError("expected 'summand weight=.. parity=..'", lineno)
            kv = _parse_kv(parts[1:], lineno)
            parity = {"even": 0, "odd": 1}.get(kv.get("parity", "even"))
            if parity is None:
                raise ModelParseError(f"bad parity {kv.get('parity')!r}", lineno)
            bundles[section.split(".", 1)[1]].append(
                (_int_value(kv, "weight", lineno), parity))
        elif section == "symbol":
            symbol_lines.append((lineno, stripped))
        else:
            raise ModelParseError(f"content outside a known section: {stripped!r}",
                                  lineno)
    if name is None:
        raise ModelParseError("missing 'model <name>' header", 1)
    if not coords:
        raise ModelParseError("no coordinates declared", 1)
    # the orbital projection is built for one complex base and one fiber
    for role, declared in roles.items():
        if not declared:
            raise ModelParseError(f"no {role} coordinate declared",
                                  section_lines["coordinates"])
        if len(declared) > 1:
            raise ModelParseError(f"a second {role} coordinate "
                                  f"{declared[1][0].name!r}; exactly one is supported",
                                  declared[1][1])
    base, base_line = roles["base"][0]
    if base.kind != COMPLEX:
        raise ModelParseError(f"base coordinate {base.name!r} must be complex", base_line)
    if not bundles["e"]:
        raise ModelParseError("missing [bundle.E] section", 1)
    if not bundles["w"]:
        raise ModelParseError("missing [bundle.W] section (the Clifford-model bundle)", 1)
    # the orbital Clifford augmentation is built for rank-2 E and W
    for key in ("e", "w"):
        if len(bundles[key]) != 2:
            raise ModelParseError(f"[bundle.{key.upper()}] must have two summands",
                                  section_lines["bundle." + key])
    if not symbol_lines:
        raise ModelParseError("missing [symbol] section", 1)
    # zip(*summands) splits the (weight, parity) pairs into weights and parities
    model = ActionModel(name, coords, BundleSpec(*zip(*bundles["e"])),
                        BundleSpec(*zip(*bundles["w"])))

    dim = model.bundle_e.rank
    if len(symbol_lines) != dim:
        raise ModelParseError(
            f"symbol must have {dim} rows, found {len(symbol_lines)}",
            symbol_lines[0][0])
    rows = []
    for r, (lineno, content) in enumerate(symbol_lines):
        cells = content.split(",")
        if len(cells) != dim:
            raise ModelParseError(
                f"symbol row {r + 1} must have {dim} comma-separated entries",
                lineno)
        row = []
        for c, cell in enumerate(cells):
            try:
                poly = parse_polynomial(cell.strip(), model, lineno)
            except ModelParseError as exc:
                raise ModelParseError(
                    f"symbol entry ({r + 1},{c + 1}): {exc.message}",
                    lineno, exc.col) from None
            row.append(model.algebra.scalar(poly))
        rows.append(row)
    try:
        model.set_symbol(rows)
    except ValueError as exc:
        raise ModelParseError(str(exc), symbol_lines[0][0]) from None
    odd_term = augmented_symbol(model).scale(1j)
    try:
        model.set_odd_term(odd_term)
    except UnsupportedShapeError:
        # the symbol is odd, so only an ungraded W makes the Clifford part even
        raise ModelParseError(
            "[bundle.W] must have one even and one odd summand",
            section_lines["bundle.w"]) from None
    return model


def parse_model_file(path) -> ActionModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read())


def builtin_model_text(name: str) -> str:
    """Text of a model file shipped with the package."""
    fname = name.replace("-", "_") + ".model"
    return resources.files("equichern").joinpath("models", fname).read_text()
