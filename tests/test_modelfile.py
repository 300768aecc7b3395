import re
from pathlib import Path

import pytest

from equichern.geometry import augmented_symbol
from equichern.homotopy import c_plane
from equichern.modelfile import (
    MAX_EXPONENT,
    MAX_NESTING,
    ModelParseError,
    builtin_model_text,
    parse_model_text,
    parse_polynomial,
)
from equichern.polyeval import full_point


@pytest.fixture(scope="module")
def parsed_plane():
    return parse_model_text(builtin_model_text("c-plane"))


class TestPolynomialParser:
    def test_basic_arithmetic(self, parsed_plane):
        p = parse_polynomial("2*z + i*xi - 1", parsed_plane)
        pt = {"z": 1.5, "xi": 2.0, "zbar": 1.5, "xibar": 2.0}
        assert p.evaluate(pt) == 2 * 1.5 + 1j * 2.0 - 1

    def test_conjugate_marker(self, parsed_plane):
        p = parse_polynomial("conj(z) - i*conj(xi)", parsed_plane)
        pt = {"z": 1 + 2j, "zbar": 1 - 2j, "xi": 3j, "xibar": -3j}
        assert p.evaluate(pt) == (1 - 2j) - 1j * (-3j)

    def test_powers_and_parens(self, parsed_plane):
        p = parse_polynomial("(z + 1)^2", parsed_plane)
        assert p.evaluate({"z": 2.0}) == 9.0

    def test_unknown_coordinate(self, parsed_plane):
        with pytest.raises(ModelParseError, match="unknown coordinate"):
            parse_polynomial("w + 1", parsed_plane)

    def test_location_in_errors(self, parsed_plane):
        with pytest.raises(ModelParseError) as err:
            parse_polynomial("z + %", parsed_plane, line=7)
        assert err.value.line == 7
        assert err.value.col == 5


class TestModelFiles:
    def test_plane_round_trip(self, parsed_plane):
        built = c_plane()
        assert parsed_plane.name == built.name
        assert parsed_plane.bundle_script_e.weights == built.bundle_script_e.weights
        # symbol matrices agree entrywise (value comparison: the parsed model
        # carries its own algebra instance)
        pt = full_point(parsed_plane.algebra, {"z": 0.3 + 1j, "xi": -0.4j})
        for i in range(2):
            for j in range(2):
                a = parsed_plane.symbol.entries[i][j].evaluate(pt)
                b = built.symbol.entries[i][j].evaluate(pt)
                assert a.terms.get(0, 0) == b.terms.get(0, 0)

    def test_readme_example_is_the_shipped_model(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"## Model files\n.*?```\n(.*?)```", readme, re.S).group(1)
        shipped = builtin_model_text("c-plane")
        assert shipped.startswith("# ")
        assert example == shipped.split("\n", 1)[1]
        assert parse_model_text(example).name == "c-plane"

    def test_augmentable(self, parsed_plane):
        aug = augmented_symbol(parsed_plane)
        assert aug.dim == 4

    def test_parse_builds_no_superconnection(self, parsed_plane):
        # the transversal checks read the symbol only; no Chern form is built
        assert parsed_plane.odd_term is None
        assert parsed_plane.curvature is None

    def test_constant_symbol_file(self):
        model = parse_model_text(builtin_model_text("constant-symbol"))
        assert model.name == "constant-symbol"
        assert model.symbol.entries[0][1].terms[0].is_constant

    def test_missing_header(self):
        with pytest.raises(ModelParseError, match="model"):
            parse_model_text("[coordinates]\nz complex weight=1\n")

    def test_symbol_entry_error_names_entry(self):
        text = builtin_model_text("c-plane").replace("z + i*xi", "z + i*%xi")
        with pytest.raises(ModelParseError, match=r"symbol entry \(2,1\)"):
            parse_model_text(text)

    @pytest.mark.parametrize("old, new, where", [
        # a later entry: the column once counted from the stripped cell (col 22)
        ("0, conj(z) - i*conj(xi)", "0,   conj(z) - i*conj(xi) q",
         r"line 13, col 27: symbol entry \(1,2\): unexpected 'q'"),
        # a trailing token after a whole entry
        ("z + i*xi, 0", "z + i*xi z, 0", r"line 14, col 10: symbol entry \(2,1\): unexpected 'z'"),
        ("z + i*xi, 0", "z + i*xi), 0", r"line 14, col 9: symbol entry \(2,1\): unexpected '\)'"),
        # an indented line, counted with its indentation
        ("z + i*xi, 0", "  z + i*xi, 0 %",
         r"line 14, col 15: symbol entry \(2,2\): unexpected character '%'"),
    ], ids=["later-entry", "trailing-name", "trailing-paren", "indented-line"])
    def test_symbol_entry_error_column_is_in_the_line(self, old, new, where):
        text = builtin_model_text("c-plane")
        assert old in text
        with pytest.raises(ModelParseError, match=f"^{where}$"):
            parse_model_text(text.replace(old, new))

    def test_wrong_row_count(self):
        text = builtin_model_text("c-plane").replace("z + i*xi, 0\n", "")
        with pytest.raises(ModelParseError, match="rows"):
            parse_model_text(text)

    def test_even_symbol_rejected(self):
        text = builtin_model_text("constant-symbol").replace(
            "0, 1", "1, 0").replace("1, 0\n1, 0", "1, 0\n0, 1")
        with pytest.raises(ModelParseError, match="odd"):
            parse_model_text(text)

    @pytest.mark.parametrize("old, new, message", [
        ("z  complex weight=1", "z  complex weight=" + "9" * 400, r"line 4,.*2\*\*53"),
        ("summand weight=1 parity=odd\n[symbol]",
         f"summand weight={-2 ** 53 - 1} parity=odd\n[symbol]", r"line 11,.*2\*\*53"),
        # the header of the removed [options] section is an unknown section
        pytest.param("z + i*xi, 0\n", "z + i*xi, 0\n[options]\nx_support = 2.0\n",
                     r"line 15,.*unknown section '\[options\]'",
                     id="options-section"),
    ])
    def test_out_of_range_numbers_rejected(self, old, new, message):
        # a weight beyond float range once crashed the augmentation
        text = builtin_model_text("c-plane")
        assert old in text
        with pytest.raises(ModelParseError, match=message):
            parse_model_text(text.replace(old, new))

    @pytest.mark.parametrize("tail", ["[options]\n", "[sybmol]\n",
                                      "[bundle.F]\nsummand weight=5 parity=odd\n"])
    def test_unknown_section_rejected(self, tail):
        # any other bracketed header once parsed to the model without it
        text = builtin_model_text("c-plane") + tail
        header = tail.splitlines()[0]
        with pytest.raises(ModelParseError,
                           match=rf"line 15,.*unknown section '{re.escape(header)}'"):
            parse_model_text(text)

    def test_largest_weight_accepted(self):
        text = builtin_model_text("c-plane").replace(
            "summand weight=1 parity=odd\n[symbol]",
            f"summand weight={2 ** 53} parity=odd\n[symbol]")
        assert parse_model_text(text).bundle_w.weights == (0, 2 ** 53)

    def test_largest_exponent_accepted(self):
        text = builtin_model_text("c-plane").replace("z + i*xi", "z^64 + i*xi")
        entry = parse_model_text(text).symbol.entries[1][0].terms[0]
        assert MAX_EXPONENT == 64
        assert max(max(m) for m in entry.terms) == 64

    @pytest.mark.parametrize("power", ["65", "0065", "1000000000", "9" * 5000])
    def test_exponent_above_the_cap_rejected(self, power):
        # Poly.__pow__ multiplies once per unit, so a huge power once stalled
        text = builtin_model_text("c-plane").replace("z + i*xi", f"z^{power} + i*xi")
        with pytest.raises(ModelParseError, match="line 14, col 3: .*exponent above 64"):
            parse_model_text(text)

    def test_nesting_up_to_the_cap_accepted(self, parsed_plane):
        assert MAX_NESTING == 64
        z = parsed_plane.algebra.coord("z")
        assert parse_polynomial("(" * 64 + "z" + ")" * 64, parsed_plane) == z
        assert parse_polynomial("z*" + "-" * 64 + "z", parsed_plane) == z * z
        # each "(z*-" opens two levels: the parenthesis and the unary minus
        assert parse_polynomial("(z*-" * 32 + "z" + ")" * 32, parsed_plane) == z ** 33

    @pytest.mark.parametrize("entry, col", [
        ("(" * 65 + "z" + ")" * 65, 65),
        ("z*" + "-" * 65 + "z", 67),
        ("(z*-" * 33 + "z" + ")" * 33, 129),
        # deep enough to pass Python's recursion limit without the cap
        ("(" * 247 + "z" + ")" * 247, 65),
        ("z*" + "-" * 986 + "z", 67),
    ])
    def test_nesting_above_the_cap_rejected(self, entry, col):
        text = builtin_model_text("c-plane").replace("z + i*xi", entry)
        with pytest.raises(ModelParseError,
                           match=f"line 14, col {col}: .*nested more than 64 deep"):
            parse_model_text(text)

    def test_leading_signs_count_toward_the_cap(self, parsed_plane):
        # a leading sign is a nesting level like any other sign
        z = parsed_plane.algebra.coord("z")
        assert parse_polynomial("-" * 64 + "z", parsed_plane) == z
        with pytest.raises(ModelParseError, match="col 65: .*nested more than 64 deep"):
            parse_polynomial("-" * 65 + "z", parsed_plane)


class TestSigns:
    @pytest.mark.parametrize("entry, same", [
        ("z + -xi^2", "z - xi^2"),
        ("2*-z^2", "-2*z^2"),
        ("z - -z^2", "z + z^2"),
        ("-z^2", "-(z^2)"),
        ("z*+xi", "z*xi"),
        ("-2^2*z", "-4*z"),
        ("conj(z) + -conj(xi)^2", "conj(z) - conj(xi)^2"),
        ("(-z)^2", "z^2"),
    ])
    def test_a_sign_binds_looser_than_a_power_wherever_it_stands(self, parsed_plane,
                                                                 entry, same):
        assert parse_polynomial(entry, parsed_plane) == parse_polynomial(same, parsed_plane)


@pytest.mark.parametrize("entry, col", [
    ("conj", 1), ("conj(", 1), ("conj(z", 1), ("conj(1)", 1), ("conj z", 1),
    ("z + conj(xi", 5), ("conj()", 1), ("conj(z))", 8),
])
def test_malformed_conj_is_a_parse_error_with_a_column(parsed_plane, entry, col):
    with pytest.raises(ModelParseError) as err:
        parse_polynomial(entry, parsed_plane)
    assert err.value.col == col


# -- a grammar oracle: drawn expression trees against Python complex arithmetic ------

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # declared in the test extra, but skip where it is absent
    hypothesis = None

# Binding levels of a rendered tree: a sum, a product, a signed factor, a power
# and an atom.  An operand below the level its place needs is parenthesized.
SUM, PRODUCT, SIGNED, POWER, ATOM = range(5)


def _decimal(digits: int, point: int) -> str:
    text = str(digits)
    point = min(point, len(text))
    return text[:len(text) - point] + "." + text[len(text) - point:] if point else text


if hypothesis is not None:
    _leaves = st.one_of(
        st.builds(lambda d, p: ("num", _decimal(d, p)), st.integers(0, 999), st.integers(0, 3)),
        st.just(("i",)),
        st.sampled_from(("z", "xi")).map(lambda n: ("coord", n)),
        st.sampled_from(("z", "xi")).map(lambda n: ("conj", n)))
    _trees = st.recursive(_leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*"), kids, kids),
        st.tuples(st.sampled_from(("neg", "pos")), kids),
        st.tuples(st.just("^"), kids, st.integers(0, 3)),
        st.tuples(st.just("paren"), kids)), max_leaves=10)


def _render(tree) -> tuple[list[str], int]:
    """Tokens of ``tree`` in model syntax, and their binding level."""
    def at(level, sub):
        tokens, got = _render(sub)
        return ["(", *tokens, ")"] if got < level else tokens

    kind = tree[0]
    if kind == "num":
        return [tree[1]], ATOM
    if kind == "i":
        return ["i"], ATOM
    if kind == "coord":
        return [tree[1]], ATOM
    if kind == "conj":
        return ["conj", "(", tree[1], ")"], ATOM
    if kind == "paren":
        return ["(", *_render(tree[1])[0], ")"], ATOM
    if kind in ("neg", "pos"):
        return ["-" if kind == "neg" else "+", *at(SIGNED, tree[1])], SIGNED
    if kind == "^":
        return [*at(ATOM, tree[1]), "^", str(tree[2])], POWER
    if kind == "*":
        return [*at(PRODUCT, tree[1]), "*", *at(SIGNED, tree[2])], PRODUCT
    return [*at(SUM, tree[1]), kind, *at(PRODUCT, tree[2])], SUM


def _value(tree, point) -> tuple[complex, float]:
    """The value of ``tree`` at ``point``, and the sum of its term magnitudes."""
    kind = tree[0]
    if kind == "num":
        return complex(float(tree[1])), abs(float(tree[1]))
    if kind == "i":
        return 1j, 1.0
    if kind in ("coord", "conj"):
        v = point[tree[1] + ("bar" if kind == "conj" else "")]
        return v, abs(v)
    if kind in ("paren", "pos"):
        return _value(tree[1], point)
    if kind == "neg":
        v, m = _value(tree[1], point)
        return -v, m
    if kind == "^":
        v, m = _value(tree[1], point)
        return v ** tree[2], m ** tree[2]
    (a, ma), (b, mb) = _value(tree[1], point), _value(tree[2], point)
    if kind == "*":
        return a * b, ma * mb
    return (a + b if kind == "+" else a - b), ma + mb


@pytest.mark.skipif(hypothesis is None, reason="hypothesis is not installed")
def test_drawn_expressions_match_complex_arithmetic(parsed_plane):
    # at the parent grammar, a sign after an operator bound tighter than ^,
    # so that "z*-xi^2" read z*xi^2 and "z*+xi" was an error
    coordinate = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_trees, st.lists(st.sampled_from(("", " ", "  ", "\t")), min_size=1),
                      st.fixed_dictionaries({n: coordinate for n in ("z", "zbar", "xi", "xibar")}))
    def check(tree, spaces, point):
        tokens = _render(tree)[0]
        # each sign and parenthesis opens at most one nesting level
        hypothesis.assume(sum(t in ("(", "+", "-") for t in tokens) <= 64)
        text = "".join(tok + spaces[k % len(spaces)] for k, tok in enumerate(tokens))
        want, scale = _value(tree, point)
        got = parse_polynomial(text, parsed_plane).evaluate(point)
        assert abs(got - want) <= 1e-12 * scale, text

    check()
