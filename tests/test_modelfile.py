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
