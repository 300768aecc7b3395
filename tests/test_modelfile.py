import pytest

from equichern.geometry import augmented_symbol, c_plane
from equichern.modelfile import (
    MAX_EXPONENT,
    ModelParseError,
    builtin_model_text,
    parse_model_text,
    parse_polynomial,
)


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
        pt = parsed_plane.full_point({"z": 0.3 + 1j, "xi": -0.4j})
        for i in range(2):
            for j in range(2):
                a = parsed_plane.symbol.entries[i][j].evaluate(pt)
                b = built.symbol.entries[i][j].evaluate(pt)
                assert a.terms.get(0, 0) == b.terms.get(0, 0)

    def test_augmentable(self, parsed_plane):
        aug = augmented_symbol(parsed_plane)
        assert aug.dim == 4

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

    def test_wrong_row_count(self):
        text = builtin_model_text("c-plane").replace("z + i*xi, 0\n", "")
        with pytest.raises(ModelParseError, match="rows"):
            parse_model_text(text)

    def test_even_symbol_rejected(self):
        text = builtin_model_text("constant-symbol").replace(
            "0, 1", "1, 0").replace("1, 0\n1, 0", "1, 0\n0, 1")
        with pytest.raises(ModelParseError, match="odd"):
            parse_model_text(text)

    def test_options_parsed(self, parsed_plane):
        assert parsed_plane.x_support == 2.0

    @pytest.mark.parametrize("old, new, message", [
        ("z  complex weight=1", "z  complex weight=" + "9" * 400, r"line 4,.*2\*\*53"),
        ("summand weight=1 parity=odd\n[symbol]",
         f"summand weight={-2 ** 53 - 1} parity=odd\n[symbol]", r"line 11,.*2\*\*53"),
        ("x_support = 2.0", "x_support = nan", "line 16,.*positive and finite"),
        ("x_support = 2.0", "x_support = 1e999", "line 16,.*positive and finite"),
        ("x_support = 2.0", "x_support = 0", "line 16,.*positive and finite"),
    ])
    def test_out_of_range_numbers_rejected(self, old, new, message):
        # a weight beyond float range once crashed the augmentation
        text = builtin_model_text("c-plane")
        assert old in text
        with pytest.raises(ModelParseError, match=message):
            parse_model_text(text.replace(old, new))

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
