import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import equichern
from conftest import REAL_FIBER_MODEL
from equichern import scan, symbolalg
from equichern.cli import MAX_XI, MIN_XI, TEST_NAMES, build_parser, main
from equichern.modelfile import builtin_model_text
from equichern.pairing import TEST_FUNCTIONS
from equichern.polyeval import CompiledPolys
from equichern.report import validate_report

README = Path(__file__).resolve().parents[1] / "README.md"
PLANE_MODEL = Path(equichern.__file__).parent / "models" / "c_plane.model"


def run(argv):
    return main([str(a) for a in argv])


class TestRunExample:
    def test_c_plane_golden(self, tmp_path, capsys):
        code = run(["run-example", "c-plane", "--theta-samples", 8,
                    "--fourier-window", 4, "--gh-order", 12,
                    "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        doc = json.loads((tmp_path / "index_report.json").read_text())
        assert doc["schema_version"] == "1"
        assert doc["runs"][0]["payload"]["golden"]["passed"] is True

    def test_zero_op_pairing(self, tmp_path, capsys):
        code = run(["run-example", "zero-op", "--eps", "1e-2,1e-3,1e-4",
                    "--test", "gaussian", "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "delta_report.json").read_text())
        payload = doc["runs"][0]["payload"]
        assert payload["golden"]["passed"] is True
        assert abs(payload["extrapolated"][0] - 1.0) < 1e-4

    def test_zero_op_at_subnormal_eps_writes_no_nan(self, tmp_path):
        # sqrt(pi/eps) overflows at eps = 5e-324; the pairing never forms it
        src = str(Path(equichern.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             "import sys; from equichern.cli import main; sys.exit(main())",
             "run-example", "zero-op", "--eps", "5e-324,1", "--out-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "NaN" not in (tmp_path / "delta_report.json").read_text()

    def test_test_choices_are_the_test_functions(self):
        # the CLI names them itself, so that parsing loads no engine module
        assert TEST_NAMES == tuple(TEST_FUNCTIONS)
        for name in TEST_FUNCTIONS:
            assert build_parser().parse_args(["run-example", "zero-op",
                                              "--test", name]).test == name

    def test_unknown_example_usage_error(self, tmp_path):
        assert run(["run-example", "bogus", "--out-dir", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, flag, value", [
        ("zero-op", "--eps", "0.1,0.1"),
        ("zero-op", "--eps", "abc"),
        ("zero-op", "--eps", "1e-2,-1"),
        ("c-plane", "--theta-samples", "1"),
        ("c-plane", "--theta-samples", "0"),
        ("c-plane", "--theta-samples", "4097"),
        ("c-plane", "--theta-samples", "99999999999999999999"),
        ("c-plane", "--fourier-window", "-1"),
        ("c-plane", "--fourier-window", "80"),
        ("c-plane", "--tol", "nan"),
        ("check-symbol", "--scan-samples", "0"),
        ("check-symbol", "--scan-samples", "-3"),
        ("check-symbol", "--scan-samples", "100001"),
        ("check-symbol", "--scan-samples", "99999999999999999999"),
        ("check-symbol", "--seed", "-1"),
        ("check-symbol", "--xi-max", "0"),
        ("check-symbol", "--xi-max", "-5"),
        ("check-symbol", "--xi-max", "nan"),
        ("check-symbol", "--tol", "nan"),
    ])
    def test_bad_argument_usage_error(self, tmp_path, capsys, name, flag, value):
        # name is a run-example example, or check-symbol on the shipped c-plane
        command = (["check-symbol", PLANE_MODEL] if name == "check-symbol"
                   else ["run-example", name])
        code = run(command + [flag, value, "--out-dir", tmp_path])
        assert code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_gh_order_is_accepted_and_inert(self, tmp_path):
        run(["run-example", "c-plane", "--theta-samples", 4, "--fourier-window", 2,
             "--out-dir", tmp_path / "a"])
        code = run(["run-example", "c-plane", "--theta-samples", 4,
                    "--fourier-window", 2, "--gh-order", 4, "--out-dir", tmp_path / "b"])
        assert code == 0
        assert ((tmp_path / "a" / "index_report.json").read_bytes()
                == (tmp_path / "b" / "index_report.json").read_bytes())

    def test_determinism(self, tmp_path):
        run(["run-example", "c-plane", "--theta-samples", 4,
             "--fourier-window", 2, "--gh-order", 8, "--out-dir", tmp_path / "a"])
        run(["run-example", "c-plane", "--theta-samples", 4,
             "--fourier-window", 2, "--gh-order", 8, "--out-dir", tmp_path / "b"])
        a = (tmp_path / "a" / "index_report.json").read_bytes()
        b = (tmp_path / "b" / "index_report.json").read_bytes()
        assert a == b
        assert ((tmp_path / "a" / "fourier.csv").read_bytes()
                == (tmp_path / "b" / "fourier.csv").read_bytes())

    def test_largest_window_is_exact(self, tmp_path):
        assert run(["run-example", "c-plane", "--fourier-window", 63,
                    "--out-dir", tmp_path]) == 0
        doc = json.loads((tmp_path / "index_report.json").read_text())
        assert doc["runs"][0]["payload"]["golden"]["fourier_deviation"] < 1e-10

    # neither example loads numpy (test_imports.py), so its SIMD targets
    # cannot move a byte of their reports
    def test_report_is_identical_across_numpy_dispatch_targets(self, tmp_path):
        codes, reports = reports_across_dispatch_targets(
            tmp_path, ["run-example", "c-plane"], "index_report.json")
        assert codes[0] == codes[1]
        assert reports[0] == reports[1]

    def test_zero_op_report_is_identical_across_numpy_dispatch_targets(self, tmp_path):
        codes, reports = reports_across_dispatch_targets(
            tmp_path, ["run-example", "zero-op"], "delta_report.json")
        assert codes[0] == codes[1] == 0
        assert reports[0] == reports[1]


# Runs the CLI on its arguments, or exits 77 when numpy cannot be imported.
NUMPY_OR_77 = """import sys
try:
    import numpy
except Exception:
    sys.exit(77)
from equichern.cli import main
sys.exit(main(sys.argv[1:]))
"""


def reports_across_dispatch_targets(tmp_path, argv, report):
    """Exit codes and ``report`` bytes of ``argv`` run in a subprocess twice.

    The second run disables numpy's SIMD targets above the x86-64 baseline;
    numpy then runs its baseline loops, which round some operations
    differently.  The two runs go side by side, each failing on a numpy
    warning (``-W error::RuntimeWarning``).  Skips when numpy does not
    start with the targets disabled.
    """
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(equichern.__file__).parents[1])
    runs = [subprocess.Popen([sys.executable, "-W", "error::RuntimeWarning", "-c",
                              NUMPY_OR_77, *map(str, argv),
                              "--out-dir", str(tmp_path / str(k))],
                             env={**env, **disabled}, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
            for k, disabled in enumerate(({}, {"NPY_DISABLE_CPU_FEATURES":
                                               "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}))]
    codes = [r.wait(timeout=60) for r in runs]
    if codes[1] == 77:
        pytest.skip("numpy does not start with these targets disabled")
    return codes, [(tmp_path / str(k) / report).read_bytes() for k in range(2)]


def assert_floats_close(a, b, tol, relative=False):
    """``a`` and ``b`` have one structure, floats within ``tol`` and the rest equal.

    With ``relative``, floats are within ``tol`` times the larger magnitude.
    """
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_floats_close(a[k], b[k], tol, relative)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_floats_close(x, y, tol, relative)
    elif isinstance(a, float):
        assert a == b or abs(a - b) <= tol * (max(abs(a), abs(b)) if relative else 1.0)
    else:
        assert a == b


# c-plane from its second E summand to the end of its symbol
_E_TAIL = ("summand weight=1 parity=odd\n[bundle.W]\nsummand weight=0 parity=even\n"
           "summand weight=1 parity=odd\n[symbol]\n0, conj(z) - i*conj(xi)\n"
           "z + i*xi, 0\n")


# c-plane from its first coordinate to the end of its symbol
_COORDS_TO_SYMBOL = ("z  complex weight=1 role=base\nxi complex weight=1 role=fiber\n"
                     "[bundle.E]\nsummand weight=0 parity=even\n" + _E_TAIL)


class TestCheckSymbol:
    def test_plane_model_passes(self, tmp_path):
        path = tmp_path / "cp.model"
        path.write_text(builtin_model_text("c-plane"))
        code = run(["check-symbol", path, "--scan-samples", 600,
                    "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "symbol_report.json").read_text())
        assert doc["runs"][0]["payload"]["passed"] is True

    def test_constant_symbol_fails(self, tmp_path):
        path = tmp_path / "const.model"
        path.write_text(builtin_model_text("constant-symbol"))
        code = run(["check-symbol", path, "--scan-samples", 600,
                    "--out-dir", tmp_path])
        assert code == 1

    @pytest.mark.parametrize("name", ["c_plane", "constant_symbol"])
    def test_report_moves_little_across_numpy_dispatch_targets(self, tmp_path, name):
        codes, reports = reports_across_dispatch_targets(
            tmp_path, ["check-symbol", PLANE_MODEL.with_name(f"{name}.model")],
            "symbol_report.json")
        assert codes[0] == codes[1]
        docs = [json.loads(r)["runs"][0]["payload"] for r in reports]
        assert_floats_close(*docs, 1e-12, relative=True)
        # condition C forms its bound core from real products, which no SIMD
        # loop fuses; the remainder's complex products and moduli still may
        assert (docs[0]["transversal_ellipticity"]["condition_c"]
                == docs[1]["transversal_ellipticity"]["condition_c"])

    def test_run_does_not_import_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma (10-16 ms) to look for masked arrays
        script = ("import sys\nfrom equichern.cli import main\n"
                  "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)")
        src = str(Path(equichern.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script, "check-symbol",
             str(PLANE_MODEL),
             "--scan-samples", "300", "--out-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            check=True)
        assert done.stdout.split()[-2:] == ["0", "False"]

    def test_real_fiber_named_like_a_conjugate(self, tmp_path):
        # a real coordinate whose name ends in "bar" is still one real
        # direction of the scan: renaming side -> sidebar changes nothing
        reports = []
        for fiber in ("side", "sidebar"):
            path = tmp_path / f"{fiber}.model"
            path.write_text(REAL_FIBER_MODEL.replace("FIBER", fiber))
            code = run(["check-symbol", path, "--scan-samples", 300,
                        "--out-dir", tmp_path / fiber])
            assert code in (0, 1)
            reports.append((tmp_path / fiber / "symbol_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_determinism(self, tmp_path):
        path = tmp_path / "cp.model"
        path.write_text(builtin_model_text("c-plane"))
        sections = []
        for out, seed in (("a", 0), ("b", 0), ("c", 5)):
            run(["check-symbol", path, "--scan-samples", 300, "--seed", seed,
                 "--out-dir", tmp_path / out])
            sections.append((tmp_path / out / "symbol_report.json").read_bytes())
        assert sections[0] == sections[1]
        # the seed drives the scan only, not the transversality check
        a, c = (json.loads(doc)["runs"][0]["payload"] for doc in sections[::2])
        assert a["transversal_ellipticity"] == c["transversal_ellipticity"]

    def test_symbol_evaluated_in_bounded_batches(self, tmp_path, monkeypatch):
        # the working set of both checks stays one slice, whatever the count
        points = []
        evaluate = CompiledPolys.entries

        def recording(table, arrays):
            points.append(np.broadcast(*arrays.values()).size)
            return evaluate(table, arrays)

        monkeypatch.setattr(CompiledPolys, "entries", recording)
        assert run(["check-symbol", PLANE_MODEL, "--scan-samples", 20000,
                    "--out-dir", tmp_path]) == 0
        assert sum(points) > 7 * 20000  # the 7 shells' samples went through entries
        assert max(points) <= scan.BATCH_POINTS

    def test_xi_max_below_the_bound_usage_error(self, tmp_path, capsys):
        # below 2 R_MIN no xi radius lies within --xi-max / 2, so condition C
        # would fail for every symbol
        assert MIN_XI == 2 * symbolalg.R_MIN
        for value in ("0.5", "0.999999"):
            code = run(["check-symbol", PLANE_MODEL, "--xi-max", value,
                        "--out-dir", tmp_path / "out"])
            assert code == 2
            assert "argument --xi-max" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        assert run(["check-symbol", PLANE_MODEL, "--xi-max", MIN_XI, "--scan-samples", 50,
                    "--out-dir", tmp_path / "out"]) in (0, 1)

    def test_malformed_entry_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bad.model"
        path.write_text(builtin_model_text("c-plane").replace(
            "z + i*xi", "z + i*%xi"))
        code = run(["check-symbol", path, "--out-dir", tmp_path])
        assert code == 3
        err = capsys.readouterr().err
        assert "symbol entry (2,1)" in err
        assert "line" in err

    @pytest.mark.parametrize("old, new, message", [
        ("summand weight=1 parity=odd\n[bundle.W]",
         "summand weight=x parity=odd\n[bundle.W]", "line 8,.*weight"),
        # the removed [options] section and other unknown headers
        pytest.param("z + i*xi, 0\n", "z + i*xi, 0\n[options]\nx_support = 2.0\n",
                     r"line 15,.*unknown section '\[options\]'",
                     id="options-section"),
        ("z + i*xi, 0\n", "z + i*xi, 0\n[sybmol]\n", r"line 15,.*unknown section '\[sybmol\]'"),
        ("z + i*xi, 0\n", "z + i*xi, 0\n[bundle.F]\nsummand weight=5 parity=odd\n",
         r"line 15,.*unknown section '\[bundle.F\]'"),
        ("[symbol]\n0, conj(z) - i*conj(xi)\nz + i*xi, 0\n", "",
         r"line 1,.*\[symbol\]"),
        ("[bundle.W]\nsummand weight=0 parity=even\nsummand weight=1 parity=odd\n", "",
         r"line 1,.*\[bundle.W\]"),
        ("xi complex weight=1 role=fiber",
         "xi complex weight=1 role=fiber\nzbar real weight=0 role=base",
         "line 6,.*'zbar'"),
        ("[bundle.W]\n", "[bundle.W]\nsummand weight=2 parity=even\n",
         r"line 9,.*two summands"),
        # E of rank 1 and of rank 3, each with an odd symbol of matching size
        (_E_TAIL, _E_TAIL.replace("summand weight=1 parity=odd\n[bundle.W]", "[bundle.W]")
         .replace("0, conj(z) - i*conj(xi)\nz + i*xi, 0\n", "0\n"),
         r"line 6,.*\[bundle.E\] must have two summands"),
        (_E_TAIL, _E_TAIL.replace("[bundle.W]", "summand weight=2 parity=even\n[bundle.W]")
         .replace("0, conj(z) - i*conj(xi)\nz + i*xi, 0\n",
                  "0, conj(z) - i*conj(xi), 0\nz + i*xi, 0, 0\n0, 0, 0\n"),
         r"line 6,.*\[bundle.E\] must have two summands"),
        # one complex base and one fiber, with symbols that parse
        (_COORDS_TO_SYMBOL, _COORDS_TO_SYMBOL.replace("z  complex", "z  real")
         .replace("conj(z)", "z"), "line 4,.*base coordinate 'z' must be complex"),
        (_COORDS_TO_SYMBOL, _COORDS_TO_SYMBOL.replace("z  complex", "z  angle")
         .replace("conj(z)", "z"), "line 4,.*base coordinate 'z' must be complex"),
        ("xi complex weight=1 role=fiber",
         "w  complex weight=1 role=base\nxi complex weight=1 role=fiber",
         "line 5,.*second base coordinate 'w'"),
        (_COORDS_TO_SYMBOL, _COORDS_TO_SYMBOL.replace("xi complex weight=1 role=fiber\n", "")
         .replace(" - i*conj(xi)", "").replace(" + i*xi", ""),
         "line 3,.*no fiber coordinate"),
        # an ungraded W makes the orbital Clifford part, so the odd term, even
        ("[bundle.W]\nsummand weight=0 parity=even\nsummand weight=1 parity=odd",
         "[bundle.W]\nsummand weight=0 parity=even\nsummand weight=1 parity=even",
         r"line 9,.*\[bundle.W\] must have one even and one odd summand"),
        # at base weight 0, phi = 0 and the augmented symbol is odd with any W,
        # so only the W rule itself refuses the ungraded W
        pytest.param(_COORDS_TO_SYMBOL,
                     _COORDS_TO_SYMBOL.replace("z  complex weight=1", "z  complex weight=0")
                     .replace("weight=1 parity=odd\n[symbol]", "weight=1 parity=even\n[symbol]"),
                     r"line 9,.*\[bundle.W\] must have one even and one odd summand",
                     id="ungraded-w-at-base-weight-0"),
    ])
    def test_model_semantics_exit_three(self, tmp_path, capsys, old, new, message):
        text = builtin_model_text("c-plane")
        assert old in text
        path = tmp_path / "bad.model"
        path.write_text(text.replace(old, new))
        code = run(["check-symbol", path, "--out-dir", tmp_path])
        assert code == 3
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("power", ["65", "1000000000"])
    def test_large_exponent_exit_three(self, tmp_path, capsys, power):
        path = tmp_path / "bad.model"
        path.write_text(builtin_model_text("c-plane").replace(
            "z + i*xi", f"z^{power} + i*xi"))
        code = run(["check-symbol", path, "--out-dir", tmp_path])
        assert code == 3
        assert re.search(r"line 14, col 3: .*exponent above 64", capsys.readouterr().err)

    @pytest.mark.parametrize("entry, col", [("(" * 247 + "z" + ")" * 247, 65),
                                            ("z*" + "-" * 986 + "z", 67)])
    def test_deep_nesting_exit_three(self, tmp_path, capsys, entry, col):
        # past Python's recursion limit without the cap: a traceback, exit 1
        path = tmp_path / "bad.model"
        path.write_text(builtin_model_text("c-plane").replace("z + i*xi", entry))
        code = run(["check-symbol", path, "--out-dir", tmp_path])
        assert code == 3
        assert re.search(rf"line 14, col {col}: .*nested more than 64 deep",
                         capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coefficient, message", [
        ("9" * 400, r"line 14, col 5: .*number overflows a double"),
        ("9" * 200 + "*" + "9" * 200, r"line 14, col 1: .*a coefficient overflows a double")],
        ids=["literal", "product"])
    def test_non_finite_coefficient_exit_three(self, tmp_path, capsys, coefficient, message):
        # both once wrote 70 NaN and Infinity fields and exited 1
        path = tmp_path / "huge.model"
        path.write_text(builtin_model_text("c-plane").replace(
            "z + i*xi", f"z + {coefficient}*i*xi"))
        code = run(["check-symbol", path, "--out-dir", tmp_path / "out"])
        assert code == 3
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_xi_max_runs_without_overflow(self, tmp_path):
        # |xi|^2 and its powers overflow on this model from about 1e150
        assert MAX_XI == 1e100
        assert run(["check-symbol", PLANE_MODEL, "--xi-max", "1e100",
                    "--out-dir", tmp_path]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("degree, cap", [(1, 1e100), (2, 1e75), (3, 1e37), (5, 1e18)])
    def test_xi_max_cap_follows_the_degree_in_xi(self, tmp_path, capsys, degree, cap):
        # the remainder's |det| on this 2x2 symbol grows like |xi|^(4(degree - 1));
        # the degree in the base does not count: the base is sampled inside the cutoff
        path = tmp_path / "power.model"
        path.write_text(builtin_model_text("c-plane")
                        .replace("conj(z) - i*conj(xi)", f"conj(z)^3 - i*conj(xi)^{degree}")
                        .replace("z + i*xi", f"z^3 + i*xi^{degree}"))
        code = run(["check-symbol", path, "--xi-max", cap, "--scan-samples", 50,
                    "--out-dir", tmp_path / "at"])
        # sigma_hat of a symbol of order above one is unbounded: condition C fails
        assert code == (0 if degree == 1 else 1)
        report = (tmp_path / "at" / "symbol_report.json").read_text()
        assert "NaN" not in report and "Infinity" not in report
        if degree > 1:
            code = run(["check-symbol", path, "--xi-max", cap * 1.000001,
                        "--out-dir", tmp_path / "above"])
            assert code == 2
            assert f"above {cap:g}, the largest for a symbol of degree {degree}" in \
                capsys.readouterr().err
            assert not (tmp_path / "above").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("digits, degree, cap, xi_max", [
        pytest.param(6, 2, 1e69, 1e69, id="1e+69"),
        pytest.param(6, 2, 1e69, 1e72, id="1e+72"),
        pytest.param(60, 1, 1e90, 1e90, id="c1e60-1e+90"),
        pytest.param(60, 1, 1e90, 1e90 * 1.000001, id="c1e60-above-1e+90"),
        pytest.param(80, 1, None, 10, id="c1e80-exit-3")])
    def test_xi_max_cap_follows_the_coefficients(self, tmp_path, capsys, digits, degree,
                                                 cap, xi_max):
        # a coefficient c = 10^digits on xi^degree scales the remainder's
        # |det| by |c|^4 and its raw entries by |c|^2: at c = 1e6 on xi^2 the
        # cap falls from 1e75 to 1e69, and 1e72 overflowed; at c = 1e60 on xi
        # it falls from 1e100 to 1e90; at c = 1e80 the scan's shells overflow
        c = "1" + "0" * digits
        path = tmp_path / "scaled.model"
        path.write_text(builtin_model_text("c-plane")
                        .replace("conj(z) - i*conj(xi)", f"conj(z) - {c}*i*conj(xi)^{degree}")
                        .replace("z + i*xi", f"z + {c}*i*xi^{degree}"))
        code = run(["check-symbol", path, "--xi-max", xi_max, "--scan-samples", 50,
                    "--out-dir", tmp_path / "out"])
        err = capsys.readouterr().err
        if cap is None:
            assert code == 3
            assert f"{path}: the term of coefficient modulus 1e+{digits} and degree " \
                f"{degree} overflows" in err
            assert not (tmp_path / "out").exists()
        elif xi_max > cap:
            assert code == 2
            assert f"above {cap:g}, the largest for a symbol of degree {degree}" in err
            assert not (tmp_path / "out").exists()
        else:
            assert code == 1
            report = (tmp_path / "out" / "symbol_report.json").read_text()
            assert "NaN" not in report and "Infinity" not in report
            if digits == 60:
                # condition C's constant, about C^2 |xi|^(2D), reaches the same
                # 1e300 budget at the cap as the remainder bound does
                section = json.loads(report)["runs"][0]["payload"]["transversal_ellipticity"]
                c_eps = max(e["c_eps"] for run in section["condition_c"]
                            for e in run["entries"])
                assert math.isfinite(c_eps) and 1e299 <= c_eps < 1e301

    @pytest.mark.parametrize("value", ["1.0000001e100", "1e154", "1e300"])
    def test_xi_max_above_the_bound_usage_error(self, tmp_path, capsys, value):
        code = run(["check-symbol", PLANE_MODEL, "--xi-max", value, "--out-dir", tmp_path])
        assert code == 2
        assert "argument --xi-max" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_file_exit_three(self, tmp_path):
        assert run(["check-symbol", tmp_path / "no.model",
                    "--out-dir", tmp_path]) == 3

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_model_exit_three(self, tmp_path, capsys, kind):
        path = _input_file(tmp_path, kind)
        assert run(["check-symbol", path, "--out-dir", tmp_path / "out"]) == 3
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def _report(self, tmp_path, name, data: bytes) -> tuple[int, bytes]:
        """Exit code and report bytes of check-symbol on a model file holding ``data``."""
        (tmp_path / name).mkdir()
        path = tmp_path / name / "input.model"
        path.write_bytes(data)
        code = run(["check-symbol", path, "--scan-samples", 100, "--out-dir", tmp_path / name])
        return code, (tmp_path / name / "symbol_report.json").read_bytes()

    def test_a_sign_after_an_operator_reads_as_a_leading_sign(self, tmp_path):
        # "z + -xi^2" once read z + xi^2
        text = builtin_model_text("c-plane")
        signed = text.replace("z + i*xi", "z + -xi^2").replace(
            "conj(z) - i*conj(xi)", "conj(z) + -conj(xi)^2")
        twin = text.replace("z + i*xi", "z - xi^2").replace(
            "conj(z) - i*conj(xi)", "conj(z) - conj(xi)^2")
        assert (self._report(tmp_path, "signed", signed.encode())
                == self._report(tmp_path, "twin", twin.encode()))

    def test_byte_order_mark_is_accepted(self, tmp_path):
        plain = PLANE_MODEL.read_bytes()
        assert (self._report(tmp_path, "bom", b"\xef\xbb\xbf" + plain)
                == self._report(tmp_path, "plain", plain))

    @pytest.mark.parametrize("old, new, message", [
        # an unknown key was once dropped, so the fiber weight read 0
        ("xi complex weight=1 role=fiber", "xi complex wieght=1 role=fiber",
         "line 5,.*unknown key 'wieght'"),
        ("summand weight=1 parity=odd\n[bundle.W]",
         "summand weight=1 parity=odd colour=red\n[bundle.W]", "line 8,.*unknown key 'colour'"),
        ("summand weight=1 parity=odd\n[bundle.W]",
         "summand weight=1 weight=2 parity=odd\n[bundle.W]", "line 8,.*repeated key 'weight'"),
        ("z  complex weight=1 role=base", "z  complex weight=1 parity=odd role=base",
         "line 4,.*unknown key 'parity'"),
        ("summand weight=0 parity=even\nsummand weight=1 parity=odd\n[symbol]",
         "summand weight=0 role=base parity=even\nsummand weight=1 parity=odd\n[symbol]",
         "line 10,.*unknown key 'role'"),
    ])
    def test_unknown_or_repeated_key_exit_three(self, tmp_path, capsys, old, new, message):
        text = builtin_model_text("c-plane")
        assert text.count(old) == 1
        path = tmp_path / "bad.model"
        path.write_text(text.replace(old, new))
        assert run(["check-symbol", path, "--out-dir", tmp_path / "out"]) == 3
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, line", [
        # a coordinate named i was once read as the imaginary unit
        ("xi complex", "i complex", 5), ("z  complex", "conj complex", 4)])
    def test_reserved_coordinate_name_exit_three(self, tmp_path, capsys, old, new, line):
        path = tmp_path / "bad.model"
        path.write_text(builtin_model_text("c-plane").replace(old, new))
        assert run(["check-symbol", path, "--out-dir", tmp_path / "out"]) == 3
        name = new.split()[0]
        assert re.search(f"line {line},.*coordinate name '{name}' is reserved",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("entry", ["conj", "conj(", "conj(z", "conj(1)", "conj z"])
    def test_malformed_conj_exit_three(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.model"
        path.write_text(builtin_model_text("c-plane").replace("z + i*xi", entry))
        assert run(["check-symbol", path, "--out-dir", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert re.search(r"line 14, col 1: symbol entry \(2,1\): expected conj\(coordinate\)", err)
        assert "Traceback" not in err


class TestReport:
    @pytest.fixture
    def two_runs(self, tmp_path):
        run(["run-example", "zero-op", "--out-dir", tmp_path / "r1"])
        run(["run-example", "c-plane", "--theta-samples", 4,
             "--fourier-window", 2, "--gh-order", 8, "--out-dir", tmp_path / "r2"])
        return (tmp_path / "r1" / "delta_report.json",
                tmp_path / "r2" / "index_report.json")

    def test_merge_stable_order(self, tmp_path, two_runs):
        a, b = two_runs
        code = run(["report", "--inputs", a, b, "--out-dir", tmp_path / "m1"])
        assert code == 0
        code = run(["report", "--inputs", b, a, "--out-dir", tmp_path / "m2"])
        assert code == 0
        doc1 = (tmp_path / "m1" / "merged_report.json").read_bytes()
        doc2 = (tmp_path / "m2" / "merged_report.json").read_bytes()
        assert doc1 == doc2  # byte-stable regardless of input order
        merged = json.loads(doc1)
        assert len(merged["runs"]) == 2
        validate_report(merged)

    def test_schema_validation(self, tmp_path, two_runs):
        merged = {"schema_version": "1", "generated_by": "equichern", "runs": []}
        validate_report(merged)
        import jsonschema

        with pytest.raises(jsonschema.ValidationError):
            validate_report({"schema_version": "2", "runs": []})

    def test_csv_format(self, tmp_path, two_runs):
        a, b = two_runs
        code = run(["report", "--inputs", a, b, "--format", "csv",
                    "--out-dir", tmp_path / "mc"])
        assert code == 0
        text = (tmp_path / "mc" / "merged_report.csv").read_text()
        assert text.splitlines()[0] == "kind,label,passed"

    def test_missing_input(self, tmp_path):
        assert run(["report", "--inputs", tmp_path / "nope.json",
                    "--out-dir", tmp_path]) == 3

    @pytest.mark.parametrize("kind", [
        "[]", '{"schema_version": "1", "runs": [1]}',
        '{"schema_version": "1", "runs": [{"kind": "x"}]}', "[" * 100_000,
        "not-utf8", "directory"],
        ids=["array", "run-not-object", "run-without-payload", "too-deep", "not-utf8",
             "directory"])
    def test_bad_input_exit_three(self, tmp_path, capsys, kind):
        path = _input_file(tmp_path, kind)
        assert run(["report", "--inputs", path, "--out-dir", tmp_path / "out"]) == 3
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejected_value_is_excerpted(self, tmp_path, capsys):
        # the schema error repeats the rejected value: a 50,000-element
        # array would fill stderr with a third of a megabyte
        path = tmp_path / "array.json"
        path.write_text(json.dumps(list(range(50_000))))
        assert run(["report", "--inputs", path, "--out-dir", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: not an equichern report: 'type' fails at $: [0, 1,")
        assert err.rstrip().endswith("49999] is not of type 'object'")
        assert len(err.encode()) < 1024

    def test_csv_with_a_non_object_golden(self, tmp_path):
        doc = tmp_path / "in.json"
        doc.write_text('{"schema_version": "1", "runs": '
                       '[{"kind": "x", "label": "y", "payload": {"golden": 1}}]}')
        assert run(["report", "--inputs", doc, "--format", "csv",
                    "--out-dir", tmp_path]) == 0
        assert (tmp_path / "merged_report.csv").read_text().splitlines()[1] == "x,y,"


def _input_file(tmp_path, kind):
    """The input under test: a non-UTF-8 file, a directory, or a file of that text."""
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe model")
    else:
        path.write_text(kind)
    return path


@pytest.mark.parametrize("command", ["run-example", "check-symbol", "report"])
@pytest.mark.parametrize("out_dir", ["file", "file/sub", "broken-link"])
def test_out_dir_file_usage_error(tmp_path, capsys, command, out_dir):
    # an --out-dir that is a file, sits under one, or is a dangling link
    blocker = tmp_path / "file"
    blocker.write_text('{"schema_version": "1", "runs": []}')
    (tmp_path / "broken-link").symlink_to(tmp_path / "nowhere")
    argv = {"run-example": ["run-example", "zero-op"],
            "check-symbol": ["check-symbol", PLANE_MODEL],
            "report": ["report", "--inputs", blocker]}[command]
    code = run(argv + ["--out-dir", tmp_path / out_dir])
    assert code == 2
    assert "argument --out-dir" in capsys.readouterr().err


class TestFourierCsv:
    def test_rows_are_the_report_coefficients(self, tmp_path):
        # one run's fourier.csv holds index_report.json's series: a row per
        # degree over the whole window, each part by repr
        run(["run-example", "c-plane", "--theta-samples", 4, "--fourier-window", 6,
             "--out-dir", tmp_path])
        rows = list(csv.reader(io.StringIO((tmp_path / "fourier.csv").read_text())))
        doc = json.loads((tmp_path / "index_report.json").read_text())
        fourier = doc["runs"][0]["payload"]["fourier"]
        assert fourier["window"] == [-6, 6]
        assert rows[0] == ["n", "re", "im"]
        assert rows[1:] == [[str(n), repr(fourier["coefficients"][str(n)][0]),
                             repr(fourier["coefficients"][str(n)][1])] for n in range(-6, 7)]


def _python(script, *argv, cwd=None):
    """``python3 -c script argv...`` with the package on the path, its output as text.

    Standard output is block-buffered (no ``PYTHONUNBUFFERED``), so what a
    run prints reaches the pipe only when the stream is flushed at exit.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(equichern.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)], cwd=cwd,
                          env=env, capture_output=True, text=True)


class TestProgramEntry:
    # main() with no arguments is the program (the equichern script,
    # python -m equichern.cli): it freezes the heap after the command returns
    def test_the_program_freezes_after_the_command_and_not_on_a_usage_error(self, tmp_path):
        # one interpreter, the heap unfrozen again after each call
        probe = ("import gc, sys\nfrom equichern.cli import main\n"
                 "for argv in (['run-example', 'zero-op'],\n"
                 "             ['check-symbol', sys.argv[1], '--scan-samples', '50'],\n"
                 "             ['check-symbol', 'missing.model'],\n"
                 "             ['run-example', 'c-plane', '--theta-samples', '1']):\n"
                 "    sys.argv = ['equichern', *argv]\n"
                 "    code = main()\n"
                 "    print('frozen', code, gc.get_freeze_count() > 0)\n"
                 "    gc.unfreeze()\n")
        done = _python(probe, PLANE_MODEL.with_name("constant_symbol.model"), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert [line for line in done.stdout.splitlines() if line.startswith("frozen")] == [
            "frozen 0 True", "frozen 1 True", "frozen 3 True", "frozen 2 False"]

    def test_a_library_call_leaves_the_heap_unfrozen(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert run(["run-example", "zero-op", "--out-dir", tmp_path]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("argv, report", [
        (["run-example", "c-plane", "--theta-samples", "8", "--fourier-window", "4"],
         "index_report.json"),
        (["run-example", "zero-op"], "delta_report.json"),
        (["check-symbol", PLANE_MODEL, "--scan-samples", "200"], "symbol_report.json"),
        (["check-symbol", PLANE_MODEL.with_name("constant_symbol.model"),
          "--scan-samples", "200"], "symbol_report.json"),
    ], ids=["c-plane", "zero-op", "c_plane.model", "constant_symbol.model"])
    def test_the_program_writes_what_the_library_call_writes(self, tmp_path, argv, report):
        runs = {}
        for name, call in (("program", "sys.argv = ['equichern', *sys.argv[1:]]\n"
                                        "sys.exit(main())"),
                           ("library", "sys.exit(main(sys.argv[1:]))")):
            (tmp_path / name).mkdir()
            done = _python(f"import sys\nfrom equichern.cli import main\n{call}", *argv,
                           cwd=tmp_path / name)
            runs[name] = (done.returncode, done.stdout,
                          (tmp_path / name / report).read_bytes())
        assert runs["program"] == runs["library"]
        assert runs["program"][0] in (0, 1)


def readme_commands():
    """Every `equichern ...` invocation in the README's Command line block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("equichern ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 4
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


# -- exit codes under mutated input ---------------------------------------------------

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # declared in the test extra, but skip where it is absent
    hypothesis = None

needs_hypothesis = pytest.mark.skipif(hypothesis is None,
                                      reason="hypothesis is not installed")

BAD_NUMBERS = ("nan", "inf", "-inf", "-1", "0", "-0", "1e999", "1e-400", "1.5.2",
               "0x1f", "2^", "", "99999999999999999999999", "9" * 400)
POWERS = ("0", "2", "64", "65", "0065", "1000000000", "9" * 400, "1.5", "-1", "nan")
WORDS = ("complex", "real", "angle", "bogus", "base", "fiber", "summand",
         "weight=1", "parity=odd", "parity=even", "role=base", "[coordinates]",
         "[bundle.E]", "[bundle.W]", "[symbol]", "[options]", "model", "x_support",
         "=", ",", "conj(z)", "i*xi", "(", "#")


def _mutate_lines(text, ops):
    """Drop, duplicate or retype lines, put a bad number in place of a number,
    or raise a name, number or closing parenthesis to a power."""
    lines = text.splitlines()
    for kind, at, pos, word in ops:
        if not lines:
            break
        k = at % len(lines)
        if kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "retype":
            words = lines[k].split() or [""]
            words[pos % len(words)] = word
            lines[k] = " ".join(words)
        elif kind == "power":
            atoms = list(re.finditer(r"\w+|\)", lines[k]))
            if atoms:
                m = atoms[pos % len(atoms)]
                lines[k] = lines[k][:m.end()] + "^" + word + lines[k][m.end():]
        else:
            numbers = list(re.finditer(r"\d+(\.\d*)?", lines[k]))
            if numbers:
                m = numbers[pos % len(numbers)]
                lines[k] = lines[k][:m.start()] + word + lines[k][m.end():]
    return "\n".join(lines) + "\n"


def _exit_code_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@needs_hypothesis
def test_mutated_model_files_exit_cleanly(tmp_path):
    line, pos = st.integers(0, 40), st.integers(0, 8)
    op = st.one_of(
        st.tuples(st.sampled_from(("drop", "duplicate")), line, pos, st.just("")),
        st.tuples(st.just("retype"), line, pos, st.sampled_from(WORDS)),
        st.tuples(st.just("number"), line, pos, st.sampled_from(BAD_NUMBERS)),
        st.tuples(st.just("power"), line, pos, st.sampled_from(POWERS)))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(("c-plane", "constant-symbol")),
                      st.lists(op, min_size=1, max_size=4))
    def check(name, ops):
        path = tmp_path / "mutated.model"
        path.write_text(_mutate_lines(builtin_model_text(name), ops))
        code, err = _exit_code_and_stderr(["check-symbol", path, "--scan-samples", 40,
                                           "--xi-max", 50, "--out-dir", tmp_path])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    check()


@needs_hypothesis
def test_mutated_arguments_exit_cleanly(tmp_path):
    flags = ("--theta-samples", "--fourier-window", "--gh-order", "--eps", "--test",
             "--tol", "--xi-max", "--scan-samples", "--seed", "--format", "--inputs",
             "--bogus")
    values = ("0", "1", "2", "3", "-1", "1.5", "abc", "nan", "inf", "1e-300", "1e300",
              "1e999", "", "1e-2,1e-3", "0.1,0.1", "1e-2,-1", "gaussian",
              "99999999999999999999")
    bases = (["check-symbol", PLANE_MODEL, "--scan-samples", 40, "--xi-max", 50],
             ["run-example", "c-plane", "--theta-samples", 4, "--fourier-window", 2],
             ["run-example", "zero-op"],
             ["run-example", "bogus"],
             ["check-symbol", "missing.model"],
             ["report", "--inputs", tmp_path / "report.json"])
    (tmp_path / "report.json").write_text(
        '{"schema_version": "1", "runs": [{"kind": "x", "payload": {"passed": true}}]}')
    (tmp_path / "file").write_text("")
    out_dirs = (tmp_path / "out", tmp_path / "file", tmp_path / "file" / "sub")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(range(len(bases))),
                      st.lists(st.tuples(st.sampled_from(flags), st.sampled_from(values)),
                               max_size=3),
                      st.integers(0, 6), st.sampled_from(out_dirs))
    def check(which, extra, drop, out_dir):
        argv = list(bases[which])
        if drop < len(argv):
            del argv[drop]
        for flag, value in extra:
            argv += [flag, value]
        code, err = _exit_code_and_stderr(argv + ["--out-dir", out_dir])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    check()
