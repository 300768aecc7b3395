"""Each entry point loads only the modules it runs, and the package exports lazily.

The budget tests run each entry point in a fresh interpreter and read
``sys.modules`` afterwards; they time nothing.  A module left out of a budget
is one that start-up neither compiles nor executes.  The code-line budgets
count, with ``tools/code_lines.py``, the lines of the ``equichern`` modules
an entry point loads, which is the source it compiles when no bytecode is
cached.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equichern

SRC = Path(equichern.__file__).resolve().parents[1]
PLANE_MODEL = SRC / "equichern" / "models" / "c_plane.model"
ENGINE = {f"equichern.{m}" for m in ("augmentation", "characters", "equivariant", "exterior",
                                     "geometry", "homotopy", "kernels", "modelfile", "pairing",
                                     "pointwise", "polyeval", "quadrature", "ring", "scan",
                                     "supermatrix", "symbolalg")}
# Modules no engine entry point loads: the engine's records are not generated
# by dataclasses, and its Gauss-Legendre rule needs no numpy.polynomial.
NOT_LOADED = {"dataclasses", "numpy.polynomial"}


def loaded_modules(script: str, *argv: str) -> set[str]:
    """Modules loaded by ``script`` in a fresh interpreter (which must exit 0)."""
    probe = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe, *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


CLI_RUN = ("import sys\nfrom equichern.cli import main\n"
           "assert main(sys.argv[1:]) == 0")


def test_cli_import_loads_no_engine_and_no_numpy():
    modules = loaded_modules("import equichern.cli")
    assert "equichern.cli" in modules
    assert not modules & ENGINE
    assert not {m for m in modules if m.split(".")[0] == "numpy"}


def test_report_loads_no_engine_and_no_numpy(tmp_path):
    doc = {"schema_version": "1", "generated_by": "equichern",
           "runs": [{"kind": "index-character", "label": "c-plane", "payload": {}}]}
    (tmp_path / "in.json").write_text(json.dumps(doc))
    modules = loaded_modules(CLI_RUN, "report", "--inputs", str(tmp_path / "in.json"),
                             "--out-dir", str(tmp_path))
    assert "jsonschema" in modules
    assert not modules & ENGINE
    assert not {m for m in modules if m.split(".")[0] == "numpy"}


# run-example name -> (engine modules it loads, modules it does not)
EXAMPLE_MODULES = {
    "c-plane": ({"equichern.quadrature", "equichern.characters", "equichern.augmentation"},
                {"equichern.scan", "equichern.pairing", "equichern.kernels",
                 "equichern.pointwise", "equichern.polyeval", "equichern.homotopy",
                 "equichern.report", "numpy"}),
    "zero-op": ({"equichern.pairing"},
                {"equichern.scan", "equichern.characters", "equichern.quadrature",
                 "equichern.kernels", "equichern.pointwise", "equichern.polyeval",
                 "equichern.augmentation", "equichern.homotopy", "equichern.report",
                 "numpy"}),
}


@pytest.mark.parametrize("argv", [
    ("c-plane", "--theta-samples", "4", "--fourier-window", "2"),
    ("zero-op",),
])
def test_run_example_loads_no_model_parser_or_symbol_algebra(tmp_path, argv):
    modules = loaded_modules(CLI_RUN, "run-example", *argv, "--out-dir", str(tmp_path))
    loads, skips = EXAMPLE_MODULES[argv[0]]
    assert loads <= modules
    assert not modules & {"equichern.modelfile", "equichern.symbolalg", *skips, *NOT_LOADED}


def test_check_symbol_loads_no_quadrature_or_numpy_random(tmp_path):
    # a symbol is a matrix of polynomials (ring.PolyMatrix): no form is built
    modules = loaded_modules(CLI_RUN, "check-symbol", str(PLANE_MODEL),
                             "--scan-samples", "100", "--out-dir", str(tmp_path))
    assert {"equichern.modelfile", "equichern.ring", "equichern.scan",
            "equichern.symbolalg"} <= modules
    assert not modules & {"equichern.quadrature", "equichern.pairing", "equichern.characters",
                          "equichern.equivariant", "equichern.kernels", "equichern.pointwise",
                          "equichern.homotopy", "equichern.report", "equichern.exterior",
                          "equichern.supermatrix", "numpy.random", *NOT_LOADED}


NUMPY_FREE = ("augmentation", "characters", "equivariant", "exterior", "geometry", "homotopy",
              "pairing", "pointwise", "polyeval", "quadrature", "ring", "supermatrix")


@pytest.mark.parametrize("script", [
    *(f"import equichern.{m}" for m in NUMPY_FREE),
    # the imports of perfbench/dense_op.py: pointwise loads with the first
    # chern_form, and numpy with neither (test_dense_op_reads_the_plan_...)
    "from equichern.equivariant import chern_form\n"
    "from equichern.geometry import builtin_model",
], ids=[*NUMPY_FREE, "dense-op"])
def test_import_loads_no_numpy(script):
    # numpy loads only on use: with a CompiledPolys, or the dense exponential
    # (kernels) of super_exp
    modules = loaded_modules(script)
    assert not modules & {"numpy", "equichern.kernels"}
    assert "equichern.pointwise" not in modules or script.endswith(".pointwise")


def test_building_the_builtin_models_loads_no_numpy():
    # a model holds its curvature pair symbolically: the pointwise route reads it
    modules = loaded_modules(
        "from equichern.geometry import _BUILTINS, builtin_model\n"
        "assert sorted(_BUILTINS) == ['c-plane', 'c-plane-uv', 'zero-op']\n"
        "for name in _BUILTINS:\n"
        "    model = builtin_model(name)\n"
        "    assert model.curvature is not None\n"
        "    assert not hasattr(model, 'curvature_array')")
    assert not modules & {"numpy", "equichern.kernels"}


def test_dense_route_loads_no_quadrature_or_model_parser():
    # the imports of perfbench/dense_op.py
    modules = loaded_modules("from equichern.equivariant import chern_form\n"
                             "from equichern.geometry import builtin_model")
    assert not modules & {"equichern.quadrature", "equichern.pairing", "equichern.scan",
                          "equichern.characters", "equichern.modelfile",
                          "equichern.symbolalg", "equichern.homotopy", *NOT_LOADED}


spec = importlib.util.spec_from_file_location("code_lines", SRC.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

DENSE_OP = ("from equichern.equivariant import chern_form\n"
            "from equichern.geometry import builtin_model\n"
            "chern_form(builtin_model('c-plane-uv'), 0.3, {'u': 0.1 + 0.2j, 'v': 0.3})")


def test_dense_op_reads_the_plan_and_loads_no_taylor_kernel():
    # c-plane-uv splits, so every theta reads the Chern plan and no point runs
    # the Taylor side in equichern.kernels; the plan side evaluates the plan at
    # a point in plain Python, so no numpy, and completes the point with
    # ring.full_point, so not the grid evaluator either
    modules = loaded_modules(DENSE_OP)
    assert "equichern.pointwise" in modules
    assert not modules & {"equichern.kernels", "equichern.polyeval"}
    assert not {m for m in modules if m.split(".")[0] == "numpy"}


def test_a_wide_spread_reads_the_plan_and_loads_no_taylor_kernel():
    # theta = 1000 spreads the c-plane-uv nodes far past SERIES_SPREAD: the
    # squared divided differences serve it, and only a refused pair loads kernels
    modules = loaded_modules(DENSE_OP.replace("0.3,", "1000.0,"))
    assert "equichern.pointwise" in modules
    assert not modules & {"equichern.kernels", "numpy"}


# entry point -> (script, its arguments, most code lines of equichern modules it
# may load): the values are those reached when the symbol became a matrix of
# polynomials, held apart from the forms of the curvature (the CLI import's
# value is older; the dense route's is newer: a point reads a flat term table,
# and the route no longer loads polyeval), so code put back on a path fails here.
# `python3 tools/code_lines.py --loaded -c SCRIPT ARGS...` prints a total.
CODE_LINE_BUDGETS = {
    "run-example zero-op": (CLI_RUN, ("run-example", "zero-op"), 1068),
    "run-example c-plane": (CLI_RUN, ("run-example", "c-plane"), 1185),
    "check-symbol": (CLI_RUN, ("check-symbol", str(PLANE_MODEL)), 1329),
    "dense": (DENSE_OP, (), 875),
    "import equichern.cli": ("import equichern.cli", (), 143),
}


@pytest.mark.parametrize("entry", CODE_LINE_BUDGETS)
def test_loaded_code_lines_stay_within_budget(tmp_path, entry):
    script, argv, budget = CODE_LINE_BUDGETS[entry]
    if argv:
        argv = (*argv, "--out-dir", str(tmp_path))
    paths = code_lines.loaded_modules(["-c", script, *argv])
    total = sum(code_lines.code_lines(p.read_text(encoding="utf-8")) for p in paths)
    assert total <= budget, f"{entry} loads {total} code lines, above its budget {budget}"


@pytest.mark.parametrize("module, name, home", [
    ("geometry", "ellipticity_scan", "scan"),
    ("quadrature", "delta_pairing", "pairing"),
])
def test_moved_name_loads_its_module_when_read(module, name, home):
    # importing either old home loads neither new module; reading the moved
    # name loads its new home and returns the same function
    loaded_modules(f"import sys\nimport equichern.{module} as old\n"
                   "assert not {'equichern.scan', 'equichern.pairing'} & set(sys.modules)\n"
                   f"fn = old.{name}\n"
                   f"assert fn is sys.modules['equichern.{home}'].{name}")
    old = importlib.import_module(f"equichern.{module}")
    assert getattr(old, name) is getattr(importlib.import_module(f"equichern.{home}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        old.no_such_name


# the package's public names, sorted: an API change shows in this list
PUBLIC_NAMES = [
    "ActionModel", "BundleSpec", "CharacterSeries", "Coordinate", "DivergenceError",
    "ExteriorAlgebra", "Form", "GaussianForm", "Grading", "HomotopyPath", "IndexReport",
    "ModelParseError", "PoleGuardError", "Poly", "ScanGrid", "SuperMatrix",
    "SymbolFunction", "UnsupportedShapeError", "ahat_squared", "augmented_symbol",
    "builtin_model", "bundle_character", "c_plane", "c_plane_uv", "cartan_field",
    "chern_form", "clifford_multiplication", "closedness_residual", "condition_c_fit",
    "delta_pairing", "ellipticity_scan", "equivariant_curvature",
    "exp_divided_difference", "homotopy_path", "index_character",
    "infinitesimal_generator", "integrate_top_form", "localized_index", "moment",
    "orbital_projection", "parse_model_file", "parse_model_text",
    "restriction_decay_check", "richardson_extrapolate", "super_exp",
    "super_exp_duhamel", "symbolic_chern", "transversal_ellipticity_check",
    "transverse_chern", "zero_op_s1"
]


class TestLazyExports:
    def test_names_are_the_submodule_objects(self):
        assert equichern.__all__ == PUBLIC_NAMES
        for name in equichern.__all__:
            module = importlib.import_module(f"equichern.{equichern._EXPORTS[name]}")
            assert getattr(equichern, name) is getattr(module, name), name

    def test_dir_lists_the_names(self):
        assert set(equichern.__all__) <= set(dir(equichern))
        assert "__version__" in dir(equichern)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            equichern.no_such_name
        assert not hasattr(equichern, "TEST_FUNCTIONS")

    def test_submodule_import_from_the_package(self):
        # as perfbench/tracer.py imports the CLI, in an interpreter that has
        # not loaded the submodule yet
        modules = loaded_modules("from equichern import cli\n"
                                 "import sys\nassert cli is sys.modules['equichern.cli']\n"
                                 "assert callable(cli.main)")
        assert "equichern.cli" in modules
