"""Each entry point loads only the modules it runs, and the package exports lazily.

The budget tests run each entry point in a fresh interpreter and read
``sys.modules`` afterwards; they time nothing.  A module left out of a budget
is one that start-up neither compiles nor executes.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equichern

SRC = Path(equichern.__file__).resolve().parents[1]
PLANE_MODEL = SRC / "equichern" / "models" / "c_plane.model"
ENGINE = {f"equichern.{m}" for m in ("characters", "equivariant", "exterior", "geometry",
                                     "kernels", "modelfile", "pairing", "quadrature", "scan",
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
    "c-plane": ({"equichern.quadrature", "equichern.characters"},
                {"equichern.scan", "equichern.pairing", "equichern.kernels", "numpy"}),
    "zero-op": ({"equichern.pairing"},
                {"equichern.scan", "equichern.characters", "equichern.quadrature",
                 "equichern.kernels", "numpy"}),
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
    modules = loaded_modules(CLI_RUN, "check-symbol", str(PLANE_MODEL),
                             "--scan-samples", "100", "--out-dir", str(tmp_path))
    assert {"equichern.modelfile", "equichern.scan", "equichern.symbolalg"} <= modules
    assert not modules & {"equichern.quadrature", "equichern.pairing", "equichern.characters",
                          "equichern.equivariant", "numpy.random", *NOT_LOADED}


NUMPY_FREE = ("characters", "equivariant", "exterior", "geometry", "pairing", "quadrature",
              "supermatrix")


@pytest.mark.parametrize("script", [
    *(f"import equichern.{m}" for m in NUMPY_FREE),
    # the imports of perfbench/dense_op.py: numpy loads with the first chern_form
    "from equichern.equivariant import chern_form\n"
    "from equichern.geometry import builtin_model",
], ids=[*NUMPY_FREE, "dense-op"])
def test_import_loads_no_numpy(script):
    # the numpy kernels live in equichern.kernels, which these load only on use
    modules = loaded_modules(script)
    assert not modules & {"numpy", "equichern.kernels"}


def test_dense_route_loads_no_quadrature_or_model_parser():
    # the imports of perfbench/dense_op.py
    modules = loaded_modules("from equichern.equivariant import chern_form\n"
                             "from equichern.geometry import builtin_model")
    assert not modules & {"equichern.quadrature", "equichern.pairing", "equichern.scan",
                          "equichern.characters", "equichern.modelfile",
                          "equichern.symbolalg", *NOT_LOADED}


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


class TestLazyExports:
    def test_names_are_the_submodule_objects(self):
        assert len(equichern.__all__) == 54
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
