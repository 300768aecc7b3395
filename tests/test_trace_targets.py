"""Every function the benchmark's tracer wraps must exist, and traced runs see it.

``perfbench/tracer.py`` resolves each (module, attribute) pair of its TARGETS
with ``getattr`` and crashes on a missing one, so an API cut would break
traced runs without failing any other test.  A function bound where the
tracer does not look would run unwrapped and drop out of the span counts.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_targets():
    """The TARGETS tuple of the tracer, read from its source without running it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in perfbench/tracer.py")


def test_every_target_resolves():
    targets = tracer_targets()
    assert targets
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_pipeline_entry_points_are_traced():
    names = {attr for _, attr in tracer_targets()}
    assert {"symbolic_chern", "transverse_chern", "exp_divided_difference",
            "integrate_top_form", "index_character", "fit_fourier",
            "delta_pairing"} <= names


def traced_calls(tmp_path, *argv):
    """Non-zero span call counts of one traced CLI run; no span may fail."""
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(TRACER), str(spans), "cli", *argv,
                    "--out-dir", str(tmp_path)],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=tmp_path,
                   capture_output=True, check=True)
    stats = json.loads(spans.read_text(encoding="utf-8"))
    assert not any(s["failed"] for s in stats.values())
    return {name: s["calls"] for name, s in stats.items() if s["calls"]}


def test_traced_runs_see_the_engine_calls(tmp_path):
    # The CLI imports the engine inside its subcommands, after the tracer has
    # wrapped it; these are the counts of a CLI that imported it at start-up.
    model = ROOT / "src" / "equichern" / "models" / "c_plane.model"
    calls = traced_calls(tmp_path, "check-symbol", str(model), "--scan-samples", "200")
    assert calls == {"cli.main": 1, "modelfile.parse_model_file": 1,
                     "geometry.augmented_symbol": 2, "geometry.ellipticity_scan": 1,
                     "symbolalg.condition_c_fit": 2,
                     "symbolalg.restriction_decay_check": 2, "exterior.Form.wedge": 16}
    calls = traced_calls(tmp_path, "run-example", "c-plane", "--theta-samples", "8",
                         "--fourier-window", "4")
    assert calls == {"cli.main": 1, "quadrature.index_character": 1,
                     "quadrature.fit_fourier": 1,
                     "supermatrix.exp_divided_difference": 14, "exterior.Form.wedge": 120}
