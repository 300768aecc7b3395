"""Every function the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` resolves each (module, attribute) pair of its TARGETS
with ``getattr`` and crashes on a missing one, so an API cut would break
traced runs without failing any other test.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
