"""Run one benchmark op with timing spans around equichern's public functions.

    python3 perfbench/tracer.py SPANS.json cli ARGS...     # the equichern CLI
    python3 perfbench/tracer.py SPANS.json dense IN OUT    # perfbench/dense_op.py

The spans are installed from outside the program: each traced function is
replaced by a wrapper at every place a loaded module holds it, because the
package imports functions by name (``cli.index_character``,
``quadrature.transverse_chern``, ``equivariant.exp_divided_difference``).
Methods are wrapped on their class.  ``src/`` is not edited.

Per function, SPANS.json records ``calls``, ``self_s`` (span time minus the
time of the spans it encloses) and ``failed`` (exceptions leaving the span).
``Poly.eval_grid`` also counts ``points`` (entries of its result) and
``Form.wedge`` counts ``nonzero`` results.  The process exits with the op's
own exit code.
"""

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute path) of every traced function; names in SPANS.json drop
# the "equichern." prefix.
TARGETS = (
    ("equichern.cli", "main"),
    ("equichern.modelfile", "parse_model_file"),
    ("equichern.geometry", "augmented_symbol"),
    ("equichern.geometry", "ellipticity_scan"),
    ("equichern.symbolalg", "condition_c_fit"),
    ("equichern.symbolalg", "restriction_decay_check"),
    ("equichern.exterior", "Poly.eval_grid"),
    ("equichern.exterior", "Form.wedge"),
    ("equichern.equivariant", "equivariant_curvature"),
    ("equichern.equivariant", "symbolic_chern"),
    ("equichern.equivariant", "transverse_chern"),
    ("equichern.equivariant", "chern_form"),
    ("equichern.supermatrix", "super_exp"),
    ("equichern.supermatrix", "exp_divided_difference"),
    ("equichern.quadrature", "integrate_top_form"),
    ("equichern.quadrature", "index_character"),
    ("equichern.quadrature", "fit_fourier"),
    ("equichern.quadrature", "delta_pairing"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('equichern.')}.{attr}"


def _count_points(stat, result):
    stat["points"] += int(getattr(result, "size", 1))


def _count_nonzero(stat, result):
    stat["nonzero"] += bool(result.terms)


EXTRA_COUNTS = {
    "exterior.Poly.eval_grid": ("points", _count_points),
    "exterior.Form.wedge": ("nonzero", _count_nonzero),
}


class Tracer:
    """Aggregated spans: per-name totals and a stack of enclosed-span time."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        extra_key, count = EXTRA_COUNTS.get(name, (None, None))
        if extra_key:
            stat[extra_key] = 0
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat["failed"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stat["calls"] += 1
                stat["self_s"] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if count:
                count(stat, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded module binds it."""
        for module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self.wrap(span_name(module_name, attr), original)
            setattr(owner, fn_name, wrapper)
            if cls_path:
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv) -> int:
    spans_path, kind, *op_args = argv
    if kind == "dense":
        import dense_op as entry
    elif kind == "cli":
        from equichern import cli as entry
    else:
        raise SystemExit(f"unknown op kind {kind!r}")
    tracer = Tracer()
    tracer.install()
    try:
        return entry.main(op_args)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.stats, sort_keys=True),
                                    encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
