"""The ``report`` command: merge run reports after checking them against the schema.

`validate_report` checks a document against ``report_schema.json`` (with
``jsonschema``), and `merge_reports` writes the runs of every input, sorted,
as one JSON document or a CSV table of verdicts.  No engine module loads
here, and no other command compiles this one.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path

from .cli import EXIT_INPUT, EXIT_PASS, write_report

# Longest rejected value or schema path that a report error message repeats.
EXCERPT_CHARS = 200


def load_schema() -> dict:
    return json.loads(resources.files("equichern")
                      .joinpath("report_schema.json").read_text())


def validate_report(doc: dict) -> None:
    import jsonschema

    jsonschema.validate(doc, load_schema())


def _excerpt(text: str) -> str:
    """``text`` in at most ``EXCERPT_CHARS`` characters, keeping its head and its tail."""
    if len(text) <= EXCERPT_CHARS:
        return text
    half = (EXCERPT_CHARS - 5) // 2
    return f"{text[:half]} ... {text[-half:]}"


def merge_reports(args) -> int:
    """``equichern report``: exit 3 on an input that is unreadable or not a report."""
    import jsonschema

    runs = []
    for path in args.inputs:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            validate_report(doc)
        except jsonschema.ValidationError as exc:
            # the message repeats the rejected value, which may be the whole file
            print(f"{path}: not an equichern report: {exc.validator!r} fails at "
                  f"{_excerpt(exc.json_path)}: {_excerpt(exc.message)}", file=sys.stderr)
            return EXIT_INPUT
        # unreadable, not UTF-8 or not JSON (both ValueError), or nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        runs.extend(doc["runs"])
    runs.sort(key=lambda r: (r["kind"], r.get("label", "")))
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        write_report(out_dir / "merged_report.json", runs)
    else:
        rows = ["kind,label,passed"]
        for r in runs:
            golden = r["payload"].get("golden")
            passed = r["payload"].get("passed", golden.get("passed", "")
                                      if isinstance(golden, dict) else "")
            rows.append(f"{r['kind']},{r.get('label', '')},{passed}")
        (out_dir / "merged_report.csv").write_text("\n".join(rows) + "\n",
                                                   encoding="utf-8")
    print(f"merged {len(runs)} run(s) into {out_dir}")
    return EXIT_PASS
