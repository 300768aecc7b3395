"""The output comparison of tools/same_outputs.py, on two temporary directories."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)

DENSE_OP = TOOL.parents[1] / "perfbench" / "dense_op.py"


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_written_files_are_keyed_by_relative_path(tmp_path):
    work = _tree(tmp_path, {"a.json": b"{}", "out/b.csv": b"1,2\n"})
    assert same_outputs.written_files(work) == {"file a.json": b"{}",
                                                "file out/b.csv": b"1,2\n"}


def test_differences_name_every_changed_missing_or_extra_file(tmp_path):
    old = same_outputs.written_files(_tree(tmp_path / "old", {
        "same.json": b"1", "changed.csv": b"1,2\n", "only_old.txt": b"x"}))
    new = same_outputs.written_files(_tree(tmp_path / "new", {
        "same.json": b"1", "changed.csv": b"1,3\n", "sub/only_new": b""}))
    assert same_outputs.differences(old, new) == [
        "file changed.csv", "file only_old.txt", "file sub/only_new"]
    assert same_outputs.differences(old, dict(old)) == []


def test_outcome_masks_the_tree_path(tmp_path):
    # the same script in two trees prints its own directory: equal once masked
    script = (b"import pathlib, sys\n"
              b"print(pathlib.Path(sys.argv[0]).parent)\n"
              b"pathlib.Path('out.txt').write_text('written')\n")
    runs = [same_outputs.outcome(_tree(tmp_path / name, {"show.py": script}),
                                 ["{tree}/show.py"], tmp_path / f"work_{name}")
            for name in ("old", "new")]
    assert runs[0]["exit code"] == b"0"
    assert runs[0]["stdout"] == b"<tree>\n"
    assert runs[0]["file out.txt"] == b"written"
    assert same_outputs.differences(*runs) == []
    runs[1]["stderr"] += b"warning\n"
    assert same_outputs.differences(*runs) == ["stderr"]


def test_a_revision_git_cannot_export_exits_2_naming_it(capsys):
    assert same_outputs.main(["no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "same_outputs.py: git archive cannot export revision 'no-such-rev'"]


def test_the_dense_stress_input_reaches_wide_spreads_and_the_zero_form(tmp_path):
    # the second dense_op.py invocation: thetas past the series and a point
    # whose Gaussian factor underflows, run as the tool runs it
    assert ["{tree}/perfbench/dense_op.py", "dense_stress.json", "dense_output.json"] \
        in same_outputs.INVOCATIONS
    spec = same_outputs.DENSE_STRESS
    assert {0.0, 1000.0} <= set(spec["thetas"])
    run = same_outputs.outcome(TOOL.parents[1], ["{tree}/perfbench/dense_op.py",
                                                 "dense_stress.json", "out.json"], tmp_path / "w")
    assert run["exit code"] == b"0", run["stderr"]
    rows = json.loads(run["file out.json"])["rows"]
    assert len(rows) == len(spec["thetas"]) * len(spec["points"])
    for k, row in enumerate(rows):
        point = spec["points"][k % len(spec["points"])]
        if point[0] == 30.0:
            assert all(c == [0.0, 0.0] for c in row["coefficients"].values())
        else:
            assert any(c != [0.0, 0.0] for c in row["coefficients"].values())


@pytest.mark.parametrize("args, code", [
    (["run-example", "c-plane", "--theta-samples", "1"], b"2"),
    (["check-symbol", "missing.model"], b"3"),
    (["report", "--inputs", "not_a_report.json"], b"3"),
    (["report", "--inputs", "report_input.json"], b"0"),
])
def test_the_error_and_report_invocations_exit_as_named(tmp_path, args, code):
    # every exit path of the program entry is compared, not only its passes
    argv = ["-m", "equichern.cli", *args]
    assert argv in same_outputs.INVOCATIONS
    run = same_outputs.outcome(TOOL.parents[1], argv, tmp_path / "w")
    assert run["exit code"] == code, run["stderr"]
    if code == b"0":
        runs = json.loads(run["file merged_report.json"])["runs"]
        assert [r["kind"] for r in runs] == ["delta-pairing", "symbol-check"]
