"""The output comparison of tools/same_outputs.py, on two temporary directories."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


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
