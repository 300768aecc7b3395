"""Count the code lines of Python modules: non-blank, non-comment, non-docstring.

    python3 tools/code_lines.py [PATH ...]
    python3 tools/code_lines.py --loaded ARGV...
    python3 tools/code_lines.py -h | --help

Each PATH is a ``.py`` file or a directory, whose ``*.py`` files (not its
subdirectories) are counted; the default is ``src/equichern`` beside this
tool.  With ``--loaded``, the modules counted are the ``equichern`` modules
that ``python3 ARGV...`` loads, run with ``PYTHONPATH=src`` (it must exit
0), which is the source that run compiles when no bytecode is cached:
``--loaded -c "import equichern.cli"``, say.  A line counts when
``tokenize`` finds a token on it other than a comment, a line break or an
indentation change, and ``ast`` does not place it in a docstring (the
leading string of a module, class or function).
Prints one ``count path`` line per module, then the total.  ``-h`` or
``--help`` prints this text; a PATH that does not exist, or a ``--loaded``
run that exits non-zero, exits 2 with one line naming it.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "equichern"

# Tokens that carry no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Non-blank, non-comment, non-docstring lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out += sorted(p.glob("*.py")) if p.is_dir() else [p]
    return out


def loaded_modules(argv) -> list[Path]:
    """The ``equichern`` module files that ``python3 ARGV...`` loads, sorted.

    Read from the interpreter's ``-X importtime`` report, which names every
    module the run imports.
    """
    done = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          env={**os.environ, "PYTHONPATH": str(DEFAULT.parent)},
                          capture_output=True, text=True, check=True)
    names = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return sorted(DEFAULT / f"{name.partition('.')[2] or '__init__'}.py"
                  for name in names if name.partition(".")[0] == "equichern")


def main(argv) -> int:
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if argv[:1] == ["--loaded"]:
        try:
            paths = loaded_modules(argv[1:])
        except subprocess.CalledProcessError as exc:
            print(f"code_lines.py: python3 {' '.join(argv[1:])} exited {exc.returncode}",
                  file=sys.stderr)
            return 2
    else:
        missing = [p for p in argv if not Path(p).exists()]
        if missing:
            print(f"code_lines.py: no such file or directory: {missing[0]}", file=sys.stderr)
            return 2
        paths = modules(argv or [DEFAULT])
    total = 0
    for path in paths:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
