"""Count the lines of Python files by kind: code, docstring, comment, blank.

A line is a docstring line when it lies inside the docstring of a module,
class or function (the string literal that is the first statement of its
body), whatever else it holds. Any other line is blank when it holds only
whitespace, a comment line when it holds only a comment, and a code line
otherwise. Code lines are what the project's line counts compare.

Usage, from the repository root::

    python tools/loc.py src/revent [more files or directories]

A directory stands for every ``*.py`` file under it. One row is printed
per file, then a total row. Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers inside every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """How many lines of ``source`` are of each kind in ``KINDS``."""
    docstrings = docstring_lines(ast.parse(source))
    # A comment token that starts a line's text makes the line comment-only;
    # a '#' inside a string literal is no comment token.
    comments = {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip()
    }
    counts = dict.fromkeys(KINDS, 0)
    for number, text in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kind = "docstring"
        elif not text.strip():
            kind = "blank"
        elif number in comments:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def python_files(paths: list[str]) -> list[Path]:
    """Each path that is a file, and every ``*.py`` file under each directory."""
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/loc.py PATH [PATH ...]", file=sys.stderr)
        return 2
    rows = [(str(f), count(f.read_text(encoding="utf-8"))) for f in python_files(argv)]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}} {'lines':>6}" + "".join(f" {k:>9}" for k in KINDS))
    for name, counts in rows:
        print(f"{name:<{width}} {sum(counts.values()):>6}" + "".join(f" {counts[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
