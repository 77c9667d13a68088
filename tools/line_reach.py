"""Fail unless tier-1 reaches every executable line of ``src/revent``.

Runs pytest in this interpreter under ``sys.settrace`` and
``threading.settrace``, so lines reached on worker threads count too; lines
reached only in a child process do not. A file's executable lines are the
line numbers its code objects' ``co_lines()`` report, line 0 dropped. Any
unreached line that ``ALLOWED`` does not name by file and source text fails
the run, and so does an ``ALLOWED`` entry that names no unreached line.

Usage, from the repository root::

    PYTHONPATH=src python -X dev -W error tools/line_reach.py [pytest args]

The pytest arguments default to ``-q``. A failing test run exits with
pytest's own code.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "revent"

# (file name, stripped source text) -> why tier-1 never reaches the line.
ALLOWED = {
    ("backends.py", "..."): "the body of a Protocol method, which is never called",
    ("cli.py", "sys.exit(main())"): "runs only as `python -m revent.cli`, in a child process",
}


def executable_lines(path: Path) -> set[int]:
    """Every line number the compiled code objects of ``path`` report."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines reached per file name of the package."""
    import pytest

    reached: dict[str, set[int]] = {}
    by_filename: dict[str, set[int] | None] = {}  # co_filename -> its reached set

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            path = Path(filename).resolve()
            by_filename[filename] = (
                reached.setdefault(path.name, set()) if path.parent == PACKAGE else None
            )
        lines = by_filename[filename]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv: list[str]) -> int:
    code, reached = run_traced(argv or ["-q"])
    if code:
        return code
    unreached = []
    stale = dict(ALLOWED)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = executable_lines(path) - reached.get(path.name, set())
        for line in sorted(missed):
            key = (path.name, source[line - 1].strip())
            if stale.pop(key, None) is None:  # each entry allows one line
                unreached.append(f"{path.name}:{line}: {key[1]}")
    for line in unreached:
        print(f"unreached: {line}", file=sys.stderr)
    for (name, text), reason in stale.items():
        print(f"allowed but reached or gone: {name}: {text!r} ({reason})", file=sys.stderr)
    if unreached or stale:
        return 1
    print(f"line reach: every line of {PACKAGE.name} is reached but the "
          f"{len(ALLOWED)} allow-listed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
