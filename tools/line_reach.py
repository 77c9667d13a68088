"""Fail unless tier-1 reaches every executable line of ``src/revent``.

Runs pytest in this interpreter with a ``sys.monitoring`` LINE callback
(Python 3.12+) that records each line location once, then disables it.
Events are process-wide, so lines reached on worker threads count too;
lines reached only in a child process do not. A file's executable lines
are the line numbers its code objects' ``co_lines()`` report, line 0
dropped. Any unreached line that ``ALLOWED`` does not name by file and
source text fails the run, and so does an ``ALLOWED`` entry that names no
unreached line.

Usage, from the repository root::

    PYTHONPATH=src python -X dev -W error tools/line_reach.py [pytest args]

The pytest arguments default to ``-q``. A failing test run exits with
pytest's own code; an interpreter without ``sys.monitoring`` exits 2.
"""

from __future__ import annotations

import sys
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


def run_monitored(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines reached per file name of the package."""
    import pytest

    monitoring = sys.monitoring
    tool, line_event = monitoring.COVERAGE_ID, monitoring.events.LINE
    reached: dict[str, set[int]] = {}
    by_filename: dict[str, set[int] | None] = {}  # co_filename -> its reached set

    def on_line(code, line):
        filename = code.co_filename
        if filename not in by_filename:
            path = Path(filename).resolve()
            by_filename[filename] = (
                reached.setdefault(path.name, set()) if path.parent == PACKAGE else None
            )
        lines = by_filename[filename]
        if lines is not None:
            lines.add(line)
        return monitoring.DISABLE  # one report per line location is enough

    monitoring.use_tool_id(tool, "line_reach")
    try:
        monitoring.register_callback(tool, line_event, on_line)
        monitoring.set_events(tool, line_event)
        code = pytest.main(pytest_args)
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.register_callback(tool, line_event, None)
        monitoring.free_tool_id(tool)
    return int(code), reached


def main(argv: list[str]) -> int:
    if not hasattr(sys, "monitoring"):
        print("line_reach.py needs sys.monitoring (Python 3.12+)", file=sys.stderr)
        return 2
    code, reached = run_monitored(argv or ["-q"])
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
