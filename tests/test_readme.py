import ast
import json
import re
import shutil
from pathlib import Path

from revent.cli import build_parser

README = Path(__file__).parent.parent / "README.md"
GOLDEN = Path(__file__).parent / "data" / "golden"


def test_library_use_example_runs_as_written(data_dir, tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    for name in ("corpus.jsonl", "tagger.jsonl", "replay.json"):
        shutil.copy(data_dir / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    printed = ast.literal_eval(capsys.readouterr().out)
    first = (GOLDEN / "predictions.jsonl").read_text(encoding="utf-8").splitlines()[0]
    assert printed == json.loads(first)["events"]


def test_readme_names_exactly_the_cli_flags():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices.values()
    flags = {
        option
        for sub in subparsers
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert set(re.findall(r"--[a-z][a-z-]*", README.read_text(encoding="utf-8"))) == flags
