import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

# Each line's kind, by the rule tools/loc.py counts: docstring lines first,
# then blank, comment-only and code lines.
TOY = [
    ('"""A module docstring', "docstring"),
    ("", "docstring"),
    ("# not a comment inside a docstring", "docstring"),
    ('"""', "docstring"),
    ("", "blank"),
    ("# a comment", "comment"),
    ("import os  # a trailing comment", "code"),
    ("", "blank"),
    ("", "blank"),
    ("class Toy:", "code"),
    ('    """A class docstring."""', "docstring"),
    ("", "blank"),
    ("    def method(self):", "code"),
    ("        '''A function", "docstring"),
    ("        docstring.'''", "docstring"),
    ("        # an indented comment", "comment"),
    ('        text = """not a docstring', "code"),
    ("# nor is this a comment", "code"),
    ('"""', "code"),
    ("        ", "blank"),
    ('        "a later string is no docstring"', "code"),
    ("        return text", "code"),
]


def test_each_kind_of_line_is_counted():
    source = "\n".join(line for line, _ in TOY) + "\n"
    expected = dict.fromkeys(loc.KINDS, 0)
    for _, kind in TOY:
        expected[kind] += 1
    assert loc.count(source) == expected


def test_a_directory_stands_for_its_python_files(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("# note\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert loc.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", "lines", *loc.KINDS]
    assert [row[0] for row in rows[1:]] == [
        str(tmp_path / "pkg" / "a.py"), str(tmp_path / "pkg" / "b.py"), "total"
    ]
    assert rows[-1][1:] == ["5", "2", "1", "1", "1"]
    assert loc.main([]) == 2
