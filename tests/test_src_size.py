"""``tools/src_size.py``: the lines and code lines of ``src/moricensus``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_size.py"


def rows(*paths):
    """name -> (lines, code lines), one entry per row the tool prints."""
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    header, *body = done.stdout.splitlines()
    assert header.split() == ["module", "lines", "code"]
    return {name: (int(lines), int(code)) for name, lines, code in map(str.split, body)}


def test_totals_are_the_sums_of_the_rows():
    got = rows()
    total = got.pop("total")
    assert set(got) == {p.name for p in (ROOT / "src" / "moricensus").glob("*.py")}
    assert total == tuple(map(sum, zip(*got.values())))
    assert all(0 < code < lines for lines, code in got.values())


def test_docstrings_comments_and_blanks_are_not_code(tmp_path):
    notes = tmp_path / "notes.py"
    notes.write_text('"""A module\n\nwith only a docstring.\n"""\n\n'
                     "# and a comment\n", encoding="utf-8")
    function = tmp_path / "function.py"
    function.write_text('def f():\n    """One line."""\n    # why\n    return (\n'
                        '        """not a docstring"""\n    )\n', encoding="utf-8")
    assert rows(notes, function) == {
        "notes.py": (6, 0), "function.py": (6, 4), "total": (12, 4)}
