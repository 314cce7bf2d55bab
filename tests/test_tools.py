"""The repository's command-line tools."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loc(*argv) -> dict:
    """{module: (total, code)} as ``tools/loc.py`` prints it."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"), *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["module", "total", "code"]
    return {name: (int(total), int(code)) for name, total, code in (row.split() for row in rows)}


def test_loc_totals_are_the_files_line_counts():
    counts = _loc()
    modules = sorted((ROOT / "src" / "fockops").glob("*.py"))
    assert list(counts) == [path.name for path in modules] + ["total"]
    for path in modules:
        total, code = counts[path.name]
        assert total == len(path.read_text(encoding="utf-8").splitlines())
        assert 0 < code <= total
    assert counts["total"] == tuple(sum(counts[path.name][i] for path in modules) for i in range(2))


def test_loc_skips_blank_comment_and_docstring_lines(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(a):\n"
        '    """One-line docstring."""\n'
        "    s = '''a string that is\n"
        "    not a docstring'''\n"
        "    return s\n",
        encoding="utf-8",
    )
    assert _loc(str(tmp_path)) == {"mod.py": (12, 5), "total": (12, 5)}
