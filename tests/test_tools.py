"""The repository's command-line tools."""

import json
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


_STUB_RUN = '''import argparse, json, pathlib
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name)
args = p.parse_args()
root = pathlib.Path(__file__).resolve().parents[1]
with open(root.parent / "order.log", "a") as log:
    log.write(f"{root.name} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
op_s = OP_S[int(args.seed)]
print("# a line before the result")
print(json.dumps({"correct": CORRECT, "attempted": 4, "failed": FAILED,
                  "metrics": {"op_s": {"value": op_s, "unit": "s"}, "ratio": {"value": 2 * op_s, "unit": "x"}}}))
'''


def _stub_checkout(root: Path, name: str, op_s: dict, correct: bool = True, failed: int = 0) -> Path:
    """A checkout whose perfbench/run.py prints a canned result line and logs its call to ../order.log."""
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    source = _STUB_RUN.replace("OP_S", repr(op_s)).replace("CORRECT", repr(correct)).replace("FAILED", str(failed))
    (checkout / "perfbench" / "run.py").write_text(source, encoding="utf-8")
    return checkout


def _pairs(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "pairs.py"), *argv],
                          capture_output=True, text=True, timeout=120)


def test_pairs_alternate_and_summarize(tmp_path):
    parent = _stub_checkout(tmp_path, "par", {5: 0.20, 6: 0.10, 7: 0.30, 8: 0.40})
    change = _stub_checkout(tmp_path, "chg", {5: 0.15, 6: 0.12, 7: 0.25, 8: 0.40}, failed=1)
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "op_s", "better": "lower"}], "per_layer": [{"name": "ratio", "better": "higher"}]}),
        encoding="utf-8")
    proc = _pairs(str(parent), str(change), "--workload", "hubbard-gs", "--pairs", "4", "--seed", "5",
                  "--seconds", "2")
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr  # "par" and "chg": paths of one length
    order = (tmp_path / "order.log").read_text(encoding="utf-8").split("\n")[:-1]
    assert order == [f"{side} hubbard-gs {seed} 2 0" for seed, sides in
                     ((5, "par chg"), (6, "chg par"), (7, "par chg"), (8, "chg par")) for side in sides.split()]
    lines = proc.stdout.splitlines()
    assert [line.split(" | ")[0] for line in lines[:4]] == [
        "pair 1 seed 5 parent first", "pair 2 seed 6 change first",
        "pair 3 seed 7 parent first", "pair 4 seed 8 change first"]
    assert "parent: op_s 0.2 ratio 0.4 correct True" in lines[0]
    rows = {tuple(line.split()[:2]): line.split() for line in lines[5:11]}
    # op_s, lower is better: the change wins seeds 5 and 7, loses 6, ties 8
    assert rows["op_s", "parent"][2:7] == ["0.25", "0.175", "0.325", "0.15", "4"]
    assert rows["op_s", "change"][2:] == ["0.2", "0.1425", "0.2875", "0.145", "4", "2/4"]
    # ratio, higher is better: the change wins seed 6 alone
    assert rows["ratio", "change"][-1] == "1/4"
    # each metric's change of median, in % and in units of the parent's IQR (0.15 and 0.3)
    assert lines[7].split() == ["op_s", "shift", "-20.0%", "-0.33", "parent", "IQR"]
    assert lines[10].split() == ["ratio", "shift", "-20.0%", "-0.33", "parent", "IQR"]
    assert lines[11:] == ["parent: correct 4/4 runs, failed 0 of 16 operations",
                         "change: correct 4/4 runs, failed 4 of 16 operations"]


def test_pairs_report_a_run_without_a_result(tmp_path):
    parent = _stub_checkout(tmp_path, "par", {1: 0.2})
    change = _stub_checkout(tmp_path, "chg", {1: 0.1}, correct=False)
    (change / "perfbench" / "run.py").write_text("import sys\nsys.exit(2)\n", encoding="utf-8")
    proc = _pairs(str(parent), str(change), "--workload", "dense-gs", "--pairs", "1")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("change: no result")
    assert lines[-2:] == ["parent: correct 1/1 runs, failed 0 of 4 operations",
                          "change: correct 0/1 runs, failed 0 of 0 operations"]


def test_pairs_warn_when_the_checkout_paths_differ_in_length(tmp_path):
    parent = _stub_checkout(tmp_path, "par", {1: 0.2})
    change = _stub_checkout(tmp_path, "change", {1: 0.1})
    proc = _pairs(str(parent), str(change), "--workload", "hubbard-gs", "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    warning = proc.stderr.strip()
    assert warning.startswith("pairs.py: warning: the checkout paths differ in length")
    assert f"({len(str(parent))} and {len(str(change))} characters)" in warning
    assert proc.stdout.splitlines()[-2:] == ["parent: correct 1/1 runs, failed 0 of 4 operations",
                                             "change: correct 1/1 runs, failed 0 of 4 operations"]
