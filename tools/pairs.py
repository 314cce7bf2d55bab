"""Alternating parent/change runs of one perfbench workload, and their summary.

    python tools/pairs.py PARENT CHANGE --workload NAME [--pairs 10] [--seed 1] [--seconds 15]

PARENT and CHANGE are two source checkouts.  Pair i runs
``perfbench/run.py --workload NAME --seed S --seconds T --trace 0`` in each
of them with the same seed S = seed + i - 1; odd-numbered pairs run the
parent first, even-numbered ones the change.  Each pair is printed as it
ends; then, for every metric, each side's median and quartiles and the
number of pairs the change won (ties count for neither side; a metric's
direction is read from the change's ``BENCHMARK.json``, lower is better
where it names none), then the change's median against the parent's, in %
and in units of the parent's IQR, and per side the runs that read
``correct`` and the operations that failed.  Two checkout paths of
different lengths draw a warning on stderr: the hubbard-gs ``peak_rss_mb``
has been seen to step by about 1.5 MB with the length of the directory
name, with no code change.  A run that exits nonzero, prints no result line
or outlives ten times ``--seconds`` plus ten minutes counts as incorrect,
and the exit status is then 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object that perfbench prints last, or None if the run gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 600)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def directions(checkout: Path) -> dict:
    """{metric: "lower" or "higher"} from the checkout's BENCHMARK.json, empty without one."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    bench = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m.get("better", "lower") for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _value(result: dict | None, metric: str) -> float | None:
    entry = (result or {}).get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def summarize(pairs: list[dict], better: dict) -> list[str]:
    """The summary lines for ``pairs``, each {"parent": result or None, "change": result or None}."""
    metrics = sorted({m for p in pairs for side in SIDES for m in (p[side] or {}).get("metrics", {})})
    lines = [f"{'metric':<14} {'side':<7} {'median':>12} {'q1':>12} {'q3':>12} {'iqr':>12}  n  change won"]
    for metric in metrics:
        higher = better.get(metric, "lower") == "higher"
        spread = {}
        for side in SIDES:
            values = [v for p in pairs if (v := _value(p[side], metric)) is not None]
            if not values:
                continue
            q1, med, q3 = spread[side] = quartiles(values)
            row = f"{metric:<14} {side:<7} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {q3 - q1:>12.6g} {len(values):>2}"
            if side == "change":
                both = [(a, b) for p in pairs
                        if (a := _value(p["parent"], metric)) is not None
                        and (b := _value(p["change"], metric)) is not None]
                won = sum((b > a) if higher else (b < a) for a, b in both)
                row += f"  {won}/{len(both)}"
            lines.append(row)
        if len(spread) == 2:
            lines.append(_shift_line(metric, spread["parent"], spread["change"][1]))
    for side in SIDES:
        results = [p[side] for p in pairs]
        correct = sum(bool(r and r.get("correct")) for r in results)
        failed = sum(int(r.get("failed", 0)) for r in results if r)
        attempted = sum(int(r.get("attempted", 0)) for r in results if r)
        lines.append(f"{side}: correct {correct}/{len(results)} runs, failed {failed} of {attempted} operations")
    return lines


def _shift_line(metric: str, parent_quartiles: tuple[float, float, float], change: float) -> str:
    """The change of the median from the parent's to ``change``, in % and in units of the parent's IQR."""
    q1, parent, q3 = parent_quartiles
    pct = f"{100 * (change - parent) / abs(parent):+.1f}%" if parent else "n/a"
    iqrs = f"{(change - parent) / (q3 - q1):+.2f}" if q3 > q1 else "n/a"
    return f"{metric:<14} {'shift':<7} {pct:>12} {iqrs:>12} parent IQR"


def _pair_line(i: int, seed: int, first: str, pair: dict) -> str:
    parts = [f"pair {i} seed {seed} {first} first"]
    for side in SIDES:
        result = pair[side]
        if result is None:
            parts.append(f"{side}: no result")
            continue
        values = " ".join(f"{m} {float(e['value']):.6g}" for m, e in sorted(result["metrics"].items()))
        parts.append(f"{side}: {values} correct {result.get('correct')}")
    return " | ".join(parts)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent, "change": args.change}
    lengths = [len(str(path.resolve())) for path in checkouts.values()]
    if lengths[0] != lengths[1]:
        print(f"pairs.py: warning: the checkout paths differ in length ({lengths[0]} and {lengths[1]} "
              "characters); hubbard-gs peak_rss_mb has been seen to step by about 1.5 MB with it",
              file=sys.stderr)
    pairs = []
    for i in range(1, args.pairs + 1):
        seed = args.seed + i - 1
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {side: run_once(checkouts[side], args.workload, seed, args.seconds) for side in order}
        pairs.append(pair)
        print(_pair_line(i, seed, order[0], pair), flush=True)
    print("\n".join(summarize(pairs, directions(args.change))))
    complete = all(pair[side] is not None for pair in pairs for side in SIDES)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
