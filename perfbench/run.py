"""fockops benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Inputs are generated from the seed under ``.perfbench_runs/``
and removed afterwards; a traced run also leaves its spans there.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it repeat every metric by name and unit, the failure ratio,
and the environment.

OpenBLAS is held at one thread: the ``dense-apply`` workload already runs
two executor threads on a two-core machine, and the same setting must
hold on every commit compared.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BLAS_THREADS = "1"
WORKLOAD_NAMES = ("dense-gs", "dense-apply", "hubbard-gs", "mixture-prop")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "fockops" / "__init__.py").is_file():
        print(f"run.py: no fockops sources under {root / 'src'}", file=sys.stderr)
        return 2
    # must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(root / "src"))

    import bench
    from workloads import WORKLOADS

    runs = root / ".perfbench_runs"
    workdir = runs / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = runs / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result, lines = bench.run(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), workdir, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# env " + json.dumps(bench.environment(root), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
