"""The benchmark's traced mode (``perfbench/run.py --trace 1``) runs every workload with no failed operation.

A traced run wraps library functions by name, so a library edit that
renames or reshapes one breaks it; perfbench's own tests are not part of
this suite.  These run each workload's small sibling, about 0.1 s each.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import bench  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_fails_no_operation(name, tmp_path):
    result, lines = bench.run(workloads.WORKLOADS[name].sibling(), seed=3, seconds=0, trace=True, workdir=tmp_path)
    assert result["failed"] == 0, lines
