"""One benchmark run: generate inputs, time operations, check outputs, report.

An untraced run (``trace=False``) measures the end-to-end metrics: the
median wall time of one operation, the median set-up time, and the peak
resident memory of this process.  A traced run alternates untraced and
traced operations, derives the per-layer metrics from the traced ones, and
reports the tracing overhead as the difference of the two medians.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import spans
from fockops import executor, mixtures
from workloads import Workload, spaces_of, term_count

SETUPS_PER_OP = 3
# computed bytes per acting row of one term: source index and prefactor
# (8 B each), the gathered input amplitude and the read-modify-write of the
# output amplitude (16 B each)
BYTES_PER_ROW = 48

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit, in the order of BENCHMARK.json; metrics of a layer a
# workload does not reach read 0
PER_LAYER = {
    "hamiltonian.load_s": "s",
    "hamiltonian.terms": "count",
    "fockspace.tables_s": "s",
    "fockspace.table_builds": "count",
    "fockspace.tables_mb": "MB",
    "fockspace.io_s": "s",
    "kernel.matvecs": "count",
    "kernel.matvec_s": "s",
    "kernel.first_matvec_s": "s",
    "kernel.gather_calls": "count",
    "kernel.gather_builds": "count",
    "kernel.duplicate_builds": "count",
    "kernel.gather_hit_ratio": "ratio",
    "kernel.warm_gather_builds": "count",
    "kernel.warm_hit_ratio": "ratio",
    "kernel.moved_mb": "MB",
    "kernel.self_s": "s",
    "mixtures.matvecs": "count",
    "mixtures.matvec_s": "s",
    "mixtures.intra_a_s": "s",
    "mixtures.intra_b_s": "s",
    "mixtures.inter_s": "s",
    "mixtures.self_s": "s",
    "observables.rho1_s": "s",
    "observables.rho2_s": "s",
    "observables.site_densities_s": "s",
    "solvers.iterations": "count",
    "solvers.self_s": "s",
    "solvers.matvecs_per_step": "matvecs/step",
    "executor.apply_1w_s": "s",
    "executor.apply_2w_s": "s",
    "executor.speedup_2w": "ratio",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between operations of one run
EXACT = ("hamiltonian.terms", "kernel.matvecs", "kernel.gather_builds", "solvers.iterations",
         "solvers.matvecs_per_step")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _total(sps, key: str) -> int:
    return sum(sp.counts.get(key, 0) for sp in sps)


def _sum_dur(sps, *names) -> float:
    return sum(sp.duration for sp in sps if sp.name in names)


def op_layer_metrics(sps, result) -> dict:
    """Per-layer metrics of one traced operation from its spans and solver result."""
    own = spans.self_times(sps)
    by_start = sorted(sps, key=lambda sp: sp.start)
    kmv = [sp for sp in by_start if sp.name == "kernel.apply_hamiltonian"]
    mmv = [sp for sp in by_start if sp.name == "mixtures.apply_mixture_hamiltonian"]
    calls = _total(sps, "gather_calls")
    builds = _total(sps, "gather_builds")
    dups = _total(sps, "duplicate_builds")
    matvecs = len(kmv) + len(mmv)
    out = {
        "hamiltonian.load_s": _sum_dur(sps, "hamiltonian.load_integrals"),
        "fockspace.tables_s": _sum_dur(sps, "fockspace.tables"),
        "fockspace.table_builds": sum(sp.name == "fockspace.tables" for sp in sps),
        "fockspace.io_s": _sum_dur(sps, "fockspace.load_state", "fockspace.save_state"),
        "kernel.matvecs": len(kmv),
        "kernel.matvec_s": _median([sp.duration for sp in kmv[1:]]),
        "kernel.first_matvec_s": kmv[0].duration if kmv else 0.0,
        "kernel.gather_calls": calls,
        "kernel.gather_builds": builds,
        "kernel.duplicate_builds": dups,
        "kernel.gather_hit_ratio": (calls - builds - dups) / calls if calls else 0.0,
        # top-level lookups only: those counted on the matvec span itself
        "kernel.moved_mb": kmv[0].counts.get("act_rows", 0) * BYTES_PER_ROW / 1e6 if kmv else 0.0,
        "kernel.self_s": sum(own[sp.sid] for sp in sps if sp.name.startswith("kernel.")),
        "mixtures.matvecs": len(mmv),
        "mixtures.matvec_s": _median([sp.duration for sp in (mmv[1:] or mmv)]),
        "mixtures.self_s": sum(own[sp.sid] for sp in sps if sp.name.startswith("mixtures.")),
        "observables.rho1_s": _sum_dur(sps, "observables.one_body_density", "observables.mixture_densities"),
        "observables.rho2_s": _sum_dur(sps, "observables.two_body_density"),
        "observables.site_densities_s": _sum_dur(sps, "observables.site_densities"),
        "solvers.iterations": getattr(result, "iterations", 0),
        "solvers.self_s": sum(own[sp.sid] for sp in sps
                              if sp.name in ("solvers.ground_state", "solvers.propagate")),
        "solvers.matvecs_per_step": 0.0,
    }
    times = getattr(result, "times", None)
    if times is not None and len(times) > 1:
        # one matvec for the initial energy; per grid step, the SIL substeps
        # (krylov_dim matvecs each) and one energy matvec
        out["solvers.matvecs_per_step"] = (matvecs - 1) / (len(times) - 1)
    return out


def tables_mb(spec) -> float:
    """Bytes of the public SpaceTables arrays of every species, in MB."""
    total = 0
    for space in spaces_of(spec):
        tb = space.tables()
        for attr in ("occ", "prefix", "holes", "addr_arg", "addr_val"):
            arr = getattr(tb, attr, None)
            if arr is not None:
                total += arr.nbytes
    return total / 1e6


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def executor_metrics(wl: Workload, inp: dict, rec: spans.Recorder) -> dict:
    """Cold one-apply times for 1 and 2 workers, plus the gather cache on a warm apply."""
    spec, psi = wl.apply_input(inp)
    t1 = _timed(executor.parallel_apply, spec, psi, workers=1)
    with spans.attached(rec), rec.operation("warm-apply"):
        executor.parallel_apply(spec, psi, workers=1)
    warm = rec.of_op("warm-apply")
    calls = _total(warm, "gather_calls")
    builds = _total(warm, "gather_builds")
    out = {
        "executor.apply_1w_s": t1,
        "kernel.warm_gather_builds": builds,
        "kernel.warm_hit_ratio": (calls - builds) / calls if calls else 0.0,
    }
    if isinstance(spec, mixtures.MixtureHamiltonianSpec):
        out["mixtures.intra_a_s"] = _timed(mixtures.apply_intra_a, spec.spec_a, psi)
        out["mixtures.intra_b_s"] = _timed(mixtures.apply_intra_b, spec.spec_b, psi)
        out["mixtures.inter_s"] = _timed(mixtures.apply_inter, spec.inter, psi)
    del spec
    spec, psi = wl.apply_input(inp)
    t2 = _timed(executor.parallel_apply, spec, psi, workers=2)
    out["executor.apply_2w_s"] = t2
    out["executor.speedup_2w"] = t1 / t2
    return out


def _run_op(wl: Workload, inp: dict, ref, rec: spans.Recorder | None = None, op_id=None):
    """(seconds or None, failed checks, output) of one checked operation."""
    try:
        if rec is None:
            t0 = time.perf_counter()
            out = wl.operation(inp)
            dur = time.perf_counter() - t0
        else:
            with spans.attached(rec), rec.operation(op_id):
                t0 = time.perf_counter()
                out = wl.operation(inp)
                dur = time.perf_counter() - t0
        return dur, wl.check(inp, ref, out), out
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, [f"raised {type(exc).__name__}: {exc}"], None


def sibling_check(wl: Workload, workdir: Path, seed: int) -> list[str]:
    """The workload's code path once on a dense-oracle-sized input (untimed)."""
    sib = wl.sibling()
    workdir.mkdir(parents=True, exist_ok=True)
    inp = sib.generate(workdir, seed)
    _, fails, _ = _run_op(sib, inp, sib.reference(inp))
    return [f"sibling: {f}" for f in fails]


def environment(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "commit": _git_commit(root),
    }


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text(encoding="utf-8").strip()
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable report lines."""
    workdir.mkdir(parents=True, exist_ok=True)
    inp = wl.generate(workdir, seed)
    ref = wl.reference(inp)
    lines = []
    fails: list[str] = []
    attempted = 0
    rec = spans.Recorder() if trace else None
    plain, traced, layer_rows = [], [], []
    setup = []
    t_end = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < t_end:
        if not trace:
            # set-ups are spread over the run like the operations, so both
            # see the same drift of the machine's speed
            for _ in range(SETUPS_PER_OP):
                gc.collect()
                setup.append(_timed(wl.setup, inp))
        use_trace = trace and attempted % 2 == 1
        op_id = attempted
        dur, op_fails, out = _run_op(wl, inp, ref, rec if use_trace else None, op_id)
        attempted += 1
        fails.extend(f"op {op_id}: {f}" for f in op_fails)
        if dur is not None:
            (traced if use_trace else plain).append(dur)
            if use_trace:
                layer_rows.append(op_layer_metrics(rec.of_op(op_id), out.get("result")))
        # specs hold reference cycles (space <-> tables); free them before
        # the next operation so the peak RSS is that of one operation
        del out
        gc.collect()
        if dur is None and time.perf_counter() >= t_end:
            break
    sib_fails = sibling_check(wl, workdir / "sibling", seed)
    attempted += 1
    fails.extend(sib_fails)

    if trace:
        metrics = {name: _median([row[name] for row in layer_rows]) for name in (layer_rows or [{}])[0]}
        for name in EXACT:
            vals = {row[name] for row in layer_rows if name in row}
            if len(vals) > 1:
                lines.append(f"# note: {name} varied between traced operations: {sorted(vals)}")
        spec = wl.setup(inp)
        metrics["hamiltonian.terms"] = term_count(spec)
        metrics["fockspace.tables_mb"] = tables_mb(spec)
        del spec
        metrics.update(executor_metrics(wl, inp, rec))
        metrics["trace.overhead_s"] = _median(traced) - _median(plain)
        values = {name: metrics.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        lines.append(f"# {len(traced)} traced and {len(plain)} untraced operations")
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump([sp.as_dict() for sp in rec.spans], fh)
            lines.append(f"# {len(rec.spans)} spans written to {spans_path}")
    else:
        values = {
            "op_s": _median(plain),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
        lines.append(f"# op_s is the median of {len(plain)} operations; setup_s of {len(setup)} set-ups")
        lines.append("# operation seconds: " + " ".join(f"{d:.4f}" for d in plain))
    failed_ops = len({f.split(":", 1)[0] for f in fails})
    lines.append(f"fail_ratio {failed_ops / attempted:.6g} ratio ({failed_ops} of {attempted} operations)")
    lines.extend(f"# check failed: {f}" for f in fails)
    for name, value in values.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    return result, lines
