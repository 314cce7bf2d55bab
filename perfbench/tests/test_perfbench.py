"""Tests of the benchmark's own code: span arithmetic, generated inputs, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import bench
import inputs
import run
import spans
import workloads
from fockops import fockspace, hamiltonian, kernel
from fockops.fockspace import SpaceDescriptor

BENCH_DIR = Path(__file__).resolve().parent.parent
TINY = [wl.sibling() for wl in workloads.WORKLOADS.values()]


def _span(sid, start, end, parent=None):
    sp = spans.Span(sid, f"s{sid}", start, parent, op=0)
    sp.end = end
    return sp


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert spans.covered([], 0, 10) == 0
        assert spans.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
        assert spans.covered([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)
        assert spans.covered([(-5, -1), (11, 12)], 0, 10) == 0

    def test_nested_and_concurrent_children(self):
        # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as
        # from two worker threads) and c [8, 10]; a has grandchild g [2, 3]
        sps = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 3.0, 6.0, parent=1),
            _span(4, 8.0, 10.0, parent=1),
            _span(5, 2.0, 3.0, parent=2),
        ]
        own = spans.self_times(sps)
        assert own[1] == pytest.approx(10 - 7)
        assert own[2] == pytest.approx(3 - 1)
        assert own[3] == pytest.approx(3)
        assert own[5] == pytest.approx(1)
        # self times of a tree without concurrency add up to the root duration
        serial = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, parent=1), _span(3, 2.0, 3.0, parent=2)]
        assert sum(spans.self_times(serial).values()) == pytest.approx(10)

    def test_worker_thread_spans_hang_under_the_open_span(self):
        rec = spans.Recorder()
        with rec.operation("op1"):
            with rec.span("outer") as outer:
                def work(_):
                    with rec.span("inner"):
                        pass

                with ThreadPoolExecutor(max_workers=2) as pool:
                    list(pool.map(work, range(4)))
        inner = [sp for sp in rec.of_op("op1") if sp.name == "inner"]
        assert len(inner) == 4
        assert {sp.parent for sp in inner} == {outer.sid}


class TestAttach:
    def test_leaving_restores_the_library(self):
        before = (hamiltonian.load_integrals, kernel.apply_hamiltonian,
                  fockspace.SpaceTables.cached_gather, fockspace.SpaceTables.__init__)
        with spans.attached(spans.Recorder()):
            assert kernel.apply_hamiltonian is not before[1]
        after = (hamiltonian.load_integrals, kernel.apply_hamiltonian,
                 fockspace.SpaceTables.cached_gather, fockspace.SpaceTables.__init__)
        assert after == before

    def test_gather_counts_of_a_cold_and_a_warm_apply(self):
        spec = inputs.dense_spec(SpaceDescriptor.fermion(2, 4), np.random.default_rng(0))
        psi = fockspace.random_state(spec.space, seed=1)
        rec = spans.Recorder()
        with spans.attached(rec):
            for op in ("cold", "warm"):
                with rec.operation(op):
                    kernel.apply_hamiltonian(spec, psi)
        n_terms = len(kernel.hamiltonian_terms(spec))
        cold = rec.of_op("cold")
        assert sum(sp.counts.get("gather_builds", 0) for sp in cold) == n_terms
        assert sum(sp.name == "fockspace.tables" for sp in cold) == 1
        warm = rec.of_op("warm")
        assert sum(sp.counts.get("gather_builds", 0) for sp in warm) == 0
        assert sum(sp.counts.get("gather_calls", 0) for sp in warm) == n_terms


class TestInputs:
    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(4, 8), SpaceDescriptor.boson(3, 4)])
    def test_dense_tables_are_hermitian(self, space):
        spec = inputs.dense_spec(space, np.random.default_rng(7))
        report = hamiltonian.validate(spec)
        assert report.hermitian
        assert np.count_nonzero(spec.two_body.to_dense()) == space.m ** 4

    def test_chain_tables_are_hermitian(self):
        inputs.check_hermitian(inputs.hubbard_spec(4, 5, 1.0, 2.0, 0.5, np.random.default_rng(3)))
        inputs.check_hermitian(
            inputs.bose_fermi_spec(SpaceDescriptor.boson(2, 4), SpaceDescriptor.fermion(2, 4), 1.0, 2.0, 1.0)
        )

    def test_non_hermitian_tables_are_refused(self):
        spec = inputs.dense_spec(SpaceDescriptor.fermion(2, 4), np.random.default_rng(1))
        spec.one_body.matrix[0, 1] += 1.0
        with pytest.raises(ValueError):
            inputs.check_hermitian(spec)

    @pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
    def test_same_seed_same_files(self, wl, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        a, b = wl.generate(tmp_path / "a", 5), wl.generate(tmp_path / "b", 5)
        assert a["ints"].read_bytes() == b["ints"].read_bytes()
        if "vec" in a:
            assert a["vec"].read_bytes() == b["vec"].read_bytes()
        assert a.get("initial") == b.get("initial")


class TestSmoke:
    @pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
    def test_untraced_run(self, wl, tmp_path):
        result, lines = bench.run(wl, seed=3, seconds=0, trace=False, workdir=tmp_path)
        assert result["correct"], lines
        assert result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == set(bench.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())

    @pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
    def test_traced_run(self, wl, tmp_path):
        result, lines = bench.run(wl, seed=3, seconds=0, trace=True, workdir=tmp_path,
                                  spans_path=tmp_path / "spans.json")
        assert result["correct"], lines
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert set(metrics) == set(bench.PER_LAYER)
        assert metrics["hamiltonian.terms"] > 0
        assert metrics["kernel.gather_builds"] > 0
        assert metrics["kernel.matvecs"] + metrics["mixtures.matvecs"] > 0
        assert json.loads((tmp_path / "spans.json").read_text())

    def test_declared_metrics_match_the_reported_ones(self):
        doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        assert [m["name"] for m in doc["end_to_end"]] == list(bench.END_TO_END)
        assert [m["name"] for m in doc["per_layer"]] == list(bench.PER_LAYER)
        units = {**bench.END_TO_END, **bench.PER_LAYER}
        assert all(m["unit"] == units[m["name"]] for m in doc["end_to_end"] + doc["per_layer"])
        assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
        assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)

    def test_refuses_to_run_without_sources(self, tmp_path):
        shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense-gs", "--seed", "1", "--seconds", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
