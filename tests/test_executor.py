"""Bitwise determinism of the row-block executor."""

import sys
import threading
import time

import numpy as np
import pytest

from fockops import (
    MixtureSpace,
    SolverArgumentError,
    SpaceDescriptor,
    WorkerCountError,
    apply_hamiltonian,
    basis_state,
    build_bose_hubbard,
    build_dense,
    fockspace,
    ground_state,
    kernel,
    load_integrals,
    mixture_random_state,
    parallel_apply,
    propagate,
    random_state,
    resolve_workers,
    save_integrals,
)
from fockops.executor import WORKERS_ENV
from conftest import (
    random_hermitian_spec,
    random_mixture_spec,
    suite_mixture_spaces,
    suite_single_spaces,
)


class TestWorkerResolution:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers(None) == 4

    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers(2) == 2

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_numpy_integer_accepted(self):
        assert type(resolve_workers(np.int64(2))) is int

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "2", np.float64(2.0), np.bool_(True)],
                             ids=repr)
    @pytest.mark.parametrize("entry", ["resolve_workers", "parallel_apply", "ground_state"])
    def test_a_count_that_is_not_an_integer_is_refused(self, entry, bad):
        spec = build_bose_hubbard(2, 3, hopping=1.0, interaction=2.0)
        call = {
            "resolve_workers": lambda: resolve_workers(bad),
            "parallel_apply": lambda: parallel_apply(spec, random_state(spec.space, seed=1), bad),
            "ground_state": lambda: ground_state(spec, workers=bad),
        }[entry]
        with pytest.raises(WorkerCountError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("entry,name,bad", [
        ("ground_state", "max_iter", 2.5), ("ground_state", "max_iter", "5"), ("ground_state", "max_iter", True),
        ("ground_state", "tol", "1e-8"), ("ground_state", "seed", True), ("ground_state", "seed", np.bool_(True)),
        ("propagate", "krylov_dim", 2.5), ("propagate", "krylov_dim", True), ("propagate", "krylov_dim", "3"),
        ("propagate", "dt", "0.1"), ("propagate", "t_final", "1"), ("propagate", "err_tol", "1e-9"),
    ], ids=repr)
    def test_a_solver_argument_of_the_wrong_type_is_refused(self, entry, name, bad):
        """As for worker counts: an iteration or Krylov bound or a seed is an int or np.integer, not a bool, and a
        tolerance, step or end time a real number; anything else is a SolverArgumentError, not a TypeError."""
        spec = build_bose_hubbard(2, 3, hopping=1.0, interaction=2.0)
        call = {
            "ground_state": lambda: ground_state(spec, **{name: bad}),
            "propagate": lambda: propagate(spec, basis_state(spec.space, 1), **{"t_final": 1.0, "dt": 0.5, name: bad}),
        }[entry]
        with pytest.raises(SolverArgumentError, match=f"^{name} must be "):
            call()

    def test_numpy_solver_arguments_are_accepted(self):
        spec = build_bose_hubbard(2, 3, hopping=1.0, interaction=2.0)
        ref = ground_state(spec, tol=1e-9, max_iter=50, seed=3)
        got = ground_state(spec, tol=np.float64(1e-9), max_iter=np.int64(50), seed=np.int32(3))
        np.testing.assert_array_equal(got.state.amplitudes, ref.state.amplitudes)
        psi0 = basis_state(spec.space, 1)
        ref = propagate(spec, psi0, t_final=1.0, dt=0.5, krylov_dim=4, err_tol=1e-9)
        got = propagate(spec, psi0, t_final=np.float64(1.0), dt=np.float64(0.5), krylov_dim=np.int64(4),
                        err_tol=np.float64(1e-9))
        np.testing.assert_array_equal(got.final_state.amplitudes, ref.final_state.amplitudes)


class TestBitwiseDeterminism:
    @pytest.mark.parametrize("space", suite_single_spaces()[:3], ids=str)
    def test_single_species(self, space):
        spec = random_hermitian_spec(space, seed=1)
        psi = random_state(space, seed=2)
        ref = parallel_apply(spec, psi, workers=1).amplitudes
        serial = apply_hamiltonian(spec, psi).amplitudes
        np.testing.assert_array_equal(ref, serial)
        for w in (2, 4, 8):
            out = parallel_apply(spec, psi, workers=w).amplitudes
            np.testing.assert_array_equal(ref, out)

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_mixtures(self, idx):
        mspace = suite_mixture_spaces()[idx]
        mspec = random_mixture_spec(mspace, seed=3)
        psi = mixture_random_state(mspace, seed=4)
        ref = parallel_apply(mspec, psi, workers=1).amplitudes
        for w in (2, 4, 8):
            out = parallel_apply(mspec, psi, workers=w).amplitudes
            np.testing.assert_array_equal(ref, out)

    def test_repeated_runs_identical(self):
        space = SpaceDescriptor.boson(4, 4)
        spec = random_hermitian_spec(space, seed=5)
        psi = random_state(space, seed=6)
        a = parallel_apply(spec, psi, workers=4).amplitudes
        b = parallel_apply(spec, psi, workers=4).amplitudes
        np.testing.assert_array_equal(a, b)


def _fresh_spec_and_state(tmp_path, space):
    """A freshly parsed spec, whose spaces have no tables yet, and a state for it."""
    path = tmp_path / "h.ints"
    if isinstance(space, MixtureSpace):
        save_integrals(random_mixture_spec(space, seed=13), path)
        spec = load_integrals(path)
        return spec, mixture_random_state(spec.mspace, seed=14), [spec.mspace.space_a, spec.mspace.space_b]
    save_integrals(random_hermitian_spec(space, seed=13), path)
    spec = load_integrals(path)
    return spec, random_state(spec.space, seed=14), [spec.space]


class TestRowBlocks:
    """Several blocks per vector: the block size is patched down to a few rows."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernel, "BLOCK_AMPLITUDES", 7)

    @pytest.mark.parametrize(
        "space", [suite_single_spaces()[0], suite_single_spaces()[2], suite_mixture_spaces()[2]],
        ids=str,
    )
    def test_workers_bitwise_identical_and_match_oracle(self, space):
        if isinstance(space, MixtureSpace):
            spec = random_mixture_spec(space, seed=21)
            psi = mixture_random_state(space, seed=22)
        else:
            spec = random_hermitian_spec(space, seed=21)
            psi = random_state(space, seed=22)
        ref = parallel_apply(spec, psi, workers=1).amplitudes
        for w in (2, 4):
            np.testing.assert_array_equal(parallel_apply(spec, psi, workers=w).amplitudes, ref)
        dense = build_dense(spec) @ psi.amplitudes
        assert np.linalg.norm(ref - dense) / np.linalg.norm(dense) <= 1e-12

    @pytest.mark.parametrize("space", [suite_single_spaces()[0], suite_mixture_spaces()[2]], ids=str)
    def test_tables_built_once_per_space(self, tmp_path, monkeypatch, space):
        built = []
        init = fockspace.SpaceTables.__init__

        def slow_init(self, space):
            built.append(space)
            time.sleep(0.05)  # widens the window in which a second thread could also build
            init(self, space)

        monkeypatch.setattr(fockspace.SpaceTables, "__init__", slow_init)
        spec, psi, spaces = _fresh_spec_and_state(tmp_path, space)
        parallel_apply(spec, psi, workers=2)
        assert sorted(map(repr, built)) == sorted(map(repr, spaces))


def test_gather_cache_accounting_under_threads():
    """Threads that miss the same keys at once store each gather once, and all get the stored one."""
    tables = SpaceDescriptor.boson(2, 3).tables()
    keys = [(("a", p), ("c", p)) for p in range(1, 4)] + [(("a", 1), ("a", 2), ("c", 2), ("c", 1))]
    barrier = threading.Barrier(8)

    def build():
        time.sleep(0.001)
        return (np.zeros(5), np.ones(5), np.ones(5, dtype=bool), np.arange(5))

    got = []

    def worker():
        barrier.wait(timeout=10)
        for key in keys:
            got.append((key, tables.cached_gather(key, build)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(tables._gather_cache) == len(keys)
    assert len(got) == 8 * len(keys)
    assert all(val is tables._gather_cache[key] for key, val in got)
