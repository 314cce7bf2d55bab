"""Lanczos ground states and SIL propagation against dense references."""

import tracemalloc

import numpy as np
import pytest

from fockops import (
    ConvergenceError,
    HamiltonianSpec,
    MixtureSpace,
    OneBodyTable,
    SpaceDescriptor,
    StateVector,
    StepFailureError,
    TwoBodyTable,
    apply_hamiltonian,
    basis_state,
    boson_rank,
    build_bose_hubbard,
    build_dense,
    dense_eig,
    dense_expm_apply,
    ground_state,
    mixture_random_state,
    propagate,
    random_state,
)
from fockops import kernel, mixtures, solvers
from fockops.solvers import BASIS_BLOCK_ROWS, write_series_csv
from conftest import (
    random_hermitian_spec,
    random_mixture_spec,
    suite_mixture_spaces,
    suite_single_spaces,
)


class TestGroundState:
    def test_two_site_analytic(self):
        spec = build_bose_hubbard(1, 2, hopping=1.0, interaction=2.0)
        result = ground_state(spec)
        assert result.energy == pytest.approx(-1.0, abs=1e-12)
        assert result.residual <= 1e-10

    def test_matches_dense_eigensolver(self):
        space = SpaceDescriptor.fermion(2, 4)
        spec = random_hermitian_spec(space, seed=1)
        result = ground_state(spec, tol=1e-11)
        evals, _ = dense_eig(build_dense(spec))
        assert abs(result.energy - evals[0]) <= 1e-10

    def test_number_operator_breaks_down_happily(self):
        space = SpaceDescriptor.boson(4, 3)
        spec = HamiltonianSpec(space, OneBodyTable(np.eye(3)), TwoBodyTable.zeros(3))
        result = ground_state(spec)
        assert result.energy == pytest.approx(4.0)
        assert result.iterations == 1

    def test_seed_invariance(self):
        space = SpaceDescriptor.boson(3, 3)
        spec = random_hermitian_spec(space, seed=2)
        energies = {round(ground_state(spec, tol=1e-11, seed=s).energy, 9) for s in range(4)}
        assert len(energies) == 1

    def test_deterministic_given_seed(self):
        space = SpaceDescriptor.boson(3, 3)
        spec = random_hermitian_spec(space, seed=3)
        r1 = ground_state(spec, seed=7)
        r2 = ground_state(spec, seed=7)
        np.testing.assert_array_equal(r1.state.amplitudes, r2.state.amplitudes)
        assert r1.energy == r2.energy

    def test_nonconvergence_raises_with_best_residual(self):
        space = SpaceDescriptor.boson(4, 4)
        spec = random_hermitian_spec(space, seed=4)
        with pytest.raises(ConvergenceError) as exc:
            ground_state(spec, tol=1e-13, max_iter=2)
        assert exc.value.best_residual is not None
        assert exc.value.best_residual > 0

    def test_mixture_ground_state(self):
        mspace = suite_mixture_spaces()[2]
        mspec = random_mixture_spec(mspace, seed=5)
        result = ground_state(mspec, tol=1e-10)
        evals, _ = dense_eig(build_dense(mspec))
        assert abs(result.energy - evals[0]) <= 1e-9

    def test_residual_definition(self):
        space = SpaceDescriptor.boson(3, 4)
        spec = random_hermitian_spec(space, seed=6)
        result = ground_state(spec, tol=1e-11)
        hpsi = apply_hamiltonian(spec, result.state).amplitudes
        res = np.linalg.norm(hpsi - result.energy * result.state.amplitudes)
        assert res <= 1e-10


def _spectrum_spec(lam, seed):
    """One particle on len(lam) orbitals with one-body table U diag(lam) U^H: H has spectrum lam."""
    m = len(lam)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    h = (u * np.asarray(lam)) @ u.conj().T
    return HamiltonianSpec(SpaceDescriptor.fermion(1, m), OneBodyTable(0.5 * (h + h.conj().T)),
                           TwoBodyTable.zeros(m))


def _peak_bytes(fn) -> int:
    """Peak of the memory fn allocates beyond what was live when it started (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLanczosBasis:
    """The blocked Krylov basis: orthogonality, block boundaries and the memory it holds."""

    @pytest.mark.parametrize("low", [[0.0, 1e-3, 2e-3, 3e-3], [0.0, 0.0, 0.0, 1e-4]],
                             ids=["clustered", "degenerate"])
    @pytest.mark.parametrize("krylov", [BASIS_BLOCK_ROWS - 1, BASIS_BLOCK_ROWS, BASIS_BLOCK_ROWS + 1,
                                        2 * BASIS_BLOCK_ROWS])
    def test_clustered_low_spectrum_exhausts_the_krylov_space(self, low, krylov):
        """A cluster 1e-3 wide under levels up to 1000 is resolved only by the whole Krylov space.

        Its dimension is the number of distinct levels, ``krylov``: the
        clustered spectrum ends at it == dim, the degenerate one in a
        breakdown, on both sides of block boundaries.  Without
        reorthogonalization the exhausted space misses the ground state.
        """
        lam = np.concatenate([low, np.geomspace(1.0, 1000.0, krylov - len(set(low)))])
        spec = _spectrum_spec(lam, seed=krylov)
        result = ground_state(spec, tol=1e-10, seed=1)
        assert result.iterations == krylov
        assert abs(result.energy - dense_eig(build_dense(spec))[0][0]) <= 1e-10
        hpsi = apply_hamiltonian(spec, result.state).amplitudes
        assert np.linalg.norm(hpsi - result.energy * result.state.amplitudes) <= 1e-10

    @pytest.mark.parametrize("max_iter", [BASIS_BLOCK_ROWS - 1, BASIS_BLOCK_ROWS, BASIS_BLOCK_ROWS + 1,
                                          2 * BASIS_BLOCK_ROWS])
    def test_nonconvergence_at_block_boundaries(self, max_iter, monkeypatch):
        """The basis ends with the last iteration's vector: no row, and no block, past it."""
        made = []

        class Recorded(solvers._Lanczos):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(solvers, "_Lanczos", Recorded)
        lam = np.concatenate([[0.0, 1e-3], np.geomspace(1.0, 1000.0, 2 * BASIS_BLOCK_ROWS + 2)])
        with pytest.raises(ConvergenceError, match=f"within {max_iter} iterations") as exc:
            ground_state(_spectrum_spec(lam, seed=0), tol=1e-10, max_iter=max_iter)
        assert 0 < exc.value.best_residual < np.inf
        (lz,) = made
        assert lz.size == max_iter
        assert len(lz.blocks) == -(-max_iter // BASIS_BLOCK_ROWS)

    @pytest.mark.parametrize("max_iter,tol", [(300, 1e-10), (BASIS_BLOCK_ROWS, 0.0)],
                             ids=["converges-in-4", "stops-on-a-block-boundary"])
    def test_basis_memory_stays_within_one_block_of_the_vectors_used(self, max_iter, tol):
        """tracemalloc peak of ground_state <= one matvec's peak + the blocks its vectors fill + 6 vectors.

        n_1 + 2 n_2 has four distinct levels, so Lanczos breaks down after
        four iterations; a random one-body table with tol = 0 runs to
        ``max_iter``, which ends a block.  Reserving rows for ``max_iter``
        vectors up front, or a block past the last vector, exceeds the bound.
        """
        space = SpaceDescriptor.fermion(4, 24)
        a = np.random.default_rng(3).standard_normal((24, 24))
        h = np.diag([1.0, 2.0] + [0.0] * 22) if tol else a + a.T
        spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.zeros(24))
        psi = random_state(space, seed=4)
        apply_hamiltonian(spec, psi)  # tables and gathers are cached before tracing
        matvec_peak = _peak_bytes(lambda: apply_hamiltonian(spec, psi))
        runs = []

        def solve():
            try:
                runs.append(ground_state(spec, tol=tol, max_iter=max_iter).iterations)
            except ConvergenceError:
                runs.append(max_iter)

        peak = _peak_bytes(solve)
        iterations = runs[0]
        assert iterations == (4 if tol else max_iter)
        block_rows = -(-iterations // BASIS_BLOCK_ROWS) * BASIS_BLOCK_ROWS
        assert peak <= matvec_peak + (block_rows + 6) * space.n_conf * 16


@pytest.fixture
def lanczos_made(monkeypatch):
    """Every _Lanczos the solvers create, in order."""
    made = []

    class Recorded(solvers._Lanczos):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(solvers, "_Lanczos", Recorded)
    return made


_SPECTRA = [(low, krylov) for low in ([0.0, 1e-3, 2e-3, 3e-3], [0.0, 0.0, 0.0, 1e-4])
            for krylov in (BASIS_BLOCK_ROWS - 1, BASIS_BLOCK_ROWS, BASIS_BLOCK_ROWS + 1, 2 * BASIS_BLOCK_ROWS)]


class TestReorthogonalization:
    """The second Gram-Schmidt pass runs only when the first cancels most of the vector (DGKS)."""

    @pytest.mark.parametrize("case", _SPECTRA + ["bose-hubbard"],
                             ids=[f"{'degenerate' if low[1] == 0 else 'clustered'}-{k}" for low, k in _SPECTRA]
                             + ["bose-hubbard"])
    def test_basis_is_orthonormal_after_the_solve(self, case, lanczos_made):
        """max|V^H V - I| <= 1e-12 on the TestLanczosBasis spectra and on Bose-Hubbard boson(4,5)."""
        if case == "bose-hubbard":
            spec = build_bose_hubbard(4, 5, hopping=1.0, interaction=2.0)
        else:
            low, krylov = case
            lam = np.concatenate([low, np.geomspace(1.0, 1000.0, krylov - len(set(low)))])
            spec = _spectrum_spec(lam, seed=krylov)
        ground_state(spec, tol=1e-10, seed=1)
        (lz,) = lanczos_made
        v = np.array([lz.row(i) for i in range(lz.size)])
        assert np.abs(v.conj() @ v.T - np.eye(lz.size)).max() <= 1e-12

    def test_second_pass_is_skipped_when_not_needed(self, monkeypatch):
        passes = []
        orthogonalize = solvers._Lanczos._orthogonalize
        monkeypatch.setattr(solvers._Lanczos, "_orthogonalize",
                            lambda self, w: passes.append(1) or orthogonalize(self, w))
        result = ground_state(build_bose_hubbard(4, 5, hopping=1.0, interaction=2.0), tol=1e-10, seed=1)
        second_passes = len(passes) - result.iterations  # one first pass per iteration
        assert 0 <= second_passes < result.iterations


class TestRealArithmetic:
    """A spec whose kept coefficients are all real is solved in float64."""

    @pytest.mark.parametrize("case", ["bose-hubbard", "real-mixture", "complex", "complex-mixture"])
    def test_basis_dtype_follows_the_coefficients(self, case, lanczos_made):
        mspace = suite_mixture_spaces()[2]
        spec = {
            "bose-hubbard": lambda: build_bose_hubbard(3, 4, hopping=1.0, interaction=2.0),
            "real-mixture": lambda: random_mixture_spec(mspace, seed=5, real=True),
            "complex": lambda: random_hermitian_spec(SpaceDescriptor.boson(3, 3), seed=5),
            "complex-mixture": lambda: random_mixture_spec(mspace, seed=5),
        }[case]()
        result = ground_state(spec, tol=1e-10)
        (lz,) = lanczos_made
        assert lz.blocks[0].dtype == (np.complex128 if case.startswith("complex") else np.float64)
        assert result.state.amplitudes.dtype == np.complex128

    @pytest.mark.parametrize("space", suite_single_spaces() + suite_mixture_spaces(), ids=str)
    def test_energies_match_the_dense_oracle(self, space):
        build = random_mixture_spec if isinstance(space, MixtureSpace) else random_hermitian_spec
        spec = build(space, seed=17, real=True)
        assert (mixtures if isinstance(space, MixtureSpace) else kernel).prepare(spec).dtype == np.float64
        result = ground_state(spec, tol=1e-11)
        assert abs(result.energy - dense_eig(build_dense(spec))[0][0]) <= 1e-10

    @pytest.mark.parametrize("real", [True, False], ids=["real", "forced-complex"])
    def test_real_basis_memory(self, real, monkeypatch):
        """tracemalloc peak <= one float64 prepared matvec's peak + (block_rows + 6) float64 vectors.

        H is prepared before tracing.  The same solve forced into complex128
        holds twice the basis bytes and exceeds the bound.
        """
        space = SpaceDescriptor.fermion(4, 24)
        a = np.random.default_rng(3).standard_normal((24, 24))
        spec = HamiltonianSpec(space, OneBodyTable(a + a.T), TwoBodyTable.zeros(24))
        psi = StateVector(space, random_state(space, seed=4).amplitudes.real.copy())
        op = kernel.prepare(spec)  # tables and gathers are cached before tracing
        matvec_peak = _peak_bytes(lambda: apply_hamiltonian(op, psi))
        if not real:
            op = op._replace(op=op.op._replace(dtype=np.dtype(np.complex128)))
        monkeypatch.setattr(kernel, "prepare", lambda spec: op)

        def solve():
            with pytest.raises(ConvergenceError):
                ground_state(spec, tol=0.0, max_iter=BASIS_BLOCK_ROWS)

        peak = _peak_bytes(solve)
        assert (peak <= matvec_peak + (BASIS_BLOCK_ROWS + 6) * space.n_conf * 8) == real


@pytest.mark.parametrize("mixture", [False, True], ids=["single", "mixture"])
def test_factoring_runs_once_per_solve(mixture, monkeypatch):
    """ground_state and propagate each factor every species and the inter-species table once."""
    calls = []
    for owner, name in ((kernel, "factor_species"), (mixtures, "factor_inter")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    if mixture:
        mspace = suite_mixture_spaces()[2]
        spec, psi0 = random_mixture_spec(mspace, seed=5), mixture_random_state(mspace, seed=6)
        once = ["factor_species", "factor_species", "factor_inter"]
    else:
        spec = build_bose_hubbard(3, 4, hopping=1.0, interaction=2.0)
        psi0 = basis_state(spec.space, 1)
        once = ["factor_species"]
    assert ground_state(spec, tol=1e-10).iterations > 1
    assert calls == once
    calls.clear()
    assert propagate(spec, psi0, t_final=1.0, dt=0.5, krylov_dim=6).substeps.sum() >= 2
    assert calls == once


class TestPropagation:
    def test_zero_hamiltonian_is_identity(self):
        space = SpaceDescriptor.boson(2, 3)
        spec = HamiltonianSpec(space, OneBodyTable(np.zeros((3, 3))), TwoBodyTable.zeros(3))
        psi0 = random_state(space, seed=1)
        result = propagate(spec, psi0, t_final=5.0, dt=0.5)
        np.testing.assert_allclose(result.final_state.amplitudes, psi0.amplitudes, atol=1e-12)
        assert result.norm_drift <= 1e-12

    def test_rabi_oscillation(self):
        """U = 0, N = 4, start |4,0>: site-1 density is 4 cos^2(J t)."""
        spec = build_bose_hubbard(4, 2, hopping=1.0, interaction=0.0)
        psi0 = basis_state(spec.space, boson_rank((4, 0), spec.space))
        result = propagate(spec, psi0, t_final=np.pi, dt=0.05, krylov_dim=8)
        expected = 4.0 * np.cos(result.times) ** 2
        assert np.abs(result.site_densities[:, 0] - expected).max() <= 1e-6

    @pytest.mark.parametrize(
        "space", [SpaceDescriptor.fermion(2, 4), SpaceDescriptor.boson(3, 3)]
    )
    def test_matches_dense_exponential(self, space):
        spec = random_hermitian_spec(space, seed=7)
        psi0 = random_state(space, seed=8)
        result = propagate(spec, psi0, t_final=10.0, dt=0.25, krylov_dim=14, store_states=True)
        mat = build_dense(spec)
        for t, state in zip(result.times, result.states):
            exact = dense_expm_apply(mat, psi0, float(t))
            assert np.linalg.norm(state.amplitudes - exact.amplitudes) <= 1e-8

    def test_unitarity_and_energy_conservation(self):
        space = SpaceDescriptor.boson(3, 3)
        spec = random_hermitian_spec(space, seed=9)
        psi0 = random_state(space, seed=10)
        horizon = 10.0
        result = propagate(spec, psi0, t_final=horizon, dt=0.2)
        assert result.norm_drift <= 1e-10 * horizon
        assert result.energy_drift <= 1e-9 * max(1.0, abs(result.energies[0]))

    def test_error_estimates_recorded(self):
        spec = build_bose_hubbard(3, 3, hopping=1.0, interaction=0.4)
        psi0 = basis_state(spec.space, 1)
        result = propagate(spec, psi0, t_final=1.0, dt=0.25, krylov_dim=6)
        assert result.error_estimates.shape == result.times.shape
        assert np.all(result.error_estimates >= 0)

    def test_substeps_and_rejections_per_grid_step(self):
        benign = propagate(build_bose_hubbard(2, 3, hopping=1.0, interaction=0.3),
                           basis_state(SpaceDescriptor.boson(2, 3), 1), t_final=2.0, dt=0.25, krylov_dim=8)
        np.testing.assert_array_equal(benign.substeps, [0] + [1] * 8)
        np.testing.assert_array_equal(benign.rejections, [0] * 9)
        spec = build_bose_hubbard(3, 4, hopping=1.0, interaction=2.0)
        halving = propagate(spec, basis_state(spec.space, 1), t_final=2.0, dt=1.0, krylov_dim=4, err_tol=1e-3)
        assert halving.substeps.shape == halving.rejections.shape == halving.times.shape
        assert halving.substeps[0] == halving.rejections[0] == 0
        assert np.all(halving.rejections[1:] > 0)
        assert np.all(halving.substeps[1:] > 1)

    def test_rejected_substeps_reuse_their_krylov_space(self, monkeypatch):
        """A rejected substep is retried on the Krylov space it was built on.

        Rebuilding the space for every trial step instead must give the same
        bits and cost more matvecs.
        """
        spec = build_bose_hubbard(3, 4, hopping=1.0, interaction=2.0)
        psi0 = basis_state(spec.space, 1)
        matvecs = []
        apply = kernel.apply_hamiltonian
        monkeypatch.setattr(kernel, "apply_hamiltonian", lambda *a, **k: matvecs.append(1) or apply(*a, **k))

        def run():
            matvecs.clear()
            result = propagate(spec, psi0, t_final=2.0, dt=1.0, krylov_dim=4, err_tol=1e-3)
            return result, len(matvecs)

        reused, n_reused = run()
        sil_space = solvers._sil_space
        monkeypatch.setattr(solvers, "_sil_space",
                            lambda lz, y, m, *a: lambda dt, budget: sil_space(lz, y, m, *a)(dt, budget))
        rebuilt, n_rebuilt = run()
        assert reused.rejections.sum() > 0
        assert n_reused == 1 + reused.krylov_dims.sum()
        assert n_rebuilt > n_reused
        for name in ("norms", "energies", "site_densities", "error_estimates", "substeps", "rejections"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(reused, name))
        np.testing.assert_array_equal(rebuilt.final_state.amplitudes, reused.final_state.amplitudes)

    def test_step_failure_when_subdividing_cannot_help(self):
        # at krylov_dim = 2 the estimate scales linearly with the substep, so
        # the error/budget ratio is constant and halving reaches the minimum
        space = SpaceDescriptor.boson(3, 3)
        spec = random_hermitian_spec(space, seed=11)
        psi0 = random_state(space, seed=12)
        with pytest.raises(StepFailureError):
            propagate(spec, psi0, t_final=1.0, dt=0.5, krylov_dim=2, err_tol=1e-12)

    def test_mixture_propagation_vs_dense(self):
        mspace = suite_mixture_spaces()[0]
        mspec = random_mixture_spec(mspace, seed=13)
        from fockops import mixture_random_state

        psi0 = mixture_random_state(mspace, seed=14)
        result = propagate(mspec, psi0, t_final=2.0, dt=0.2, store_states=True)
        mat = build_dense(mspec)
        for t, state in zip(result.times, result.states):
            exact = dense_expm_apply(mat, psi0, float(t))
            assert np.linalg.norm(state.amplitudes - exact.amplitudes) <= 1e-8

    def test_bad_grid_rejected(self):
        spec = build_bose_hubbard(1, 2, hopping=1.0, interaction=0.0)
        psi0 = basis_state(spec.space, 1)
        with pytest.raises(ValueError):
            propagate(spec, psi0, t_final=1.0, dt=0.0)


def _count_matvecs(monkeypatch) -> list:
    """Patch both apply entry points to append 1 per matvec to the returned list."""
    calls = []
    for owner, name in ((kernel, "apply_hamiltonian"), (mixtures, "apply_mixture_hamiltonian")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k))
    return calls


def _record_sil_calls(monkeypatch) -> list:
    """Patch ``_sil_space`` so every trial substep appends (estimate, budget, dimension)."""
    calls = []
    sil_space = solvers._sil_space

    def recorded(*args):
        sil = sil_space(*args)

        def step(dt, budget):
            out = sil(dt, budget)
            calls.append((out[1], budget, out[2]))
            return out

        return step

    monkeypatch.setattr(solvers, "_sil_space", recorded)
    return calls


class TestAdaptiveKrylov:
    """Each SIL space stops at the first dimension whose error estimate meets the substep's budget."""

    @pytest.mark.parametrize("mixture", [False, True], ids=["single", "mixture"])
    def test_matvecs_are_one_plus_the_krylov_dimensions(self, mixture, monkeypatch):
        """Each grid point's energy matvec is the next step's first Krylov product, so no matvec is repeated."""
        if mixture:
            mspace = suite_mixture_spaces()[2]
            spec, psi0 = random_mixture_spec(mspace, seed=5), mixture_random_state(mspace, seed=6)
        else:
            spec = random_hermitian_spec(SpaceDescriptor.boson(3, 4), seed=7)
            psi0 = random_state(spec.space, seed=8)
        matvecs = _count_matvecs(monkeypatch)
        result = propagate(spec, psi0, t_final=1.0, dt=0.25, krylov_dim=8)
        assert result.krylov_dims.shape == result.times.shape and result.krylov_dims[0] == 0
        assert len(matvecs) == 1 + result.krylov_dims.sum()

    def test_benign_input_stops_below_the_cap(self, monkeypatch):
        spec = build_bose_hubbard(4, 4, hopping=1.0, interaction=1.0)
        psi0 = basis_state(spec.space, 1)
        calls = _record_sil_calls(monkeypatch)
        result = propagate(spec, psi0, t_final=1.0, dt=0.1, krylov_dim=12)
        np.testing.assert_array_equal(result.substeps, [0] + [1] * 10)
        assert np.all(result.krylov_dims[1:] < 12)
        assert len(calls) == result.substeps.sum()
        assert all(err <= budget for err, budget, _ in calls)
        assert sum(m for _, _, m in calls) == result.krylov_dims.sum()
        assert np.all(result.error_estimates <= 1e-9)

    def test_tight_tolerance_fills_the_spaces(self, monkeypatch):
        spec = build_bose_hubbard(4, 4, hopping=1.0, interaction=1.0)
        psi0 = basis_state(spec.space, 1)
        calls = _record_sil_calls(monkeypatch)
        result = propagate(spec, psi0, t_final=1.0, dt=0.1, krylov_dim=12, err_tol=1e-14)
        assert np.all(result.krylov_dims[1:] >= 12)
        rejected = [m for err, budget, m in calls if err > budget]
        assert len(rejected) == result.rejections.sum() > 0
        assert rejected == [12] * len(rejected)  # only a full space is ever rejected
        assert sum(m for err, budget, m in calls if err <= budget) == result.krylov_dims.sum()

    def test_stop_is_the_first_dimension_within_budget(self):
        spec = random_hermitian_spec(SpaceDescriptor.fermion(3, 6), seed=3)
        y = random_state(spec.space, seed=4).amplitudes.astype(np.complex128)
        matvec, _, dim, _ = solvers._operator(spec)
        dt, budget, cap = 0.1, 1e-9, 14

        def trial(m_max, budget):
            return solvers._sil_space(solvers._Lanczos(matvec, dim, m_max), y, m_max)(dt, budget)

        errs = [trial(m, 0.0)[1] for m in range(1, cap + 1)]  # budget 0: grow to the cap
        first = next(m for m, err in enumerate(errs, start=1) if err <= budget)
        assert 1 < first < cap
        y_new, err, m = trial(cap, budget)
        assert (m, err) == (first, errs[first - 1])
        np.testing.assert_array_equal(y_new, trial(first, 0.0)[0])

    @pytest.mark.parametrize("mixture", [False, True], ids=["single", "mixture"])
    def test_workers_give_identical_bits(self, mixture, monkeypatch):
        monkeypatch.setattr(kernel, "BLOCK_AMPLITUDES", 7)  # several row blocks
        if mixture:
            mspace = suite_mixture_spaces()[2]
            spec, psi0 = random_mixture_spec(mspace, seed=9), mixture_random_state(mspace, seed=10)
        else:
            spec = build_bose_hubbard(4, 5, hopping=1.0, interaction=1.5)
            psi0 = random_state(spec.space, seed=11)
        runs = [propagate(spec, psi0, t_final=1.0, dt=0.25, workers=w) for w in (1, 2, 4)]
        for run in runs[1:]:
            for name in ("norms", "energies", "site_densities", "error_estimates", "krylov_dims"):
                np.testing.assert_array_equal(getattr(run, name), getattr(runs[0], name))
            np.testing.assert_array_equal(run.final_state.amplitudes, runs[0].final_state.amplitudes)


def test_series_csv_layout(tmp_path):
    spec = build_bose_hubbard(2, 2, hopping=1.0, interaction=0.3)
    psi0 = basis_state(spec.space, 1)
    result = propagate(spec, psi0, t_final=0.5, dt=0.25)
    path = tmp_path / "series.csv"
    write_series_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# fockops-series")
    header = lines[1].split(",")
    assert header == ["time", "norm", "energy", "density_1", "density_2"]
    assert len(lines) == 2 + len(result.times)
    row = [float(x) for x in lines[2].split(",")]
    assert row[0] == 0.0
    assert row[3] == pytest.approx(2.0)  # starts in |2,0>
