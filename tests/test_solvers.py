"""Lanczos ground states and SIL propagation against dense references."""

import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockops import (
    ConvergenceError,
    HamiltonianSpec,
    MixtureSpace,
    OneBodyTable,
    SpaceDescriptor,
    StateVector,
    SolverArgumentError,
    StepFailureError,
    TwoBodyTable,
    WorkerCountError,
    apply_hamiltonian,
    basis_state,
    boson_rank,
    build_bose_hubbard,
    build_dense,
    dense_eig,
    dense_expm_apply,
    ground_state,
    mixture_random_state,
    one_body_density,
    propagate,
    random_state,
    two_body_density,
)
from fockops import kernel, mixtures, solvers
from fockops.oracle import DENSE_CAP
from fockops.solvers import BASIS_BLOCK_ROWS, BASIS_KEEP_ROWS, BASIS_MAX_ROWS, RESTART_MIN_DIM, write_series_csv
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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        spec = random_hermitian_spec(SpaceDescriptor.boson(3, 3), seed=3)
        with pytest.raises(SolverArgumentError, match="seed must be an integer >= 0"):
            ground_state(spec, seed=seed)

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


def _spectrum_spec(lam, seed, real=False, particles=1):
    """Fermions on len(lam) orbitals with one-body table U diag(lam) U^H: one particle has spectrum lam."""
    m = len(lam)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    u, _ = np.linalg.qr(a if real else a + 1j * rng.standard_normal((m, m)))
    h = (u * np.asarray(lam)) @ u.conj().T
    return HamiltonianSpec(SpaceDescriptor.fermion(particles, m), OneBodyTable(0.5 * (h + h.conj().T)),
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
    def test_basis_memory_stays_within_one_block_of_the_vectors_used(self, max_iter, tol, monkeypatch):
        """tracemalloc peak of ground_state <= one matvec's peak + the blocks its vectors fill + 6 vectors.

        n_1 + 2 n_2 has four distinct levels, so Lanczos breaks down after
        four iterations; a random one-body table with tol = 0 runs to
        ``max_iter``, which ends a block.  Reserving rows for ``max_iter``
        vectors up front, or a block past the last vector, exceeds the bound.
        H is prepared before tracing.
        """
        space = SpaceDescriptor.fermion(4, 24)
        a = np.random.default_rng(3).standard_normal((24, 24))
        h = np.diag([1.0, 2.0] + [0.0] * 22) if tol else a + a.T
        spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.zeros(24))
        psi = random_state(space, seed=4)
        op = kernel.prepare(spec)  # tables and the stacked operator are built before tracing
        monkeypatch.setattr(kernel, "prepare", lambda spec: op)
        matvec_peak = _peak_bytes(lambda: apply_hamiltonian(op, psi))
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


class TestClosedFormsPastTheDenseCap:
    """One-body Hamiltonians past DENSE_CAP: ground states at 24,310 configurations, past one row block, and rho(t).

    The ground state of sum_kq h_kq b†_k b_q fills the N lowest orbitals of
    h (fermions) or puts all N particles in the lowest (bosons).
    """

    CASES = [(SpaceDescriptor.fermion(9, 17), 1), (SpaceDescriptor.boson(9, 9), 2)]

    @staticmethod
    @functools.cache
    def _solved(space, workers):
        """(eigenvectors of h, the exact energy, the ground state), each space solved once."""
        assert space.n_conf > max(DENSE_CAP, kernel.BLOCK_AMPLITUDES)
        a = np.random.default_rng(space.m).standard_normal((space.m, space.m))
        h = a + a.T
        levels, vectors = np.linalg.eigh(h)
        exact = levels[:space.n].sum() if space.statistics == "fermion" else space.n * levels[0]
        spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.zeros(space.m))
        return vectors, exact, ground_state(spec, tol=1e-10, seed=1, workers=workers)

    @pytest.mark.parametrize("space,workers", CASES, ids=str)
    def test_one_body_ground_energy(self, space, workers):
        _, exact, result = self._solved(space, workers)
        assert abs(result.energy - exact) <= 1e-10

    @pytest.mark.parametrize("space,workers", CASES, ids=str)
    def test_one_body_density_projects_on_the_filled_orbitals(self, space, workers):
        """rho is the projector on the N lowest orbitals (fermions), or N times the lowest one's (bosons)."""
        vectors, _, result = self._solved(space, workers)
        filled = vectors[:, :space.n] if space.statistics == "fermion" else np.sqrt(space.n) * vectors[:, :1]
        assert np.abs(one_body_density(result.state) - filled @ filled.T).max() <= 1e-10

    def test_free_fermion_rho2_follows_wick(self):
        """fermion(9,17): rho2[k, s, l, q] = rho_kq rho_sl - rho_kl rho_sq for the filled projector rho."""
        space = SpaceDescriptor.fermion(9, 17)
        vectors, _, result = self._solved(space, 1)
        rho = vectors[:, :space.n] @ vectors[:, :space.n].T
        wick = np.einsum("kq,sl->kslq", rho, rho) - np.einsum("kl,sq->kslq", rho, rho)
        assert np.abs(two_body_density(result.state) - wick).max() <= 1e-10


    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(12, 17), SpaceDescriptor.boson(8, 8)], ids=str)
    def test_one_body_density_follows_the_orbital_rotation(self, space):
        """Under a one-body H, rho(t) = conj(U) rho(0) U^T with U = exp(-i h t), for any initial state.

        b_q(t) = sum_p U_qp b_p, so SIL and one_body_density are checked
        past DENSE_CAP: fermion(12,17) in the hole picture, 6,188
        configurations, and boson(8,8), 6,435.
        """
        assert space.n_conf > DENSE_CAP
        rng = np.random.default_rng(space.m)
        a = rng.standard_normal((space.m, space.m)) + 1j * rng.standard_normal((space.m, space.m))
        levels, vectors = np.linalg.eigh(a + a.conj().T)
        spec = HamiltonianSpec(space, OneBodyTable(a + a.conj().T), TwoBodyTable.zeros(space.m))
        psi0 = random_state(space, seed=5)
        result = propagate(spec, psi0, 0.2, 0.1, err_tol=1e-12, store_states=True)
        rho0 = one_body_density(psi0)
        for t, state in zip(result.times, result.states):
            u = (vectors * np.exp(-1j * levels * t)) @ vectors.conj().T
            assert np.abs(one_body_density(state) - u.conj() @ rho0 @ u.T).max() <= 1e-10

    @pytest.mark.parametrize("space,complex_rotation", [(SpaceDescriptor.fermion(8, 15), False),
                                                        (SpaceDescriptor.boson(7, 9), True)], ids=str)
    def test_rotated_orbitals_keep_the_ground_energy(self, space, complex_rotation):
        """Dense random (h, W) and their copies in orbitals rotated by a seeded unitary U have one ground energy.

        With c†_a = sum_k U_ka b†_k, h' = U^H h U and W'[a,b,c,d] = sum
        conj(U_ka U_sb) W[k,s,q,l] U_qc U_ld, so H(h', W') is H(h, W) under
        a unitary of the space.  Past DENSE_CAP (6,435 configurations each)
        this checks the two-body contraction, the stacked sums over many
        blocks and, on fermion(8,15), the hole picture's pair gathers.
        """
        assert space.n_conf > DENSE_CAP
        m = space.m
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        t = rng.standard_normal((m,) * 4)
        h, w = a + a.T, 0.5 * (t + np.transpose(t, (2, 3, 0, 1)))
        z = rng.standard_normal((m, m)) + (1j * rng.standard_normal((m, m)) if complex_rotation else 0)
        u = np.linalg.qr(z)[0]
        rotated = (u.conj().T @ h @ u, np.einsum("ka,sb,ksql,qc,ld->abcd", u.conj(), u.conj(), w, u, u,
                                                  optimize=True))
        energies = [ground_state(HamiltonianSpec(space, OneBodyTable(h1), TwoBodyTable.from_dense(w1)),
                                 tol=1e-10, seed=1).energy
                    for h1, w1 in ((h, w), rotated)]
        assert abs(energies[0] - energies[1]) <= 1e-10


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
            op = op._replace(dtype=np.dtype(np.complex128))
        monkeypatch.setattr(kernel, "prepare", lambda spec: op)

        def solve():
            with pytest.raises(ConvergenceError):
                ground_state(spec, tol=0.0, max_iter=BASIS_BLOCK_ROWS)

        peak = _peak_bytes(solve)
        assert (peak <= matvec_peak + (BASIS_BLOCK_ROWS + 6) * space.n_conf * 8) == real


def _gapped_levels(m):
    """m one-particle levels: 0, 1e-2, 2e-2, then geometric from 1 to 100."""
    return np.concatenate([[0.0, 1e-2, 2e-2], np.geomspace(1.0, 100.0, m - 3)])


def _restart_spec(real):
    """Two fermions on 18 orbitals: dimension 153 > RESTART_MIN_DIM, a 1e-2 gap under levels up to 190."""
    return _spectrum_spec(_gapped_levels(18), seed=18, real=real, particles=2)


class TestThickRestart:
    """In a space above RESTART_MIN_DIM, a full basis of BASIS_MAX_ROWS rows restarts from its lowest Ritz vectors."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_restarted_solve_matches_the_dense_oracle(self, real, lanczos_made):
        spec = _restart_spec(real)
        tol = 1e-9
        result = ground_state(spec, tol=tol, seed=1)
        (lz,) = lanczos_made
        assert lz.blocks[0].dtype == (np.float64 if real else np.complex128)
        assert result.iterations > BASIS_MAX_ROWS and lz.ritz.size == BASIS_KEEP_ROWS
        assert abs(result.energy - dense_eig(build_dense(spec))[0][0]) <= 1e-10
        hpsi = apply_hamiltonian(spec, result.state).amplitudes
        assert np.linalg.norm(hpsi - result.energy * result.state.amplitudes) <= tol

    def test_deterministic_given_seed(self):
        spec = _restart_spec(real=False)
        r1, r2 = (ground_state(spec, tol=1e-9, seed=3) for _ in range(2))
        assert r1.iterations > BASIS_MAX_ROWS
        np.testing.assert_array_equal(r1.state.amplitudes, r2.state.amplitudes)
        assert r1._replace(state=None) == r2._replace(state=None)

    def test_a_small_space_keeps_its_whole_basis(self, lanczos_made):
        """Dimension 40: above BASIS_MAX_ROWS but not RESTART_MIN_DIM, so the basis exhausts the space."""
        spec = _spectrum_spec(_gapped_levels(40), seed=40)
        assert BASIS_MAX_ROWS < spec.space.n_conf <= RESTART_MIN_DIM
        result = ground_state(spec, tol=1e-9, seed=1)
        (lz,) = lanczos_made
        assert (result.iterations, result.matvecs, lz.size, lz.ritz.size) == (40, 41, 40, 0)
        assert abs(result.energy - dense_eig(build_dense(spec))[0][0]) <= 1e-10

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_a_step_without_a_pass_keeps_its_drift_within_the_limit(self, real, monkeypatch):
        """On every step that ran no Gram-Schmidt pass, max_i |v_i^H w| / ||w|| <= the limit it was given.

        Simon's estimate is not a bound: here the true drift exceeds it on
        a fifth (real) to two fifths (complex) of those steps, near
        restarts, yet stays about 3x below the limit at worst.
        """
        passes, checked = [], []
        step, orthogonalize = solvers._Lanczos.step, solvers._Lanczos._orthogonalize

        def recorded_step(self, limit, *args, **kwargs):
            before = len(passes)
            w, nrm = step(self, limit, *args, **kwargs)
            if len(passes) == before:
                v = np.array([self.row(i) for i in range(self.size)])
                checked.append((np.abs(v.conj() @ w).max() / nrm, limit))
            return w, nrm

        monkeypatch.setattr(solvers._Lanczos, "_orthogonalize", lambda self, w: passes.append(1) or orthogonalize(self, w))
        monkeypatch.setattr(solvers._Lanczos, "step", recorded_step)
        ground_state(_restart_spec(real), tol=1e-9, seed=1)
        assert len(checked) > BASIS_MAX_ROWS
        assert all(drift <= limit for drift, limit in checked), max(d / lim for d, lim in checked)

    def test_basis_is_orthonormal_after_every_restart(self, monkeypatch):
        errors = []
        restart = solvers._Lanczos.restart

        def checked(self, *args):
            restart(self, *args)
            v = np.array([self.row(i) for i in range(self.size)])
            errors.append(np.abs(v.conj() @ v.T - np.eye(self.size)).max())

        monkeypatch.setattr(solvers._Lanczos, "restart", checked)
        ground_state(_restart_spec(real=False), tol=1e-9, seed=1)
        assert len(errors) >= 2
        assert max(errors) <= 1e-12

    def test_basis_memory_does_not_grow_with_the_iterations(self, lanczos_made, monkeypatch):
        """tracemalloc peak <= one matvec's peak + (BASIS_MAX_ROWS + BASIS_KEEP_ROWS + 6) vectors at any max_iter."""
        space = SpaceDescriptor.fermion(4, 24)
        a = np.random.default_rng(3).standard_normal((24, 24))
        spec = HamiltonianSpec(space, OneBodyTable(a + a.T), TwoBodyTable.zeros(24))
        psi = StateVector(space, random_state(space, seed=4).amplitudes.real.copy())
        op = kernel.prepare(spec)  # built before tracing
        monkeypatch.setattr(kernel, "prepare", lambda spec: op)
        matvec_peak = _peak_bytes(lambda: apply_hamiltonian(op, psi))
        bound = matvec_peak + (BASIS_MAX_ROWS + BASIS_KEEP_ROWS + 6) * space.n_conf * 8
        for max_iter in (60, 200):

            def solve():
                with pytest.raises(ConvergenceError, match=f"within {max_iter} iterations"):
                    ground_state(spec, tol=0.0, max_iter=max_iter)

            assert _peak_bytes(solve) <= bound
            assert len(lanczos_made[-1].blocks) <= BASIS_MAX_ROWS // BASIS_BLOCK_ROWS

    @pytest.mark.parametrize("case", ["converges-in-4", "restarts"])
    def test_matvecs_count_every_product(self, case, monkeypatch):
        """One matvec per iteration plus one per residual check, counted through the module attribute."""
        if case == "restarts":
            spec = _restart_spec(real=True)
        else:
            spec = HamiltonianSpec(SpaceDescriptor.fermion(4, 8), OneBodyTable(np.diag([1.0, 2.0] + [0.0] * 6)),
                                   TwoBodyTable.zeros(8))
        calls = []
        apply = kernel.apply_hamiltonian
        monkeypatch.setattr(kernel, "apply_hamiltonian", lambda *a, **k: calls.append(1) or apply(*a, **k))
        result = ground_state(spec, tol=1e-9, seed=1)
        assert result.matvecs == len(calls) > result.iterations
        if case == "restarts":
            assert result.iterations > BASIS_MAX_ROWS
        else:
            assert (result.iterations, result.matvecs) == (4, 5)


def _count_passes(monkeypatch) -> list:
    """One entry per Gram-Schmidt pass of every _Lanczos the solvers create."""
    passes = []
    orthogonalize = solvers._Lanczos._orthogonalize
    monkeypatch.setattr(solvers._Lanczos, "_orthogonalize",
                        lambda self, w: passes.append(1) or orthogonalize(self, w))
    return passes


class TestPartialReorthogonalization:
    """A step runs a Gram-Schmidt pass only when the estimated drift from orthogonality passes its limit.

    The limit scales with the solve's tolerance; a space of at most
    RESTART_MIN_DIM configurations runs a pass on every step.  Skipping the
    passes without the estimate (one on the first step of each space only)
    fails the ground-state tests here against the oracle.
    """

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_a_restarted_solve_runs_a_pass_on_fewer_than_half_its_steps(self, real, monkeypatch):
        spec = _restart_spec(real)
        passes = _count_passes(monkeypatch)
        result = ground_state(spec, tol=1e-9, seed=1)
        assert result.iterations > BASIS_MAX_ROWS
        assert len(passes) < result.iterations / 2
        assert abs(result.energy - dense_eig(build_dense(spec))[0][0]) <= 1e-10

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_the_limit_follows_a_tight_tol(self, real):
        """Three fermions on 12 levels up to 100: dimension 220, ||H|| about 300, run to tol 1e-11.

        A restart drops the O(||H|| omega) couplings of a basis omega from
        orthogonal, so a limit of sqrt(eps) that ignores tol leaves the
        residual near 1e-7 at max_iter.
        """
        spec = _spectrum_spec(_gapped_levels(12), seed=12, real=real, particles=3)
        assert spec.space.n_conf > RESTART_MIN_DIM
        tol = 1e-11
        result = ground_state(spec, tol=tol, seed=1)
        assert result.iterations > BASIS_MAX_ROWS
        assert abs(result.energy - dense_eig(build_dense(spec))[0][0]) <= 1e-12
        hpsi = apply_hamiltonian(spec, result.state).amplitudes
        assert np.linalg.norm(hpsi - result.energy * result.state.amplitudes) <= tol

    def test_a_small_space_runs_a_pass_on_every_step_to_exhaustion(self, monkeypatch):
        """One fermion on 100 levels, a cluster 3e-3 wide under levels up to 1000: the whole Krylov space."""
        lam = np.concatenate([[0.0, 1e-3, 2e-3, 3e-3], np.geomspace(1.0, 1000.0, 96)])
        spec = _spectrum_spec(lam, seed=100)
        assert BASIS_MAX_ROWS < spec.space.n_conf <= RESTART_MIN_DIM
        passes = _count_passes(monkeypatch)
        result = ground_state(spec, tol=1e-10, seed=1)
        assert result.iterations == spec.space.n_conf
        assert len(passes) >= result.iterations
        assert abs(result.energy - dense_eig(build_dense(spec))[0][0]) <= 1e-10
        hpsi = apply_hamiltonian(spec, result.state).amplitudes
        assert np.linalg.norm(hpsi - result.energy * result.state.amplitudes) <= 1e-10

    def test_propagation_matches_the_dense_exponential_with_fewer_passes_than_vectors(self, monkeypatch):
        space = SpaceDescriptor.fermion(3, 11)
        assert space.n_conf > RESTART_MIN_DIM
        spec = random_hermitian_spec(space, seed=7)
        psi0 = random_state(space, seed=8)
        passes = _count_passes(monkeypatch)
        result = propagate(spec, psi0, t_final=2.0, dt=0.25, krylov_dim=14, store_states=True)
        assert len(passes) < result.krylov_dims.sum()
        mat = build_dense(spec)
        for t, state in zip(result.times, result.states):
            exact = dense_expm_apply(mat, psi0, float(t))
            assert np.linalg.norm(state.amplitudes - exact.amplitudes) <= 1e-8


def test_readme_library_example_runs(capsys):
    """The README's library example runs as written, reading GroundStateResult by attribute."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("mixture", [False, True], ids=["single", "mixture"])
def test_factoring_runs_once_per_solve(mixture, monkeypatch):
    """ground_state and propagate each factor every species and the inter-species table once."""
    calls = []
    for owner, name in ((kernel, "factor_coefficients"), (mixtures, "factor_inter")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    if mixture:
        mspace = suite_mixture_spaces()[2]
        spec, psi0 = random_mixture_spec(mspace, seed=5), mixture_random_state(mspace, seed=6)
        once = ["factor_coefficients", "factor_coefficients", "factor_inter"]
    else:
        spec = build_bose_hubbard(3, 4, hopping=1.0, interaction=2.0)
        psi0 = basis_state(spec.space, 1)
        once = ["factor_coefficients"]
    assert ground_state(spec, tol=1e-10).iterations > 1
    assert calls == once
    calls.clear()
    assert propagate(spec, psi0, t_final=1.0, dt=0.5, krylov_dim=6).substeps.sum() >= 2
    assert calls == once


@pytest.mark.parametrize("solve", [
    lambda spec, workers: ground_state(spec, workers=workers),
    lambda spec, workers: propagate(spec, basis_state(spec.space, 1), t_final=0.2, dt=0.1, workers=workers),
], ids=["ground_state", "propagate"])
def test_worker_count_is_checked_at_entry(solve, monkeypatch):
    """A count below 1 is refused before any work; None reads FOCK_WORKERS, as parallel_apply does."""
    spec = build_bose_hubbard(2, 3, hopping=1.0, interaction=2.0)
    for bad in (0, -1):
        with pytest.raises(WorkerCountError):
            solve(spec, bad)
    monkeypatch.delenv("FOCK_WORKERS", raising=False)
    solve(spec, None)
    monkeypatch.setenv("FOCK_WORKERS", "0")
    with pytest.raises(WorkerCountError):
        solve(spec, None)


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

    def test_only_accepted_substeps_form_their_state(self, monkeypatch):
        """The rejected trial substeps of the input above never combine the basis rows."""
        spec = build_bose_hubbard(3, 4, hopping=1.0, interaction=2.0)
        combines = []
        combine = solvers._Lanczos.combine
        monkeypatch.setattr(solvers._Lanczos, "combine",
                            lambda self, *a: combines.append(1) or combine(self, *a))
        result = propagate(spec, basis_state(spec.space, 1), t_final=2.0, dt=1.0, krylov_dim=4, err_tol=1e-3)
        assert result.rejections.sum() > 0
        assert len(combines) == result.substeps.sum()

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

    def test_t_final_over_dt_must_be_finite(self):
        spec = build_bose_hubbard(1, 2, hopping=1.0, interaction=0.0)
        with pytest.raises(SolverArgumentError, match=r"t_final / dt must be finite, got inf"):
            propagate(spec, basis_state(spec.space, 1), t_final=1e300, dt=1e-300)

    @pytest.mark.parametrize("t_final,dt,steps", [(1.0, 0.3, 4), (np.pi, 0.05, 63), (0.4, 1.0, 1), (0.3, 0.1, 3)])
    def test_series_ends_at_t_final(self, t_final, dt, steps):
        """Grid points are step * dt and the last is t_final: off the grid after one shorter step, on it (0.3 / 0.1) after dt."""
        space = SpaceDescriptor.boson(3, 3)
        spec = random_hermitian_spec(space, seed=7)
        psi0 = random_state(space, seed=8)
        result = propagate(spec, psi0, t_final=t_final, dt=dt, krylov_dim=14)
        assert result.times.tolist() == [step * dt for step in range(steps)] + [t_final]
        exact = dense_expm_apply(build_dense(spec), psi0, t_final)
        assert np.linalg.norm(result.final_state.amplitudes - exact.amplitudes) <= 1e-8


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
        state, err, m = trial(cap, budget)
        assert (m, err) == (first, errs[first - 1])
        np.testing.assert_array_equal(state(), trial(first, 0.0)[0]())

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
