"""The periodic 1D Fermi-Hubbard ring against the Lieb-Wu Bethe equations, past the dense cap.

Spin up and down are two fermion species F(N_up, L) x F(N_down, L): the hop
-t (c†_i c_{i+1} + c†_{i+1} c_i) within each, the seam (L, 1) included, no
intra-species W, and the on-site U n_{k,up} n_{k,down} as the
inter-species diagonal X[k,k,k,k].  Its ground energy solves the Bethe
equations of Lieb & Wu (Phys. Rev. Lett. 20, 1445, 1968), so an exact
reference reaches spaces no dense matrix does.  The Bethe checks take odd
counts, closed shells, and N_down <= N_up.  With odd counts the seam hop's
fermion sign, (-1)^(N - 1), is +1, so the even-count rings, checked
against the dense oracle only, are the ones that guard that sign.
"""

import functools

import numpy as np
import pytest

from fockops import (
    HamiltonianSpec,
    InterSpeciesTable,
    MixtureHamiltonianSpec,
    MixtureSpace,
    OneBodyTable,
    SpaceDescriptor,
    TwoBodyTable,
    build_dense,
    dense_eig,
    ground_state,
)
from fockops.kernel import BLOCK_AMPLITUDES
from fockops.oracle import DENSE_CAP

TOL = 1e-10
INTERACTIONS = (4.0, 8.0, 32.0)


def hubbard_ring(n_up: int, n_down: int, sites: int, interaction: float):
    """The ring at t = 1 and U = ``interaction``."""
    h = np.zeros((sites, sites))
    for i in range(sites):
        h[i, (i + 1) % sites] = h[(i + 1) % sites, i] = -1.0
    x = np.zeros((sites,) * 4)
    x[(np.arange(sites),) * 4] = interaction

    def species(n):
        return HamiltonianSpec(SpaceDescriptor.fermion(n, sites), OneBodyTable(h), TwoBodyTable.zeros(sites))

    mspace = MixtureSpace(SpaceDescriptor.fermion(n_up, sites), SpaceDescriptor.fermion(n_down, sites))
    return MixtureHamiltonianSpec(mspace, species(n_up), species(n_down), InterSpeciesTable(x))


@functools.cache
def bethe_energies(n_up: int, n_down: int, sites: int) -> tuple[float, ...]:
    """Ground energies E = -2t sum_j cos k_j at t = 1 and each U of :data:`INTERACTIONS`, from the Lieb-Wu equations.

    With u = U / 4t, N = N_up + N_down and M = N_down,

        L k_j = 2π I_j - sum_β 2 atan((sin k_j - λ_β) / u),
        sum_j 2 atan((λ_α - sin k_j) / u) = 2π J_α + sum_β 2 atan((λ_α - λ_β) / 2u),

    with I_j = j - (N - 1)/2 and J_α = α - (M - 1)/2, the ground state's
    quantum numbers for odd N_up and N_down.  Newton's method with a
    central-difference Jacobian starts from the free momenta 2π I_j / L and
    λ_α = J_α / M at the first U, then continues: each U starts from the
    solution at the one before.
    """
    n, m = n_up + n_down, n_down
    i_q, j_q = np.arange(n) - (n - 1) / 2, np.arange(m) - (m - 1) / 2

    def residual(x, u):
        s, lam = np.sin(x[:n]), x[n:]
        momenta = sites * x[:n] - 2 * np.pi * i_q + 2 * np.arctan((s[:, None] - lam) / u).sum(1)
        rapidities = (2 * np.arctan((lam[:, None] - s) / u).sum(1) - 2 * np.pi * j_q
                      - 2 * np.arctan((lam[:, None] - lam) / (2 * u)).sum(1))
        return np.concatenate([momenta, rapidities])

    x = np.concatenate([2 * np.pi * i_q / sites, j_q / m])
    energies, eps = [], 1e-7
    for interaction in INTERACTIONS:
        u = interaction / 4
        for _ in range(30):
            jac = np.column_stack([residual(x + d, u) - residual(x - d, u) for d in eps * np.eye(x.size)]) / (2 * eps)
            step = np.linalg.solve(jac, residual(x, u))
            x = x - step
            if np.abs(step).max() <= 1e-13:
                break
        else:
            raise AssertionError(f"no Bethe solution at U = {interaction}")
        energies.append(-2 * np.cos(x[:n]).sum())
    return tuple(energies)


@pytest.mark.parametrize("n_up,n_down,sites", [(1, 1, 4), (1, 1, 6), (3, 3, 6), (3, 1, 6)])
def test_dense_oracle_matches_the_bethe_energy(n_up, n_down, sites):
    for interaction, energy in zip(INTERACTIONS, bethe_energies(n_up, n_down, sites)):
        dense = build_dense(hubbard_ring(n_up, n_down, sites, interaction))
        assert abs(dense_eig(dense)[0][0] - energy) <= TOL, interaction


@pytest.mark.parametrize("n_up,n_down,interaction", [(5, 5, 4.0), (5, 5, 8.0), (5, 5, 32.0), (5, 3, 4.0)])
def test_ground_state_past_the_dense_cap_matches_the_bethe_energy(n_up, n_down, interaction):
    """F(5,10)^2 holds 63,504 amplitudes and its species 252 configurations each, swept on both axes.

    At U = 32 the solve runs about 240 iterations, through many thick
    restarts; F(5,10) x F(3,10) applies its B species as a dense matrix.
    """
    spec = hubbard_ring(n_up, n_down, 10, interaction)
    assert spec.space.n_conf > DENSE_CAP and spec.space.space_a.n_conf ** 2 > BLOCK_AMPLITUDES
    energy = bethe_energies(n_up, n_down, 10)[INTERACTIONS.index(interaction)]
    assert abs(ground_state(spec, tol=1e-9, seed=1).energy - energy) <= TOL


@pytest.mark.parametrize("n_up,n_down,sites", [(2, 2, 4), (2, 2, 6), (4, 2, 8)])
def test_even_counts_match_the_dense_oracle(n_up, n_down, sites):
    """Open shells at U = 4: a seam hop crosses N - 1 particles of its species, an odd number, so its sign is -1."""
    spec = hubbard_ring(n_up, n_down, sites, 4.0)
    energy = dense_eig(build_dense(spec))[0][0]
    assert abs(ground_state(spec, tol=1e-10, seed=1).energy - energy) <= TOL
