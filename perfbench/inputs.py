"""Seeded input generator: integral files and vector files for the workloads.

Every table is built from a ``numpy.random.Generator`` the caller seeds, so
the same seed writes byte-identical files.  Each spec passes the library's
hermiticity validation before it is written; the benchmark never hands the
program a table it would reject.
"""

from __future__ import annotations

import numpy as np

from fockops import fockspace, hamiltonian, mixtures
from fockops.combinadics import FERMION
from fockops.fockspace import SpaceDescriptor
from fockops.hamiltonian import HamiltonianSpec, OneBodyTable, TwoBodyTable


def dense_spec(space: SpaceDescriptor, rng: np.random.Generator) -> HamiltonianSpec:
    """Every h_kq and W_ksql nonzero, hermitized so the operator is self-adjoint."""
    m = space.m
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = 0.5 * (a + a.conj().T)
    t = rng.standard_normal((m,) * 4) + 1j * rng.standard_normal((m,) * 4)
    w = 0.5 * (t + np.conj(np.transpose(t, (2, 3, 0, 1))))
    return HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.from_dense(w))


def _chain(m: int, hopping: float) -> np.ndarray:
    h = np.zeros((m, m), dtype=np.complex128)
    for k in range(m - 1):
        h[k, k + 1] = h[k + 1, k] = -hopping
    return h


def hubbard_spec(n: int, m: int, hopping: float, interaction: float,
                 disorder: float, rng: np.random.Generator) -> HamiltonianSpec:
    """Open Bose-Hubbard chain with on-site energies drawn from [-disorder, disorder]."""
    spec = hamiltonian.build_bose_hubbard(n, m, hopping, interaction)
    spec.one_body.matrix[np.diag_indices(m)] = rng.uniform(-disorder, disorder, m)
    return spec


def bose_fermi_spec(space_a: SpaceDescriptor, space_b: SpaceDescriptor, hopping: float,
                    u_aa: float, u_ab: float) -> mixtures.MixtureHamiltonianSpec:
    """Bose-Fermi Hubbard chain: both species hop, A-A and A-B interact on site."""
    m = space_a.m
    if space_b.m != m:
        raise ValueError("both species must live on the same chain")
    spec_a = hamiltonian.build_bose_hubbard(space_a.n, m, hopping, u_aa)
    spec_b = HamiltonianSpec(space_b, OneBodyTable(_chain(m, hopping)), TwoBodyTable.zeros(m))
    inter = np.zeros((m, m, m, m), dtype=np.complex128)
    for k in range(m):
        inter[k, k, k, k] = u_ab
    return mixtures.MixtureHamiltonianSpec(
        mixtures.MixtureSpace(space_a, space_b), spec_a, spec_b, mixtures.InterSpeciesTable(inter)
    )


def check_hermitian(spec) -> None:
    """Raise ValueError unless every table of ``spec`` is self-adjoint."""
    if isinstance(spec, mixtures.MixtureHamiltonianSpec):
        for part in (spec.spec_a, spec.spec_b):
            check_hermitian(part)
        x = spec.inter.tensor
        if not np.allclose(x, np.conj(np.transpose(x, (1, 0, 3, 2))), rtol=0, atol=1e-12):
            raise ValueError("inter-species table is not Hermitian")
        return
    report = hamiltonian.validate(spec)
    if not report.hermitian:
        raise ValueError(f"generated tables are not Hermitian: {report}")


def write_integrals(spec, path) -> None:
    check_hermitian(spec)
    hamiltonian.save_integrals(spec, path)


def write_random_vector(space: SpaceDescriptor, rng: np.random.Generator, path) -> None:
    amps = rng.standard_normal(space.n_conf) + 1j * rng.standard_normal(space.n_conf)
    amps /= np.linalg.norm(amps)
    fockspace.save_state(fockspace.StateVector(space, amps), path)


def random_occupations(space: SpaceDescriptor, rng: np.random.Generator) -> list[int]:
    """A uniformly chosen site for each particle (fermions: distinct sites)."""
    occ = [0] * space.m
    if space.statistics == FERMION:
        for p in rng.choice(space.m, size=space.n, replace=False):
            occ[p] = 1
    else:
        for p in rng.integers(0, space.m, size=space.n):
            occ[p] += 1
    return occ
