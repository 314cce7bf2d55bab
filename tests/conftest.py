"""Shared builders for randomized Hermitian operator tables."""

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
)


def _part(x, real: bool):
    """The real part of a hermitized table is hermitized too."""
    return x.real if real else x


def random_hermitian_spec(space: SpaceDescriptor, seed: int, real: bool = False) -> HamiltonianSpec:
    """Dense random tables hermitized so the operator is self-adjoint; ``real`` keeps their real parts."""
    rng = np.random.default_rng(seed)
    m = space.m
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = 0.5 * (a + a.conj().T)
    t = rng.standard_normal((m,) * 4) + 1j * rng.standard_normal((m,) * 4)
    w = 0.5 * (t + np.conj(np.transpose(t, (2, 3, 0, 1))))
    return HamiltonianSpec(space, OneBodyTable(_part(h, real)), TwoBodyTable.from_dense(_part(w, real)))


def random_inter_table(m_a: int, m_b: int, seed: int, real: bool = False) -> InterSpeciesTable:
    """Hermitized inter-species tensor: (a†_k a_q b†_k' b_q')† swaps k<->q, k'<->q'."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((m_a, m_a, m_b, m_b)) + 1j * rng.standard_normal((m_a, m_a, m_b, m_b))
    return InterSpeciesTable(_part(0.5 * (t + np.conj(np.transpose(t, (1, 0, 3, 2)))), real))


def random_mixture_spec(mspace: MixtureSpace, seed: int, real: bool = False) -> MixtureHamiltonianSpec:
    return MixtureHamiltonianSpec(
        mspace,
        random_hermitian_spec(mspace.space_a, seed, real),
        random_hermitian_spec(mspace.space_b, seed + 1, real),
        random_inter_table(mspace.space_a.m, mspace.space_b.m, seed + 2, real),
    )


def suite_single_spaces() -> list[SpaceDescriptor]:
    """The four single-species verification spaces used across the suite."""
    return [
        SpaceDescriptor.fermion(3, 6),
        SpaceDescriptor.fermion(4, 8),
        SpaceDescriptor.boson(4, 4),
        SpaceDescriptor.boson(5, 5),
    ]


def suite_mixture_spaces() -> list[MixtureSpace]:
    """Fermi-Fermi, Bose-Bose, and Bose-Fermi verification mixtures."""
    return [
        MixtureSpace(SpaceDescriptor.fermion(2, 3), SpaceDescriptor.fermion(2, 3)),
        MixtureSpace(SpaceDescriptor.boson(2, 3), SpaceDescriptor.boson(3, 2)),
        MixtureSpace(SpaceDescriptor.fermion(2, 4), SpaceDescriptor.boson(2, 3)),
    ]


@pytest.fixture
def bose_hubbard_file(tmp_path):
    """Two-site Bose-Hubbard integral file (N=4, J=1, U=0.5)."""
    path = tmp_path / "bh.ints"
    path.write_text(
        "STATISTICS BOSON\n"
        "N 4\n"
        "M 2\n"
        "H 1 2 -1.0\n"
        "H 2 1 -1.0\n"
        "W 1 1 1 1 0.5\n"
        "W 2 2 2 2 0.5\n"
    )
    return path
