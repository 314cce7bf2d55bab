"""Two-component addressing, intra/inter application, and the dense oracle."""

import itertools
import math

import numpy as np
import pytest

from fockops import (
    AddressError,
    FockError,
    HamiltonianSpec,
    InterSpeciesTable,
    MixtureHamiltonianSpec,
    MixtureSpace,
    OneBodyTable,
    SpaceDescriptor,
    TwoBodyTable,
    apply_hamiltonian,
    apply_inter,
    apply_inter_term,
    apply_intra_a,
    apply_intra_b,
    apply_mixture_hamiltonian,
    basis_state,
    build_bose_hubbard,
    build_dense,
    fermion_sign_count,
    ground_state,
    load_mixture_state,
    mixture_address,
    mixture_basis_state,
    mixture_densities,
    mixture_dot,
    mixture_random_state,
    one_body_density,
    product_state,
    propagate,
    random_state,
    save_mixture_state,
)
from fockops.fockspace import occupation_table
from fockops.oracle import DENSE_CAP
from fockops.mixtures import MixtureStateVector, apply_one_body_term_a
from conftest import random_hermitian_spec, random_mixture_spec, suite_mixture_spaces


class TestAddressing:
    def test_corners(self):
        mspace = MixtureSpace(SpaceDescriptor.fermion(1, 3), SpaceDescriptor.boson(2, 3))
        assert mixture_address(1, 1, mspace) == 1
        assert (
            mixture_address(mspace.space_a.n_conf, mspace.space_b.n_conf, mspace)
            == mspace.n_conf_total
        )

    def test_exhaustive_bijectivity_6_by_10(self):
        mspace = MixtureSpace(SpaceDescriptor.fermion(2, 4), SpaceDescriptor.boson(3, 3))
        assert (mspace.space_a.n_conf, mspace.space_b.n_conf) == (6, 10)
        seen = set()
        for j_a in range(1, 7):
            for j_b in range(1, 11):
                j = mixture_address(j_a, j_b, mspace)
                assert mspace.split(j) == (j_a, j_b)
                seen.add(j)
        assert seen == set(range(1, 61))

    def test_out_of_range(self):
        mspace = MixtureSpace(SpaceDescriptor.boson(1, 2), SpaceDescriptor.boson(1, 2))
        with pytest.raises(AddressError):
            mixture_address(0, 1, mspace)
        with pytest.raises(AddressError):
            mixture_address(1, 3, mspace)


class TestIntraSpecies:
    def test_product_state_factorization(self):
        mspace = suite_mixture_spaces()[2]  # Bose-Fermi
        spec_a = random_hermitian_spec(mspace.space_a, seed=1)
        u = basis_state(mspace.space_a, 2)
        v = basis_state(mspace.space_b, 3)
        psi = product_state(u, v, mspace)
        got = apply_intra_a(spec_a, psi)
        ref = product_state(apply_hamiltonian(spec_a, u), v, mspace)
        np.testing.assert_allclose(got.amplitudes, ref.amplitudes, atol=1e-14)

    def test_intra_b_mirror(self):
        mspace = suite_mixture_spaces()[1]  # Bose-Bose
        spec_b = random_hermitian_spec(mspace.space_b, seed=2)
        u = basis_state(mspace.space_a, 1)
        v = basis_state(mspace.space_b, 2)
        psi = product_state(u, v, mspace)
        got = apply_intra_b(spec_b, psi)
        ref = product_state(u, apply_hamiltonian(spec_b, v), mspace)
        np.testing.assert_allclose(got.amplitudes, ref.amplitudes, atol=1e-14)

    def test_smallest_ff_mixture_against_dense(self):
        mspace = MixtureSpace(SpaceDescriptor.fermion(1, 2), SpaceDescriptor.fermion(1, 2))
        spec_a = random_hermitian_spec(mspace.space_a, seed=30)
        psi = mixture_random_state(mspace, seed=31)
        got = apply_intra_a(spec_a, psi).amplitudes
        mat = np.kron(build_dense(spec_a), np.eye(mspace.space_b.n_conf))
        np.testing.assert_allclose(got, mat @ psi.amplitudes, atol=1e-13)

    def test_species_kernels_commute(self):
        for mspace in suite_mixture_spaces():
            spec_a = random_hermitian_spec(mspace.space_a, seed=3)
            spec_b = random_hermitian_spec(mspace.space_b, seed=4)
            psi = mixture_random_state(mspace, seed=5)
            ab = apply_intra_b(spec_b, apply_intra_a(spec_a, psi))
            ba = apply_intra_a(spec_a, apply_intra_b(spec_b, psi))
            np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)

    def test_b_density_untouched_by_a_application(self):
        from fockops import mixture_densities

        mspace = suite_mixture_spaces()[2]
        spec_a = random_hermitian_spec(mspace.space_a, seed=6)
        u = basis_state(mspace.space_a, 1)
        v = basis_state(mspace.space_b, 2)
        psi = product_state(u, v, mspace)
        out = apply_intra_a(spec_a, psi)
        nrm = out.norm()
        out = MixtureStateVector(mspace, out.amplitudes / nrm)
        _, rho_b_before = mixture_densities(psi)
        _, rho_b_after = mixture_densities(out)
        np.testing.assert_allclose(rho_b_after, rho_b_before, atol=1e-12)


class TestInterSpecies:
    def test_bose_fermi_displayed_action(self):
        """a†_k a_q b†_k' b_q' on a basis product: (-1)^d sqrt(n_k'+1) sqrt(n_q')."""
        sa = SpaceDescriptor.fermion(2, 4)
        sb = SpaceDescriptor.boson(3, 3)
        mspace = MixtureSpace(sa, sb)
        occ_a = (0, 1, 1, 0)
        holes_a = tuple(i + 1 for i, v in enumerate(occ_a) if v == 0)
        occ_b = (1, 2, 0)
        j_a, j_b = sa.rank(holes_a), sb.rank(occ_b)
        psi = mixture_basis_state(mspace, j_a, j_b)
        k, q, kp, qp = 1, 3, 3, 2  # fermion 3 -> 1, boson 2 -> 3
        out = apply_inter_term(k, q, kp, qp, psi)
        new_a = (1, 1, 0, 0)
        new_b = (1, 1, 1)
        j_a2 = sa.rank(tuple(i + 1 for i, v in enumerate(new_a) if v == 0))
        j_b2 = sb.rank(new_b)
        target = mixture_address(j_a2, j_b2, mspace)
        bits = sum(1 << i for i, v in enumerate(occ_a) if v)
        sign = (-1.0) ** fermion_sign_count(bits, k, q)
        expected = sign * np.sqrt(occ_b[kp - 1] + 1) * np.sqrt(occ_b[qp - 1])
        assert out.amplitudes[target - 1] == pytest.approx(expected)
        assert np.count_nonzero(out.amplitudes) == 1

    def test_zero_table_zero_vector(self):
        from fockops import InterSpeciesTable

        mspace = suite_mixture_spaces()[0]
        table = InterSpeciesTable(np.zeros((3, 3, 3, 3)))
        psi = mixture_random_state(mspace, seed=7)
        assert np.all(apply_inter(table, psi).amplitudes == 0)

    def test_matches_dense_oracle_small_bf(self):
        mspace = MixtureSpace(SpaceDescriptor.fermion(1, 2), SpaceDescriptor.boson(2, 2))
        mspec = random_mixture_spec(mspace, seed=8)
        mat = build_dense(mspec)
        psi = mixture_random_state(mspace, seed=9)
        got = apply_mixture_hamiltonian(mspec, psi).amplitudes
        ref = mat @ psi.amplitudes
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestFullMixtureHamiltonian:
    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_oracle_equivalence(self, idx):
        mspace = suite_mixture_spaces()[idx]
        mspec = random_mixture_spec(mspace, seed=10 + idx)
        mat = build_dense(mspec)
        assert np.abs(mat - mat.conj().T).max() < 1e-12
        for seed in range(3):
            psi = mixture_random_state(mspace, seed=seed)
            got = apply_mixture_hamiltonian(mspec, psi).amplitudes
            ref = mat @ psi.amplitudes
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_separable_energy_on_product_states(self):
        from fockops import InterSpeciesTable, energy

        mspace = suite_mixture_spaces()[1]
        spec_a = random_hermitian_spec(mspace.space_a, seed=20)
        spec_b = random_hermitian_spec(mspace.space_b, seed=21)
        from fockops import MixtureHamiltonianSpec

        mspec = MixtureHamiltonianSpec(
            mspace,
            spec_a,
            spec_b,
            InterSpeciesTable(np.zeros((mspace.space_a.m,) * 2 + (mspace.space_b.m,) * 2)),
        )
        from fockops import random_state

        u = random_state(mspace.space_a, seed=22)
        v = random_state(mspace.space_b, seed=23)
        psi = product_state(u, v, mspace)
        e_total = energy(mspec, psi)
        e_a = energy(spec_a, u)
        e_b = energy(spec_b, v)
        assert abs(e_total - (e_a + e_b)) <= 1e-12 * max(1.0, abs(e_total))

    def test_hermiticity_transfer(self):
        mspace = suite_mixture_spaces()[2]
        mspec = random_mixture_spec(mspace, seed=30)
        u = mixture_random_state(mspace, seed=31)
        v = mixture_random_state(mspace, seed=32)
        lhs = mixture_dot(u, apply_mixture_hamiltonian(mspec, v))
        rhs = np.conj(mixture_dot(v, apply_mixture_hamiltonian(mspec, u)))
        assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("hopping,interaction", [(1.0, 3.0), (0.5, 2.0), (1.0, 0.0), (0.3, -1.5)])
def test_two_site_hubbard_ground_energy(hopping, interaction):
    """Spin up and down as a FERMION x FERMION mixture of fermion(1,2) each: E_0 = (U - sqrt(U^2 + 16 t^2)) / 2.

    The hopping -t (c†_1 c_2 + c†_2 c_1) acts within each species, the
    on-site U n_k,up n_k,down is the inter-species diagonal W_kkkk.
    """
    space = SpaceDescriptor.fermion(1, 2)
    spin = HamiltonianSpec(space, OneBodyTable(np.array([[0.0, -hopping], [-hopping, 0.0]])), TwoBodyTable.zeros(2))
    inter = np.zeros((2, 2, 2, 2))
    inter[0, 0, 0, 0] = inter[1, 1, 1, 1] = interaction
    mspec = MixtureHamiltonianSpec(MixtureSpace(space, space), spin, spin, InterSpeciesTable(inter))
    exact = (interaction - np.sqrt(interaction**2 + 16 * hopping**2)) / 2
    assert abs(ground_state(mspec, tol=1e-12, seed=1).energy - exact) <= 1e-12


def _su2_mixture(statistics, n_a, n_b, m, seed):
    """A spin-independent H: the single species of N = N_A + N_B particles, and the mixture of its two spin species.

    h and W are dense, complex and Hermitian, W symmetric under k<->s,
    q<->l; both species take them, and X[k,q,s,l] = W[k,s,q,l] couples
    them.  H then commutes with S^- = sum_k b†_k a_k.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    t = rng.standard_normal((m,) * 4) + 1j * rng.standard_normal((m,) * 4)
    t = 0.5 * (t + np.transpose(t, (1, 0, 3, 2)))
    w = 0.5 * (t + np.conj(np.transpose(t, (2, 3, 0, 1))))

    def spec(n):
        return HamiltonianSpec(SpaceDescriptor(statistics, n, m), OneBodyTable(0.5 * (a + a.conj().T)),
                               TwoBodyTable.from_dense(w))

    mspace = MixtureSpace(SpaceDescriptor(statistics, n_a, m), SpaceDescriptor(statistics, n_b, m))
    inter = InterSpeciesTable(np.transpose(w, (0, 2, 1, 3)))
    return spec(n_a + n_b), MixtureHamiltonianSpec(mspace, spec(n_a), spec(n_b), inter)


def _lowered(psi, mspace):
    """psi of N particles lowered to N_B particles of species B, normalized.

    The amplitude at (n_A, n_B), n = n_A + n_B, is psi(n) prod_k
    sqrt(C(n_k, n_B,k)) for bosons and psi(n) (-1)^(sum_{k in B} S_k(n))
    for fermions, S_k(n) the particles of n below k; 0 where n is not a
    configuration of psi's space.
    """
    space = psi.space
    occ_a, occ_b = (occupation_table(s.statistics, s.n, s.m)[0] for s in (mspace.space_a, mspace.space_b))
    index = {row: j for j, row in enumerate(map(tuple, occupation_table(space.statistics, space.n, space.m)[0].tolist()))}
    out = np.zeros((len(occ_a), len(occ_b)), dtype=np.complex128)
    for (i, row_a), (j, row_b) in itertools.product(enumerate(occ_a.tolist()), enumerate(occ_b.tolist())):
        n = tuple(x + y for x, y in zip(row_a, row_b))
        if n not in index:
            continue
        if space.statistics == "fermion":
            factor = (-1.0) ** sum(sum(n[:k]) for k, held in enumerate(row_b) if held)
        else:
            factor = np.prod([np.sqrt(math.comb(x, y)) for x, y in zip(n, row_b)])
        out[i, j] = psi.amplitudes[index[n]] * factor
    return MixtureStateVector(mspace, (out / np.linalg.norm(out)).ravel())


class TestSU2Multiplets:
    """Exact references for the mixture path past the dense cap, from a single-species solve (Lieb & Mattis 1962).

    With both species' tables equal and X[k,q,s,l] = W[k,s,q,l], H commutes
    with S^-: a single-species eigenvector lowered into the mixture is an
    eigenvector with the same energy, its densities split as N_A : N_B,
    and propagation commutes with the lowering.  This checks the pair
    parts of both species, their signs, the inter-species contraction,
    mixture_densities and mixture SIL at sizes no dense matrix reaches.
    """

    @pytest.mark.parametrize("statistics,n_a,n_b,m", [("fermion", 3, 2, 10), ("boson", 4, 3, 6)])
    def test_lowered_eigenvector(self, statistics, n_a, n_b, m):
        """F(3,10)xF(2,10), 5,400 amplitudes, and B(4,6)xB(3,6), 7,056: past DENSE_CAP."""
        single, mspec = _su2_mixture(statistics, n_a, n_b, m, seed=5)
        assert mspec.mspace.n_conf_total > DENSE_CAP
        tol = 1e-10
        gs = ground_state(single, tol=tol, seed=1)
        assert gs.residual <= tol
        phi = _lowered(gs.state, mspec.mspace)
        residual = np.linalg.norm(apply_mixture_hamiltonian(mspec, phi).amplitudes - gs.energy * phi.amplitudes)
        assert residual <= gs.residual + 1e-12
        rho = one_body_density(gs.state)
        for part, n_part in zip(mixture_densities(phi), (n_a, n_b)):
            assert np.abs(part - n_part / (n_a + n_b) * rho).max() <= 1e-13
        x = mspec.inter.tensor.copy()  # one broken X pair: no longer an eigenvector
        x[0, 1, 1, 0] += 0.1
        x[1, 0, 0, 1] += 0.1
        broken = MixtureHamiltonianSpec(mspec.mspace, mspec.spec_a, mspec.spec_b, InterSpeciesTable(x))
        assert np.linalg.norm(apply_mixture_hamiltonian(broken, phi).amplitudes - gs.energy * phi.amplitudes) > 1e-3

    def test_propagation_commutes_with_the_lowering(self):
        """F(3,10)xF(2,10): exp(-iHt) of the lowered state is the lowered exp(-iHt) of the single species."""
        single, mspec = _su2_mixture("fermion", 3, 2, 10, seed=6)
        psi0 = random_state(single.space, seed=7)
        alone = propagate(single, psi0, t_final=0.2, dt=0.1, err_tol=1e-10).final_state
        mixed = propagate(mspec, _lowered(psi0, mspec.mspace), t_final=0.2, dt=0.1, err_tol=1e-10).final_state
        assert np.linalg.norm(mixed.amplitudes - _lowered(alone, mspec.mspace).amplitudes) <= 1e-10


class TestEisenbergLieb:
    """A two-component Bose-Hubbard chain with U_AA = U_BB = U_AB and J > 0 has a fully polarized
    ground state (Eisenberg & Lieb 2002), so its ground energy is that of the single species of
    N_A + N_B bosons.  B(4,7)xB(3,7), 17,640 amplitudes, is past the dense cap."""

    @pytest.mark.parametrize("u_ab", [2.5, 1.25])
    def test_ground_energy_of_the_single_species(self, u_ab):
        spec_a, spec_b = build_bose_hubbard(4, 7, 1.0, 2.5), build_bose_hubbard(3, 7, 1.0, 2.5)
        inter = np.zeros((7,) * 4)
        for k in range(7):
            inter[k, k, k, k] = u_ab
        mspec = MixtureHamiltonianSpec(MixtureSpace(spec_a.space, spec_b.space), spec_a, spec_b, InterSpeciesTable(inter))
        assert mspec.mspace.n_conf_total > DENSE_CAP
        mixed = ground_state(mspec, tol=1e-10, seed=1).energy
        single = ground_state(build_bose_hubbard(7, 7, 1.0, 2.5), tol=1e-10, seed=1).energy
        if u_ab == 2.5:
            assert abs(mixed - single) <= 1e-10
        else:  # U_AB below U: the mixture's ground state is no longer the polarized one
            assert abs(mixed - single) > 1e-3


class TestOrbitalChecks:
    """Each helper checks a species' orbitals against that species' M (3 for A, 4 for B), as apply_one_body_term does."""

    mspace = MixtureSpace(SpaceDescriptor.boson(2, 3), SpaceDescriptor.fermion(1, 4))

    @staticmethod
    def _orbitals(slot, bad, m_of_slot):
        m = m_of_slot[slot]
        value = {"zero": 0, "past": m + 1, "negative": -1}[bad]
        orbitals = [1, 2, 1, 2][:len(m_of_slot)]
        orbitals[slot] = value
        return orbitals, rf"orbital {value} outside \[1, {m}\]"

    @pytest.mark.parametrize("bad", ["zero", "past", "negative"])
    @pytest.mark.parametrize("slot", range(2))
    def test_one_body_term_a(self, slot, bad):
        psi = mixture_random_state(self.mspace, seed=1)
        orbitals, message = self._orbitals(slot, bad, (3, 3))
        with pytest.raises(FockError, match=message):
            apply_one_body_term_a(*orbitals, psi)
        assert apply_one_body_term_a(3, 1, psi).norm() > 0

    @pytest.mark.parametrize("bad", ["zero", "past", "negative"])
    @pytest.mark.parametrize("slot", range(4))
    def test_inter_term(self, slot, bad):
        psi = mixture_random_state(self.mspace, seed=2)
        orbitals, message = self._orbitals(slot, bad, (3, 3, 4, 4))
        with pytest.raises(FockError, match=message):
            apply_inter_term(*orbitals, psi)
        assert apply_inter_term(3, 1, 4, 1, psi).norm() > 0


class TestTensorConsistency:
    def test_intra_application_factorizes_exactly(self):
        """Closed-form check over every basis product in a Fermi-Fermi space."""
        mspace = suite_mixture_spaces()[0]
        sa, sb = mspace.space_a, mspace.space_b
        for j_a, j_b in itertools.product(range(1, sa.n_conf + 1), range(1, sb.n_conf + 1)):
            u = basis_state(sa, j_a)
            v = basis_state(sb, j_b)
            psi = product_state(u, v, mspace)
            from fockops import apply_one_body_term

            got = apply_one_body_term_a(1, 2, psi)
            ref = product_state(apply_one_body_term(1, 2, u), v, mspace)
            np.testing.assert_array_equal(got.amplitudes, ref.amplitudes)


def test_mixture_vector_serialization_roundtrip(tmp_path):
    mspace = suite_mixture_spaces()[2]
    psi = mixture_random_state(mspace, seed=40)
    path = tmp_path / "mix.fvec"
    save_mixture_state(psi, path)
    back = load_mixture_state(path)
    assert back.mspace == mspace
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
