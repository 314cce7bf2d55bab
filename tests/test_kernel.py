"""Matrix-free term application against closed forms and the dense oracle."""

import itertools

import numpy as np
import pytest

from fockops import (
    HamiltonianSpec,
    OneBodyTable,
    SpaceDescriptor,
    SpaceMismatchError,
    TwoBodyTable,
    apply_hamiltonian,
    apply_one_body_operator,
    apply_one_body_term,
    apply_two_body_term,
    basis_state,
    build_dense,
    dot,
    fermion_sign_count,
    iterate_configurations,
    kernel,
    random_state,
)
from fockops.fockspace import FermionConfig
from conftest import random_hermitian_spec, suite_single_spaces


def occ_to_index(space):
    return {space.occupations_at(j): j for j in range(1, space.n_conf + 1)}


def basis_from_occ(space, occ):
    return basis_state(space, space.rank(
        tuple(i + 1 for i, v in enumerate(occ) if v == 0) if space.statistics == "fermion" else occ
    ))


class TestSignCount:
    def test_adjacent_orbitals_give_zero(self):
        cfg = FermionConfig.from_holes((2,), 3)
        assert fermion_sign_count(cfg, 2, 3) == 0
        assert fermion_sign_count(cfg, 3, 2) == 0

    def test_between_count_from_bits(self):
        # |0110>: orbitals 2, 3 occupied; d between 1 and 4 counts both
        bits = 0b0110
        assert fermion_sign_count(bits, 1, 4) == 2
        assert fermion_sign_count(bits, 1, 3) == 1
        assert fermion_sign_count(bits, 4, 1) == 2

    def test_spec_one_body_case(self):
        # b†_2 b_3 on |n_1, 0, 1, ...>: nothing strictly between 2 and 3
        bits = 0b0100  # only orbital 3 occupied
        assert fermion_sign_count(bits, 2, 3) == 0


class TestOneBodyTerm:
    def test_boson_hop_amplitude(self):
        space = SpaceDescriptor.boson(2, 2)
        psi = basis_from_occ(space, (1, 1))
        out = apply_one_body_term(1, 2, psi)
        target = space.rank((2, 0))
        assert out.amplitudes[target - 1] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(out.amplitudes) == 1

    def test_fermion_sign_example(self):
        # b†_1 b_3 |0110> = -|1100>
        space = SpaceDescriptor.fermion(2, 4)
        psi = basis_from_occ(space, (0, 1, 1, 0))
        out = apply_one_body_term(1, 3, psi)
        target = occ_to_index(space)[(1, 1, 0, 0)]
        assert out.amplitudes[target - 1] == pytest.approx(-1.0)
        assert np.count_nonzero(out.amplitudes) == 1

    def test_number_operator_weighting(self):
        space = SpaceDescriptor.boson(3, 3)
        psi = random_state(space, seed=1)
        for k in (1, 2, 3):
            out = apply_one_body_term(k, k, psi)
            occ = space.tables().occ[:, k - 1]
            np.testing.assert_allclose(out.amplitudes, occ * psi.amplitudes, atol=0)

    def test_annihilating_empty_orbital_vanishes(self):
        space = SpaceDescriptor.fermion(1, 3)
        psi = basis_from_occ(space, (1, 0, 0))
        out = apply_one_body_term(2, 3, psi)
        assert np.all(out.amplitudes == 0)

    def test_orbital_out_of_range(self):
        space = SpaceDescriptor.boson(2, 2)
        psi = random_state(space, seed=0)
        with pytest.raises(Exception):
            apply_one_body_term(0, 1, psi)
        with pytest.raises(Exception):
            apply_one_body_term(1, 3, psi)

    def test_sign_convention_matches_between_count(self):
        """Composed prefix-count phases reproduce (-1)^{d^{kq}} exhaustively."""
        for n, m in [(1, 4), (2, 5), (3, 6), (4, 9), (6, 12)]:
            space = SpaceDescriptor.fermion(n, m)
            index = occ_to_index(space)
            for j, cfg in iterate_configurations(space):
                occ = cfg.occupations(m)
                psi = basis_state(space, j)
                for k, q in itertools.permutations(range(1, m + 1), 2):
                    if not (occ[q - 1] == 1 and occ[k - 1] == 0):
                        continue
                    out = apply_one_body_term(k, q, psi)
                    new_occ = list(occ)
                    new_occ[q - 1] = 0
                    new_occ[k - 1] = 1
                    target = index[tuple(new_occ)]
                    expected = (-1.0) ** fermion_sign_count(cfg, k, q)
                    assert out.amplitudes[target - 1] == expected


class TestTwoBodyTerm:
    def test_pauli_exclusion_zero(self):
        space = SpaceDescriptor.fermion(2, 4)
        psi = random_state(space, seed=2)
        out = apply_two_body_term(1, 1, 2, 3, psi)
        assert np.all(out.amplitudes == 0)

    def test_boson_double_transfer(self):
        # b†_1 b†_1 b_2 b_2 |0,2> = 2 |2,0> (sequential sqrt factors)
        space = SpaceDescriptor.boson(2, 2)
        psi = basis_from_occ(space, (0, 2))
        out = apply_two_body_term(1, 1, 2, 2, psi)
        target = space.rank((2, 0))
        assert out.amplitudes[target - 1] == pytest.approx(2.0)
        assert np.count_nonzero(out.amplitudes) == 1

    def test_onsite_interaction_diagonal(self):
        # b†_k b†_k b_k b_k = n_k (n_k - 1)
        space = SpaceDescriptor.boson(3, 2)
        psi = random_state(space, seed=3)
        out = apply_two_body_term(1, 1, 1, 1, psi)
        n1 = space.tables().occ[:, 0]
        np.testing.assert_allclose(out.amplitudes, n1 * (n1 - 1) * psi.amplitudes, atol=1e-14)

    def test_fermion_closed_form_on_every_basis_vector(self):
        """Sequential elementary application equals the two-count closed form."""
        for space in (SpaceDescriptor.fermion(2, 4), SpaceDescriptor.fermion(3, 6)):
            self._check_fermion_closed_form(space)

    def _check_fermion_closed_form(self, space):
        m = space.m
        index = occ_to_index(space)
        for j, cfg in iterate_configurations(space):
            occ = cfg.occupations(m)
            psi = basis_state(space, j)
            for k, s, l, q in itertools.permutations(range(1, m + 1), 4):
                out = apply_two_body_term(k, s, l, q, psi).amplitudes
                acts = occ[q - 1] == 1 and occ[l - 1] == 1 and occ[k - 1] == 0 and occ[s - 1] == 0
                if not acts:
                    assert np.all(out == 0)
                    continue
                target_occ = list(occ)
                target_occ[q - 1] = 0
                target_occ[l - 1] = 0
                target_occ[s - 1] = 1
                target_occ[k - 1] = 1
                target = index[tuple(target_occ)]
                # closed form evaluated on the resulting configuration:
                # (-1)^{d^{sl}_J} from the s<->l pair, then (-1)^{d^{kq}} on
                # the intermediate configuration with s emptied and l filled
                d_sl = sum(target_occ[i] for i in range(min(s, l), max(s, l) - 1))
                inter = list(target_occ)
                inter[s - 1] = 0
                inter[l - 1] = 1
                d_kq = sum(inter[i] for i in range(min(k, q), max(k, q) - 1))
                expected = (-1.0) ** (d_sl + d_kq)
                assert out[target - 1] == expected
                assert np.count_nonzero(out) == 1

    def test_boson_closed_form_on_every_basis_vector(self):
        for space in (SpaceDescriptor.boson(2, 4), SpaceDescriptor.boson(3, 4)):
            m = space.m
            index = occ_to_index(space)
            for j in range(1, space.n_conf + 1):
                occ = space.occupations_at(j)
                psi = basis_state(space, j)
                for k, s, l, q in itertools.permutations(range(1, m + 1), 4):
                    out = apply_two_body_term(k, s, l, q, psi).amplitudes
                    if occ[q - 1] < 1 or occ[l - 1] < 1:
                        assert np.all(out == 0)
                        continue
                    target_occ = list(occ)
                    target_occ[q - 1] -= 1
                    target_occ[l - 1] -= 1
                    target_occ[s - 1] += 1
                    target_occ[k - 1] += 1
                    target = index[tuple(target_occ)]
                    nk, ns = target_occ[k - 1], target_occ[s - 1]
                    nl, nq = target_occ[l - 1], target_occ[q - 1]
                    expected = np.sqrt(nk) * np.sqrt(ns) * np.sqrt(nl + 1) * np.sqrt(nq + 1)
                    assert out[target - 1] == pytest.approx(expected, abs=1e-14)


class TestApplyHamiltonian:
    def test_zero_tables_zero_vector(self):
        space = SpaceDescriptor.fermion(2, 4)
        spec = HamiltonianSpec(space, OneBodyTable(np.zeros((4, 4))), TwoBodyTable.zeros(4))
        psi = random_state(space, seed=4)
        assert np.all(apply_hamiltonian(spec, psi).amplitudes == 0)

    def test_identity_one_body_counts_particles(self):
        for space in (SpaceDescriptor.fermion(3, 5), SpaceDescriptor.boson(4, 3)):
            spec = HamiltonianSpec(
                space, OneBodyTable(np.eye(space.m)), TwoBodyTable.zeros(space.m)
            )
            psi = random_state(space, seed=5)
            out = apply_hamiltonian(spec, psi)
            np.testing.assert_allclose(out.amplitudes, space.n * psi.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.boson(4, 4)])
    def test_matches_dense_oracle(self, space):
        spec = random_hermitian_spec(space, seed=31)
        mat = build_dense(spec)
        for seed in range(3):
            psi = random_state(space, seed=seed)
            got = apply_hamiltonian(spec, psi).amplitudes
            ref = mat @ psi.amplitudes
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_linearity(self):
        space = SpaceDescriptor.boson(3, 4)
        spec = random_hermitian_spec(space, seed=37)
        u = random_state(space, seed=6)
        v = random_state(space, seed=7)
        a, b = 0.7 - 0.1j, -1.3 + 2.2j
        from fockops.fockspace import StateVector

        mixed = StateVector(space, a * u.amplitudes + b * v.amplitudes)
        lhs = apply_hamiltonian(spec, mixed).amplitudes
        rhs = a * apply_hamiltonian(spec, u).amplitudes + b * apply_hamiltonian(spec, v).amplitudes
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_hermiticity_transfer(self):
        for space in (SpaceDescriptor.fermion(2, 5), SpaceDescriptor.boson(3, 3)):
            spec = random_hermitian_spec(space, seed=41)
            u = random_state(space, seed=8)
            v = random_state(space, seed=9)
            lhs = dot(u, apply_hamiltonian(spec, v))
            rhs = np.conj(dot(v, apply_hamiltonian(spec, u)))
            assert abs(lhs - rhs) <= 1e-12 * u.norm() * v.norm()

    def test_space_mismatch_rejected(self):
        spec = random_hermitian_spec(SpaceDescriptor.boson(2, 3), seed=43)
        psi = random_state(SpaceDescriptor.boson(3, 3), seed=0)
        with pytest.raises(SpaceMismatchError):
            apply_hamiltonian(spec, psi)

    def test_skip_threshold(self, monkeypatch):
        space = SpaceDescriptor.boson(2, 2)
        h = np.array([[0.0, 1e-16], [1e-16, 0.0]])
        spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.zeros(2))
        psi = random_state(space, seed=1)
        assert np.all(apply_hamiltonian(spec, psi).amplitudes == 0)
        monkeypatch.setattr(kernel, "SKIP_THRESHOLD", 1e-17)
        kept = apply_hamiltonian(spec, psi)
        assert np.any(kept.amplitudes != 0)


class TestOneBodyOperator:
    def test_single_entry_linearity(self):
        space = SpaceDescriptor.boson(2, 3)
        h = np.zeros((3, 3), dtype=complex)
        h[0, 1] = 0.5 - 0.5j
        psi = random_state(space, seed=10)
        got = apply_one_body_operator(OneBodyTable(h), psi).amplitudes
        ref = h[0, 1] * apply_one_body_term(1, 2, psi).amplitudes
        np.testing.assert_array_equal(got, ref)

    def test_hermitian_expectation_real(self):
        space = SpaceDescriptor.fermion(2, 4)
        spec = random_hermitian_spec(space, seed=47)
        psi = random_state(space, seed=11)
        val = dot(psi, apply_one_body_operator(spec.one_body, psi))
        assert abs(val.imag) <= 1e-12

    def test_matches_dense(self):
        space = SpaceDescriptor.fermion(2, 4)
        spec = random_hermitian_spec(space, seed=53)
        only_h = HamiltonianSpec(space, spec.one_body, TwoBodyTable.zeros(space.m))
        mat = build_dense(only_h)
        psi = random_state(space, seed=12)
        got = apply_one_body_operator(spec.one_body, psi).amplitudes
        np.testing.assert_allclose(got, mat @ psi.amplitudes, atol=1e-13)


def test_closed_form_equivalence_suite_spaces():
    """Pairwise-distinct two-body terms: sequential == closed form, N_conf <= 200."""
    spaces = [
        SpaceDescriptor.fermion(2, 6),
        SpaceDescriptor.boson(2, 5),
    ]
    for space in spaces:
        assert space.n_conf <= 200
        index = occ_to_index(space)
        for j in range(1, space.n_conf + 1):
            occ = space.occupations_at(j)
            psi = basis_state(space, j)
            for k, s, l, q in itertools.permutations(range(1, space.m + 1), 4):
                out = apply_two_body_term(k, s, l, q, psi).amplitudes
                src_ok = occ[q - 1] >= 1 and occ[l - 1] >= 1
                if space.statistics == "fermion":
                    src_ok = src_ok and occ[k - 1] == 0 and occ[s - 1] == 0
                if not src_ok:
                    assert np.all(out == 0)
                    continue
                target_occ = list(occ)
                target_occ[q - 1] -= 1
                target_occ[l - 1] -= 1
                target_occ[s - 1] += 1
                target_occ[k - 1] += 1
                target = index[tuple(target_occ)]
                if space.statistics == "fermion":
                    d_sl = sum(target_occ[i] for i in range(min(s, l), max(s, l) - 1))
                    inter = list(target_occ)
                    inter[s - 1] = 0
                    inter[l - 1] = 1
                    d_kq = sum(inter[i] for i in range(min(k, q), max(k, q) - 1))
                    expected = (-1.0) ** (d_sl + d_kq)
                else:
                    nk, ns = target_occ[k - 1], target_occ[s - 1]
                    nl, nq = target_occ[l - 1], target_occ[q - 1]
                    expected = np.sqrt(nk) * np.sqrt(ns) * np.sqrt(nl + 1) * np.sqrt(nq + 1)
                assert abs(out[target - 1] - expected) <= 1e-14 * max(1.0, abs(expected))
