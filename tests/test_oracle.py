"""The dense brute-force reference itself."""

import numpy as np
import pytest

from fockops import (
    HamiltonianSpec,
    OneBodyTable,
    SizeError,
    SpaceDescriptor,
    SpaceMismatchError,
    TwoBodyTable,
    ValidationError,
    basis_state,
    build_dense,
    dense_eig,
    dense_expm_apply,
    random_state,
)
from conftest import random_hermitian_spec


def number_operator_spec(space):
    return HamiltonianSpec(
        space, OneBodyTable(np.eye(space.m)), TwoBodyTable.zeros(space.m)
    )


class TestBuildDense:
    def test_number_operator_is_diagonal_n(self):
        space = SpaceDescriptor.boson(3, 3)
        mat = build_dense(number_operator_spec(space))
        np.testing.assert_allclose(mat, 3 * np.eye(space.n_conf), atol=0)

    def test_boson_hop_matrix_entries(self):
        # b†_1 b_2 on N=2, M=2: |1,1> -> sqrt(2)|2,0>, |0,2> -> sqrt(2)|1,1>
        space = SpaceDescriptor.boson(2, 2)
        mat = build_dense((("a", 2), ("c", 1)), space)
        expected = np.zeros((3, 3))
        expected[0, 1] = np.sqrt(2)  # J=2 -> J=1
        expected[1, 2] = np.sqrt(2)  # J=3 -> J=2
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    def test_hermitian_spec_gives_hermitian_matrix(self):
        spec = random_hermitian_spec(SpaceDescriptor.fermion(2, 4), seed=13)
        mat = build_dense(spec)
        assert np.abs(mat - mat.conj().T).max() < 1e-13

    def test_cap_enforced(self):
        spec = number_operator_spec(SpaceDescriptor.boson(3, 3))
        with pytest.raises(SizeError):
            build_dense(spec, cap=5)


class TestDenseEig:
    def test_two_by_two_analytic(self):
        op = np.array([[0.0, -1.0], [-1.0, 0.0]])
        evals, evecs = dense_eig(op)
        np.testing.assert_allclose(evals, [-1.0, 1.0], atol=1e-14)

    def test_three_by_three_vs_characteristic_roots(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        op = a + a.T
        evals, _ = dense_eig(op)
        roots = np.sort(np.roots(np.poly(op)).real)
        np.testing.assert_allclose(evals, roots, atol=1e-9)

    def test_residuals(self):
        spec = random_hermitian_spec(SpaceDescriptor.boson(3, 3), seed=17)
        op = build_dense(spec)
        evals, evecs = dense_eig(op)
        res = np.abs(op @ evecs - evecs * evals).max()
        assert res <= 1e-11 * np.linalg.norm(op, 2)

    def test_spectrum_invariant_under_basis_permutation(self):
        spec = random_hermitian_spec(SpaceDescriptor.boson(2, 3), seed=19)
        op = build_dense(spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(op.shape[0])
        p = np.eye(op.shape[0])[perm]
        evals_a, _ = dense_eig(op)
        evals_b, _ = dense_eig(p @ op @ p.T)
        np.testing.assert_allclose(evals_a, evals_b, atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            dense_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDenseExpm:
    def test_t_zero_is_identity(self):
        spec = random_hermitian_spec(SpaceDescriptor.boson(2, 3), seed=23)
        op = build_dense(spec)
        psi = random_state(spec.space, seed=1)
        out = dense_expm_apply(op, psi, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_zero_operator_is_identity(self):
        space = SpaceDescriptor.boson(2, 3)
        psi = random_state(space, seed=2)
        out = dense_expm_apply(np.zeros((space.n_conf, space.n_conf)), psi, 3.7)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_unitarity(self):
        spec = random_hermitian_spec(SpaceDescriptor.fermion(2, 4), seed=29)
        op = build_dense(spec)
        psi = random_state(spec.space, seed=3)
        out = dense_expm_apply(op, psi, 1.234)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-13

    def test_single_basis_phase(self):
        space = SpaceDescriptor.boson(2, 2)
        op = build_dense(number_operator_spec(space))
        psi = basis_state(space, 1)
        out = dense_expm_apply(op, psi, 0.5)
        assert out.amplitudes[0] == pytest.approx(np.exp(-1j * 2 * 0.5))

    def test_state_of_another_space_is_refused(self):
        """fermion(2,4) and boson(1,6) both have 6 configurations: only ``space`` tells them apart."""
        spec = random_hermitian_spec(SpaceDescriptor.fermion(2, 4), seed=31)
        op = build_dense(spec)
        other = random_state(SpaceDescriptor.boson(1, 6), seed=5)
        assert other.amplitudes.shape[0] == op.shape[0]
        with pytest.raises(SpaceMismatchError):
            dense_expm_apply(op, other, 0.1, space=spec.space)
        psi = random_state(spec.space, seed=5)
        np.testing.assert_array_equal(dense_expm_apply(op, psi, 0.1, space=spec.space).amplitudes,
                                      dense_expm_apply(op, psi, 0.1).amplitudes)
