"""Density matrices, expectation values, and their structural laws."""

import json
import tracemalloc

import numpy as np
import pytest

from fockops import (
    HamiltonianSpec,
    OneBodyTable,
    SpaceDescriptor,
    TwoBodyTable,
    basis_state,
    build_bose_hubbard,
    build_dense,
    energy,
    kernel,
    ground_state,
    mixture_densities,
    mixture_random_state,
    natural_occupations,
    one_body_density,
    product_state,
    random_state,
    reorder_two_body,
    site_densities,
    two_body_density,
)
from fockops.observables import write_density_csv, write_density_json
from conftest import (
    random_hermitian_spec,
    random_mixture_spec,
    suite_mixture_spaces,
    suite_single_spaces,
)


class TestOneBodyDensity:
    def test_single_permanent(self):
        space = SpaceDescriptor.boson(4, 3)
        psi = basis_state(space, 1)  # |4,0,0>
        rho = one_body_density(psi)
        np.testing.assert_allclose(rho, np.diag([4.0, 0.0, 0.0]), atol=1e-14)

    def test_single_determinant(self):
        space = SpaceDescriptor.fermion(2, 4)
        psi = basis_state(space, 1)  # |1100>
        rho = one_body_density(psi)
        np.testing.assert_allclose(rho, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize(
        "space", [SpaceDescriptor.fermion(2, 4), SpaceDescriptor.boson(3, 3)]
    )
    def test_against_dense_operator_matrices(self, space):
        psi = random_state(space, seed=1)
        rho = one_body_density(psi)
        for k in range(1, space.m + 1):
            for q in range(1, space.m + 1):
                op = build_dense((("a", q), ("c", k)), space)
                ref = np.vdot(psi.amplitudes, op @ psi.amplitudes)
                assert abs(rho[k - 1, q - 1] - ref) <= 1e-12

    def test_laws_on_random_states(self):
        for space in (SpaceDescriptor.fermion(3, 5), SpaceDescriptor.boson(4, 3)):
            for seed in range(4):
                psi = random_state(space, seed=seed)
                rho = one_body_density(psi)
                assert np.abs(rho - rho.conj().T).max() <= 1e-12
                assert abs(np.trace(rho) - space.n) <= 1e-12
                occs = natural_occupations(rho)
                assert occs.min() >= -1e-10
                assert occs.max() <= space.n + 1e-10
                if space.statistics == "fermion":
                    assert occs.max() <= 1 + 1e-10


class TestTwoBodyDensity:
    def test_single_particle_vanishes(self):
        space = SpaceDescriptor.boson(1, 3)
        psi = random_state(space, seed=2)
        rho2 = two_body_density(psi)
        assert np.abs(rho2).max() <= 1e-14

    def test_pair_trace_rule(self):
        for space in (SpaceDescriptor.fermion(3, 5), SpaceDescriptor.boson(3, 3)):
            for seed in range(3):
                psi = random_state(space, seed=seed)
                rho2 = two_body_density(psi)
                n = space.n
                # sum_ks <b†_k b†_s b_s b_k> = N (N - 1)
                tr = sum(
                    rho2[k, s, s, k] for k in range(space.m) for s in range(space.m)
                )
                assert abs(tr - n * (n - 1)) <= 1e-10

    def test_partial_trace_relation(self):
        space = SpaceDescriptor.boson(3, 4)
        psi = random_state(space, seed=5)
        rho = one_body_density(psi)
        rho2 = two_body_density(psi)
        n = space.n
        # sum_s <b†_k b†_s b_s b_q> = (N - 1) rho_kq
        contracted = np.einsum("kssq->kq", rho2)
        np.testing.assert_allclose(contracted, (n - 1) * rho, atol=1e-10)

    def test_against_dense(self):
        space = SpaceDescriptor.fermion(2, 4)
        psi = random_state(space, seed=6)
        rho2 = two_body_density(psi)
        for ops, idx in [
            (((("a", 2), ("a", 4), ("c", 3), ("c", 1))), (1, 3, 4, 2)),
            (((("a", 1), ("a", 2), ("c", 2), ("c", 1))), (1, 2, 2, 1)),
        ]:
            op = build_dense(ops, space)
            ref = np.vdot(psi.amplitudes, op @ psi.amplitudes)
            k, s, l, q = idx
            assert abs(rho2[k - 1, s - 1, l - 1, q - 1] - ref) <= 1e-12


class TestReorder:
    def test_physicist_chemist_permutations(self):
        rng = np.random.default_rng(3)
        rho2 = rng.standard_normal((3, 3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3, 3))
        phys = reorder_two_body(rho2, "physicist")
        chem = reorder_two_body(rho2, "chemist")
        assert phys[0, 1, 2, 1] == rho2[0, 1, 1, 2]
        assert chem[0, 2, 1, 1] == rho2[0, 1, 1, 2]
        np.testing.assert_array_equal(reorder_two_body(rho2, "stored"), rho2)
        with pytest.raises(ValueError):
            reorder_two_body(rho2, "dirac")


class TestEnergy:
    def test_number_operator(self):
        space = SpaceDescriptor.boson(5, 3)
        spec = HamiltonianSpec(space, OneBodyTable(np.eye(3)), TwoBodyTable.zeros(3))
        psi = random_state(space, seed=7)
        assert energy(spec, psi) == pytest.approx(5.0)

    def test_two_site_ground_state(self):
        spec = build_bose_hubbard(1, 2, hopping=0.9, interaction=4.0)
        result = ground_state(spec, tol=1e-12)
        assert energy(spec, result.state).real == pytest.approx(-0.9, abs=1e-10)

    def test_against_dense_quadratic_form(self):
        space = SpaceDescriptor.boson(3, 3)
        spec = random_hermitian_spec(space, seed=8)
        mat = build_dense(spec)
        psi = random_state(space, seed=9)
        ref = np.vdot(psi.amplitudes, mat @ psi.amplitudes)
        assert abs(energy(spec, psi) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_real_for_hermitian_specs(self):
        space = SpaceDescriptor.fermion(2, 4)
        spec = random_hermitian_spec(space, seed=10)
        psi = random_state(space, seed=11)
        e = energy(spec, psi)
        assert abs(e.imag) <= 1e-12 * max(1.0, abs(e))


class TestMixtureDensities:
    def test_product_state_factors(self):
        mspace = suite_mixture_spaces()[2]
        u = random_state(mspace.space_a, seed=12)
        v = random_state(mspace.space_b, seed=13)
        psi = product_state(u, v, mspace)
        rho_a, rho_b = mixture_densities(psi)
        np.testing.assert_allclose(rho_a, one_body_density(u), atol=1e-12)
        np.testing.assert_allclose(rho_b, one_body_density(v), atol=1e-12)

    def test_traces(self):
        from fockops import mixture_random_state

        for mspace in suite_mixture_spaces():
            psi = mixture_random_state(mspace, seed=14)
            rho_a, rho_b = mixture_densities(psi)
            assert abs(np.trace(rho_a) - mspace.space_a.n) <= 1e-12
            assert abs(np.trace(rho_b) - mspace.space_b.n) <= 1e-12

    def test_against_dense(self):
        from fockops import mixture_random_state

        mspace = suite_mixture_spaces()[0]
        psi = mixture_random_state(mspace, seed=15)
        rho_a, _ = mixture_densities(psi)
        sa, sb = mspace.space_a, mspace.space_b
        for k in range(1, sa.m + 1):
            for q in range(1, sa.m + 1):
                op = np.kron(build_dense((("a", q), ("c", k)), sa), np.eye(sb.n_conf))
                ref = np.vdot(psi.amplitudes, op @ psi.amplitudes)
                assert abs(rho_a[k - 1, q - 1] - ref) <= 1e-12


def _full_one_body(space, mat, axis):
    """rho from all M^2 images E_kq psi, one vdot each, as the one-body density was once formed."""
    return np.array([[np.vdot(mat, kernel.apply_pair(space, k, q, mat, axis=axis))
                      for q in range(1, space.m + 1)] for k in range(1, space.m + 1)])


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("space", suite_single_spaces() + suite_mixture_spaces(), ids=str)
def test_one_body_density_is_exactly_hermitian(space, real):
    """rho == rho^H bit for bit, its diagonal is site_densities, and it agrees with all M^2 images to 1e-12."""
    if hasattr(space, "space_a"):
        psi = mixture_random_state(space, seed=22)
        parts = [(space.space_a, 0), (space.space_b, 1)]
    else:
        psi = random_state(space, seed=22)
        parts = [(space, 0)]
    if real:
        amps = psi.amplitudes.real
        psi = type(psi)(space, amps / np.linalg.norm(amps))
    rhos = mixture_densities(psi) if len(parts) == 2 else [one_body_density(psi)]
    mat = psi.as_matrix() if len(parts) == 2 else psi.amplitudes
    for (species, axis), rho in zip(parts, rhos):
        assert np.array_equal(rho, rho.conj().T)
        assert np.abs(rho - _full_one_body(species, mat, axis)).max() <= 1e-12
    np.testing.assert_array_equal(np.concatenate([np.diag(rho).real for rho in rhos]), site_densities(psi))


class TestSiteDensities:
    def test_matches_density_diagonal(self):
        space = SpaceDescriptor.boson(3, 3)
        psi = random_state(space, seed=16)
        dens = site_densities(psi)
        rho = one_body_density(psi)
        np.testing.assert_allclose(dens, np.diag(rho).real, atol=1e-12)

    def test_mixture_concatenates_species(self):
        from fockops import mixture_random_state

        mspace = suite_mixture_spaces()[1]
        psi = mixture_random_state(mspace, seed=17)
        dens = site_densities(psi)
        rho_a, rho_b = mixture_densities(psi)
        np.testing.assert_allclose(
            dens, np.concatenate([np.diag(rho_a).real, np.diag(rho_b).real]), atol=1e-12
        )


class TestEmission:
    def test_json_roundtrip(self, tmp_path):
        space = SpaceDescriptor.boson(2, 3)
        psi = random_state(space, seed=18)
        rho = one_body_density(psi)
        rho2 = two_body_density(psi)
        path = tmp_path / "rho.json"
        write_density_json(path, rho, rho2)
        doc = json.loads(path.read_text())
        assert doc["format"] == "fockops-density/1"
        back = np.array([[complex(re, im) for re, im in row] for row in doc["rho"]])
        np.testing.assert_allclose(back, rho, atol=0)
        assert "rho2" in doc  # dense form at M = 3

    def test_json_sparse_above_m8(self, tmp_path):
        m = 9
        rho = np.eye(m, dtype=complex)
        rho2 = np.zeros((m, m, m, m), dtype=complex)
        rho2[0, 1, 1, 0] = 2.5
        path = tmp_path / "rho9.json"
        write_density_json(path, rho, rho2)
        doc = json.loads(path.read_text())
        assert doc["rho2_coordinates"] == [[1, 2, 2, 1, 2.5, 0.0]]

    def test_csv_emission(self, tmp_path):
        space = SpaceDescriptor.fermion(2, 3)
        psi = random_state(space, seed=19)
        rho = one_body_density(psi)
        path = tmp_path / "rho.csv"
        write_density_csv(path, rho)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# fockops-density-csv")
        assert len(lines) == 2 + space.m * space.m + space.m


def test_unnormalized_state_warns():
    space = SpaceDescriptor.boson(2, 2)
    psi = basis_state(space, 1)
    psi.amplitudes *= 2.0
    with pytest.warns(UserWarning):
        one_body_density(psi)


def test_rho2_holds_the_pair_images_once():
    """boson(6,6): the M^2 images take 266 kB, and two_body_density peaks below 1.6 times that.

    A second full copy of the images, as a list of images or as their
    conjugate, would take the peak past twice their size.
    """
    space = SpaceDescriptor.boson(6, 6)
    psi = random_state(space, seed=23)
    space.tables()
    images = space.m ** 2 * space.n_conf * 16
    tracemalloc.start()
    try:
        two_body_density(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * images
