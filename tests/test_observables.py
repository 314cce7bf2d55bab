"""Density matrices, expectation values, and their structural laws."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from fockops import (
    HamiltonianSpec,
    MixtureSpace,
    OneBodyTable,
    SpaceDescriptor,
    SpaceMismatchError,
    StateVector,
    TwoBodyTable,
    apply_hamiltonian,
    basis_state,
    build_bose_hubbard,
    build_dense,
    energy,
    fockspace,
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

    @pytest.mark.parametrize("other,message", [
        (SpaceDescriptor.boson(1, 6), "Hamiltonian and state belong to different spaces"),
        (suite_mixture_spaces()[0], "mixture spec and state live in different spaces"),
    ], ids=["single", "mixture"])
    def test_state_of_another_space(self, other, message):
        """energy goes through the executor, so a state that does not fit H gets its engine's refusal."""
        spec = random_hermitian_spec(SpaceDescriptor.fermion(2, 4), seed=10)
        with pytest.raises(SpaceMismatchError, match=message):
            energy(spec, random_state(other, seed=11))


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
    mat = space.matrix(psi.amplitudes) if len(parts) == 2 else psi.amplitudes
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


@pytest.mark.parametrize("space", [SpaceDescriptor.fermion(0, 3), SpaceDescriptor.boson(0, 2),
                                   SpaceDescriptor.fermion(1, 1), SpaceDescriptor.boson(3, 1),
                                   SpaceDescriptor.fermion(1, 4), SpaceDescriptor.boson(1, 3),
                                   SpaceDescriptor.fermion(4, 4), SpaceDescriptor.fermion(2, 3),
                                   SpaceDescriptor.boson(2, 2), SpaceDescriptor.fermion(4, 6),
                                   SpaceDescriptor.fermion(3, 5), SpaceDescriptor.boson(4, 1),
                                   SpaceDescriptor.boson(5, 2)], ids=str)
def test_densities_against_dense_operators_at_the_edges(space):
    """N = 0, M = 1, N = 1, N = M, N > M + 1 and the hole picture: every rho and rho2 entry against the oracle's operator matrix.

    Below two particles b_l b_q annihilates every state, so rho2 is exactly
    0.  Above half filling, fermion(2,3) and fermion(4,4) have no
    configuration of N + 2 particles; fermion(4,6) and fermion(3,5) do.
    """
    psi = random_state(space, seed=25)
    rho, rho2 = one_body_density(psi), two_body_density(psi)
    assert rho2.shape == (space.m,) * 4 and rho2.dtype == np.complex128
    assert rho2.any() == (space.n >= 2)
    orbitals = range(1, space.m + 1)
    for k, q in itertools.product(orbitals, repeat=2):
        ref = np.vdot(psi.amplitudes, build_dense((("a", q), ("c", k)), space) @ psi.amplitudes)
        assert abs(rho[k - 1, q - 1] - ref) <= 1e-12
    for k, s, l, q in itertools.product(orbitals, repeat=4):
        op = build_dense((("a", q), ("a", l), ("c", s), ("c", k)), space)
        assert abs(rho2[k - 1, s - 1, l - 1, q - 1] - np.vdot(psi.amplitudes, op @ psi.amplitudes)) <= 1e-12


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.fermion(4, 8),
                                   SpaceDescriptor.fermion(5, 5), SpaceDescriptor.fermion(5, 7)], ids=str)
def test_fermion_rho2_vanishes_exactly_on_a_repeated_index(space, real):
    """b_k b_k = 0: the entries with k = s or l = q are exactly 0, not just small, in either picture."""
    psi = random_state(space, seed=27)
    if real:
        amps = psi.amplitudes.real
        psi = StateVector(space, amps / np.linalg.norm(amps))
    rho2 = two_body_density(psi)
    diag = np.arange(space.m)
    assert not rho2[diag, diag].any()
    assert not rho2[:, :, diag, diag].any()
    assert np.abs(rho2).max() > 0


def test_rho2_holds_no_image_of_two_fewer_particles_whole():
    """boson(9,9): the 81 states b_l b_q psi take 8.3 MB, and two_body_density peaks below that.

    Its peak is the 1.9 MB of the states b_q psi, the tables of the space
    of N - 1 particles and one block of the images.  Holding all 81
    images, or the 81 images phi_kq = E_kq psi of N particles (31.5 MB),
    breaches the bound.
    """
    space = SpaceDescriptor.boson(9, 9)
    psi = random_state(space, seed=28)
    space.tables()
    images = space.m ** 2 * SpaceDescriptor.boson(7, 9).n_conf * 16
    tracemalloc.start()
    try:
        two_body_density(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < images


def test_a_cold_apply_and_rho_above_half_filling_stay_below_the_space_tables():
    """fermion(20,24), two hopping pairs: the traced peaks of a cold apply and of rho are below N_conf (2M + 1) x 8 bytes (4.2 MB).

    The apply builds the space's ladder table, which rho then reuses.  It
    takes the hole picture, a table over the 2,024 configurations of 21
    particles.  The creation table over the 42,504 configurations of 19,
    and the occupation table that makes it, put the peak near 18 MB.
    """
    space = SpaceDescriptor.fermion(20, 24)
    h = np.zeros((24, 24))
    h[0, 1] = h[1, 0] = h[2, 5] = h[5, 2] = -1.0
    spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.zeros(24))
    psi = random_state(space, seed=29)
    space.tables()  # the occupation table is built before tracing, the ladder table inside the apply
    for run in (lambda: apply_hamiltonian(spec, psi), lambda: one_body_density(psi)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < space.n_conf * (2 * space.m + 1) * 8


@pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 7), SpaceDescriptor.boson(4, 4),
                                   SpaceDescriptor.fermion(5, 7)], ids=str)
def test_densities_build_only_their_ladder_tables(monkeypatch, space):
    """With psi's tables built, each density builds at most one occupation table, in either picture, and no SpaceTables.

    rho builds the space's ladder table, which the space's tables keep, so
    a second rho builds none; rho2 builds only its middle space's table,
    and mixture_densities only species B's, as species A is psi's space.
    The ladder tables carry their weights, so no density reads a
    neighbour space's tables.
    """
    psi = random_state(space, seed=30)
    space.tables()
    mpsi = mixture_random_state(MixtureSpace(space, SpaceDescriptor.boson(2, 3)), seed=31)
    for s in (mpsi.space.space_a, mpsi.space.space_b):
        s.tables()
    occupation_tables, space_tables = [], []
    occupation_table = fockspace.occupation_table
    monkeypatch.setattr(fockspace, "occupation_table", lambda *a: occupation_tables.append(a) or occupation_table(*a))
    monkeypatch.setattr(fockspace.SpaceTables, "__init__", lambda self, sp: space_tables.append(sp))
    for density, builds in ((one_body_density, 1), (one_body_density, 0), (two_body_density, 1),
                            (mixture_densities, 1)):
        occupation_tables.clear()
        density(mpsi if density is mixture_densities else psi)
        assert len(occupation_tables) == builds, density.__name__
    assert space_tables == []


@pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 7), SpaceDescriptor.boson(4, 4),
                                   SpaceDescriptor.fermion(5, 7)], ids=str)
def test_an_apply_and_the_densities_build_each_ladder_table_once(monkeypatch, space):
    """On cold tables, H builds the space's ladder table and, for its pair part, its middle space's; rho and rho2 reuse them."""
    psi = random_state(space, seed=32)
    spec = random_hermitian_spec(space, seed=33)
    built = []
    ladder_table = fockspace.ladder_table

    def counted(sp):
        built.append(sp)
        return ladder_table(sp)

    monkeypatch.setattr(fockspace, "ladder_table", counted)
    apply_hamiltonian(spec, psi)
    holes = space.statistics == "fermion" and 2 * space.n > space.m
    both = [space, SpaceDescriptor(space.statistics, space.n + (1 if holes else -1), space.m)]
    assert built == both
    one_body_density(psi)
    two_body_density(psi)
    assert built == both


def test_site_densities_copy_no_occupation_table():
    """boson(9,9) with its tables built: site_densities reads the occupation table, and peaks below occ (1.75 MB)."""
    space = SpaceDescriptor.boson(9, 9)
    psi = random_state(space, seed=34)
    tb = space.tables()
    tracemalloc.start()
    try:
        got = site_densities(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tb.occ.nbytes
    assert abs(got.sum() - space.n) <= 1e-12


def _arrays(obj):
    """Every numpy array in ``obj``, a nest of tuples, lists and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(item)


def test_a_solved_space_keeps_one_occupation_table():
    """boson(9,9) Bose-Hubbard after ground_state, rho, rho2 and site_densities: the space's tables keep occ and the two ladder tables, nothing more."""
    spec = build_bose_hubbard(9, 9, hopping=1.0, interaction=2.0)
    psi = ground_state(spec, tol=1e-8).state
    for density in (one_body_density, two_body_density, site_densities):
        density(psi)
    tb = spec.space.tables()
    assert set(vars(tb)) == {"space", "occ", "ladder", "next_ladder", "_gather_cache"}
    assert tb.occ.dtype == np.float64
    ladders = [a for ladder in (tb.ladder, tb.next_ladder) for a in ladder[:2]]
    assert sum(a.nbytes for a in _arrays(vars(tb))) == tb.occ.nbytes + sum(a.nbytes for a in ladders)
