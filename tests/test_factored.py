"""The factored H|psi> against the dense oracle, and the pair gathers against the occupation algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockops import (
    HamiltonianSpec,
    InterSpeciesTable,
    MixtureHamiltonianSpec,
    MixtureSpace,
    OneBodyTable,
    SpaceDescriptor,
    SpaceMismatchError,
    StateVector,
    TwoBodyTable,
    apply_hamiltonian,
    apply_mixture_hamiltonian,
    apply_one_body_term,
    apply_two_body_term,
    basis_state,
    build_bose_hubbard,
    build_dense,
    ground_state,
    kernel,
    mixture_densities,
    mixtures,
    mixture_random_state,
    one_body_density,
    oracle,
    parallel_apply,
    propagate,
    random_state,
    two_body_density,
)
from conftest import random_hermitian_spec, random_mixture_spec, suite_mixture_spaces, suite_single_spaces

TOL = 1e-12


@st.composite
def spaces(draw, max_conf=40):
    statistics = draw(st.sampled_from(["fermion", "boson"]))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, m if statistics == "fermion" else 4))
    space = SpaceDescriptor(statistics, n, m)
    if space.n_conf > max_conf:
        space = SpaceDescriptor(statistics, min(n, 1), m)
    return space


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@st.composite
def species_tables(draw, m, layout=None):
    """Random non-Hermitian complex h and W with a drawn sparsity pattern.

    "diagonal" keeps only number-operator products (k = q, s = l), "coincident"
    draws every index from two orbitals, "mixed" draws indices freely.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = draw(st.sampled_from(["diagonal", "coincident", "mixed"]))
    count = draw(st.integers(0, 12))
    idx = rng.integers(0, m, size=(count, 4))
    if pattern == "diagonal":
        idx[:, 2], idx[:, 3] = idx[:, 0], idx[:, 1]
    elif pattern == "coincident":
        idx = rng.choice(np.unique(rng.integers(0, m, size=2)), size=(count, 4))
    keys = sorted({tuple(map(int, row)) for row in idx})
    values = _complex(rng, len(keys))
    h = _complex(rng, (m, m)) * (rng.random((m, m)) < 0.5)
    if pattern == "diagonal":
        h = np.diag(np.diag(h))
    if layout is None:
        layout = draw(st.sampled_from(["entries", "coordinates"]))
    if layout == "entries":
        w = TwoBodyTable.from_entries(m, [(k + 1, s + 1, q + 1, l + 1, v)
                                          for (k, s, q, l), v in zip(keys, values)])
    else:  # the constructor on 0-based coordinates, which from_entries wraps
        w = TwoBodyTable(m, indices=np.array(keys, dtype=np.int64).reshape(-1, 4), values=values)
    return OneBodyTable(h), w


def _assert_matches(got, mat, amps):
    ref = mat @ amps
    assert np.linalg.norm(got - ref) <= TOL * max(1.0, np.linalg.norm(ref))


@given(spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_balanced_strings_match_occupation_algebra(space, data):
    """A product of 1-3 pairs E_kq applied one by one equals the oracle's forward algebra on the whole string."""
    sites = st.integers(1, space.m)
    pairs = data.draw(st.lists(st.tuples(sites, sites), min_size=1, max_size=3))  # in application order
    psi = random_state(space, seed=data.draw(st.integers(0, 100)))
    got = psi
    for k, q in pairs:
        got = apply_one_body_term(k, q, got)
    ops = tuple(op for k, q in pairs for op in (("a", q), ("c", k)))
    _assert_matches(got.amplitudes, build_dense(ops, space), psi.amplitudes)


def _species_spaces():
    spaces = suite_single_spaces()
    for mspace in suite_mixture_spaces():
        spaces += [mspace.space_a, mspace.space_b]
    return spaces


@pytest.mark.parametrize("space", _species_spaces(), ids=str)
def test_gathers_equal_the_forward_algebra(space):
    """act, src and pref of every pair gather E_kq, exactly.

    The reference applies each term forward to every configuration with the
    oracle's occupation algebra and labels the result through unrank; a
    bosonic prefactor is the square root of an exact integer product.
    """
    m = space.m
    configs = [space.occupations_at(j) for j in range(1, space.n_conf + 1)]
    row_of = {occ: row for row, occ in enumerate(configs)}
    for k, q in itertools.product(range(1, m + 1), repeat=2):
        ops = (("a", q), ("c", k))
        ref = {}
        for row, occ in enumerate(configs):
            hit = oracle.apply_ops_to_occupations(space.statistics, occ, ops)
            if hit is not None:
                tgt, coeff = hit
                if space.statistics == "boson":
                    coeff = np.sqrt(float(round(coeff ** 2)))
                ref[row_of[tuple(tgt)]] = (row, coeff)
        act = sorted(ref)
        src, pref, empty, got_act = kernel.term_gather(space, k, q)
        np.testing.assert_array_equal(got_act, act)
        assert empty is None
        np.testing.assert_array_equal(src, [ref[row][0] for row in act])
        np.testing.assert_array_equal(pref, [ref[row][1] for row in act])


@pytest.mark.parametrize("space", [SpaceDescriptor.fermion(2, 4), SpaceDescriptor.fermion(3, 5),
                                   SpaceDescriptor.boson(2, 3), SpaceDescriptor.boson(3, 3)], ids=str)
def test_two_body_term_matches_the_oracle_on_every_quadruple(space):
    """b†_k b†_s b_l b_q as E_kq E_sl - δ_qs E_kl equals the oracle's matrix on all M^4 (k, s, l, q), coincidences included."""
    columns = [basis_state(space, j) for j in range(1, space.n_conf + 1)]
    for k, s, l, q in itertools.product(range(1, space.m + 1), repeat=4):
        got = np.column_stack([apply_two_body_term(k, s, l, q, psi).amplitudes for psi in columns])
        ref = build_dense((("a", q), ("a", l), ("c", s), ("c", k)), space)
        assert np.abs(got - ref).max() <= TOL, (k, s, l, q)


@given(spaces())
@settings(max_examples=60, deadline=None)
def test_transposed_pair_gather_is_the_built_one(space):
    """src of every off-diagonal pair gather is strictly increasing, and E_kq's transpose is E_qk's gather, bitwise."""
    tb = space.tables()
    for k in range(1, space.m + 1):
        for q in range(k + 1, space.m + 1):
            forward = kernel._build_gather(space, tb, k, q)
            backward = kernel._build_gather(space, tb, q, k)
            for src in (forward[0], backward[0]):
                assert np.all(np.diff(src) > 0)
            for got, ref in ((kernel.transpose(forward), backward), (kernel.transpose(backward), forward)):
                assert got[2] is None
                for i in (0, 1, 3):
                    assert got[i].dtype == ref[i].dtype
                    np.testing.assert_array_equal(got[i], ref[i])


@given(spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_factored_apply_matches_oracle(space, data):
    h, w = data.draw(species_tables(space.m))
    spec = HamiltonianSpec(space, h, w)
    psi = random_state(space, seed=data.draw(st.integers(0, 100)))
    _assert_matches(apply_hamiltonian(spec, psi).amplitudes, build_dense(spec), psi.amplitudes)


@given(spaces(max_conf=12), spaces(max_conf=12), st.data())
@settings(max_examples=50, deadline=None)
def test_factored_mixture_apply_matches_oracle(space_a, space_b, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ha, wa = data.draw(species_tables(space_a.m, "entries"))
    hb, wb = data.draw(species_tables(space_b.m, "entries"))
    shape = (space_a.m, space_a.m, space_b.m, space_b.m)
    x = _complex(rng, shape) * (rng.random(shape) < data.draw(st.sampled_from([0.0, 0.2, 1.0])))
    if data.draw(st.booleans()):  # the density-density block only: a†_k a_k b†_k' b_k'
        ka, kb = np.arange(space_a.m), np.arange(space_b.m)
        keep = np.zeros(shape, dtype=bool)
        keep[ka[:, None], ka[:, None], kb[None, :], kb[None, :]] = True
        x = x * keep
    mspace = MixtureSpace(space_a, space_b)
    mspec = MixtureHamiltonianSpec(mspace, HamiltonianSpec(space_a, ha, wa),
                                   HamiltonianSpec(space_b, hb, wb), InterSpeciesTable(x))
    psi = mixture_random_state(mspace, seed=data.draw(st.integers(0, 100)))
    _assert_matches(apply_mixture_hamiltonian(mspec, psi).amplitudes, build_dense(mspec), psi.amplitudes)


@given(spaces(), st.data())
@settings(max_examples=50, deadline=None)
def test_skip_threshold_drops_stored_entries_before_folding(space, data):
    """Entries below the threshold vanish from h, W and from W's share of h' alike."""
    m, threshold = space.m, 1e-2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = lambda size: np.where(rng.random(size) < 0.5, 1e-3, 1.0)  # noqa: E731
    h = _complex(rng, (m, m)) * scale((m, m))
    w = _complex(rng, (m,) * 4) * scale((m,) * 4)
    spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.from_dense(w))
    big = lambda a: np.where(np.abs(a) >= threshold, a, 0)  # noqa: E731
    kept = HamiltonianSpec(space, OneBodyTable(big(h)), TwoBodyTable.from_dense(big(w)))
    psi = random_state(space, seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "SKIP_THRESHOLD", threshold)
        got = apply_hamiltonian(spec, psi).amplitudes
    _assert_matches(got, build_dense(kept), psi.amplitudes)


def _count_builds(monkeypatch) -> list:
    """(space, (k, q)) of every gather built from here on."""
    built = []
    build = kernel._build_gather

    def counting(space, tb, k, q):
        built.append((space, (k, q)))
        return build(space, tb, k, q)

    monkeypatch.setattr(kernel, "_build_gather", counting)
    return built


class TestRowBlocks:
    """Several blocks per vector through the contraction path: the block size is patched down."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernel, "BLOCK_AMPLITUDES", 5)

    @pytest.mark.parametrize("space", [suite_single_spaces()[0], suite_mixture_spaces()[2]], ids=str)
    def test_workers_bitwise_equal_through_the_contraction(self, space):
        if isinstance(space, MixtureSpace):
            spec, psi = random_mixture_spec(space, seed=8), mixture_random_state(space, seed=9)
            assert kernel.factor_species(space.space_a, spec.spec_a.one_body, spec.spec_a.two_body).contractions
        else:
            spec, psi = random_hermitian_spec(space, seed=8), random_state(space, seed=9)
            assert kernel.factor_species(space, spec.one_body, spec.two_body).contractions
        ref = parallel_apply(spec, psi, workers=1).amplitudes
        for workers in (2, 4):
            np.testing.assert_array_equal(parallel_apply(spec, psi, workers=workers).amplitudes, ref)

    @pytest.mark.parametrize("space", [suite_single_spaces()[0], suite_mixture_spaces()[2]], ids=str)
    def test_real_operator_keeps_a_real_vector_real(self, space):
        """A real spec on a float64 vector computes in float64, agrees with the complex path, and is bitwise stable."""
        if isinstance(space, MixtureSpace):
            spec, psi = random_mixture_spec(space, seed=8, real=True), mixture_random_state(space, seed=9)
        else:
            spec, psi = random_hermitian_spec(space, seed=8, real=True), random_state(space, seed=9)
        real = type(psi)(space, psi.amplitudes.real.copy())
        complex_path = type(psi)(space, real.amplitudes.astype(np.complex128))
        ref = parallel_apply(spec, real, workers=1).amplitudes
        assert ref.dtype == np.float64
        for workers in (2, 4):
            np.testing.assert_array_equal(parallel_apply(spec, real, workers=workers).amplitudes, ref)
        _assert_matches(ref, build_dense(spec), real.amplitudes)
        full = parallel_apply(spec, complex_path, workers=1).amplitudes
        assert full.dtype == np.complex128
        assert np.linalg.norm(full - ref) <= TOL * np.linalg.norm(full)

    @pytest.mark.parametrize("mixture", [False, True], ids=["single-cached", "mixture-cached"])
    def test_cold_apply_builds_each_pair_gather_once(self, monkeypatch, mixture):
        if mixture:
            space = MixtureSpace(SpaceDescriptor.boson(2, 3), SpaceDescriptor.fermion(2, 4))
            spec, psi = random_mixture_spec(space, seed=10), mixture_random_state(space, seed=11)
            n_pairs, n_rows, width = 3 * 4 // 2 + 4 * 5 // 2, space.space_a.n_conf, space.space_b.n_conf
        else:
            space = SpaceDescriptor.boson(3, 4)
            spec, psi = random_hermitian_spec(space, seed=10), random_state(space, seed=11)
            n_pairs, n_rows, width = 4 * 5 // 2, space.n_conf, 1
        built = _count_builds(monkeypatch)
        parallel_apply(spec, psi, workers=2)
        assert n_rows >= 4 * max(1, kernel.BLOCK_AMPLITUDES // width)  # four row blocks or more
        assert len(built) == len(set(built)) <= n_pairs
        assert all(k <= q for _, (k, q) in built)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("space", [suite_single_spaces()[0], suite_mixture_spaces()[2]], ids=str)
    def test_prepared_apply_is_bitwise_the_spec_apply(self, space, real):
        """H prepared once gives the bits of a spec factored per call, for 1, 2 and 4 workers; no two results alias."""
        if isinstance(space, MixtureSpace):
            spec, psi = random_mixture_spec(space, seed=8, real=real), mixture_random_state(space, seed=9)
            prepare, apply = mixtures.prepare, apply_mixture_hamiltonian
        else:
            spec, psi = random_hermitian_spec(space, seed=8, real=real), random_state(space, seed=9)
            prepare, apply = kernel.prepare, apply_hamiltonian
        if real:
            psi = type(psi)(space, psi.amplitudes.real.copy())
        op = prepare(spec)
        assert op.dtype == (np.float64 if real else np.complex128)
        for workers in (1, 2, 4):
            ref = apply(spec, psi, workers=workers).amplitudes
            first, second = (apply(op, psi, workers=workers).amplitudes for _ in range(2))
            assert first.dtype == ref.dtype == psi.amplitudes.dtype
            np.testing.assert_array_equal(first, ref)
            np.testing.assert_array_equal(second, ref)
            assert not np.shares_memory(first, second)

    def test_warm_apply_builds_none(self, monkeypatch):
        space = SpaceDescriptor.fermion(3, 6)
        spec = random_hermitian_spec(space, seed=12)
        psi = random_state(space, seed=13)
        parallel_apply(spec, psi, workers=2)
        built = _count_builds(monkeypatch)
        parallel_apply(spec, psi, workers=2)
        assert built == []


def _built_pair_gathers(space, pairs) -> list:
    """Every pair gather built and kept under its own key, k > q included, as before the transposed pool."""
    tb = space.tables()
    keys = [(p // space.m + 1, p % space.m + 1) for p in pairs]
    return [tb.cached_gather(key, lambda key=key: kernel._build_gather(space, tb, *key)) for key in keys]


class TestTransposedPool:
    """E_qk served as E_kq's transpose: half the pool, and the bits of gathers built in both directions."""

    @staticmethod
    def _results(space, workers):
        """apply, the final state of propagate and the ground-state energy on a fresh copy of ``space``."""
        if isinstance(space, MixtureSpace):
            space = MixtureSpace(*(SpaceDescriptor(s.statistics, s.n, s.m) for s in (space.space_a, space.space_b)))
            spec, psi = random_mixture_spec(space, seed=20), mixture_random_state(space, seed=21)
        else:
            space = SpaceDescriptor(space.statistics, space.n, space.m)
            spec, psi = random_hermitian_spec(space, seed=20), random_state(space, seed=21)
        hpsi = parallel_apply(spec, psi, workers=workers).amplitudes
        final = propagate(spec, psi, 0.2, 0.1, workers=workers).final_state.amplitudes
        return hpsi, final, ground_state(spec, seed=3, workers=workers).energy

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.boson(3, 4),
                                       suite_mixture_spaces()[2]], ids=str)
    def test_bitwise_equal_to_gathers_built_both_ways(self, monkeypatch, space, workers):
        monkeypatch.setattr(kernel, "BLOCK_AMPLITUDES", 8)
        swapped = self._results(space, workers)
        monkeypatch.setattr(kernel, "pair_gathers", _built_pair_gathers)
        built = self._results(space, workers)
        for got, ref in zip(swapped, built):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.boson(3, 4)], ids=str)
    def test_pool_holds_half_and_a_warm_space_builds_none(self, monkeypatch, space):
        """A dense H keeps E_kq for k <= q only; densities and single terms on it then build nothing."""
        kernel.prepare(random_hermitian_spec(space, seed=17))
        m, pool = space.m, space.tables()._gather_cache
        assert set(pool) == {(k, q) for k in range(1, m + 1) for q in range(k, m + 1)}
        assert len(pool) == m * (m + 1) // 2
        built = _count_builds(monkeypatch)
        psi = random_state(space, seed=18)
        one_body_density(psi)
        two_body_density(psi)
        apply_one_body_term(m, 1, psi)
        assert built == []

    def test_cold_density_builds_the_pairs_outside_a_chain(self, monkeypatch):
        """boson(3,4) keeps E_12, E_23 and E_34 for the chain; rho builds E_13, E_14 and E_24 on each call."""
        spec = build_bose_hubbard(3, 4, 1.0, 2.0)
        kernel.prepare(spec)
        built = _count_builds(monkeypatch)
        one_body_density(random_state(spec.space, seed=19))
        assert sorted(pair for _, pair in built) == [(1, 3), (1, 4), (2, 4)]

    @pytest.mark.parametrize("space", [SpaceDescriptor.boson(4, 6), SpaceDescriptor.fermion(3, 6)], ids=str)
    def test_cold_rho2_builds_each_unordered_pair_once(self, monkeypatch, space):
        """On a cold pool rho2 builds E_kq for k < q only: E_qk is its transpose and E_kk is n_k."""
        built = _count_builds(monkeypatch)
        two_body_density(random_state(space, seed=24))
        m = space.m
        assert len(built) <= m * (m - 1) // 2
        assert sorted(pair for _, pair in built) == [(k, q) for k in range(1, m + 1) for q in range(k + 1, m + 1)]


def test_prepared_operator_rejects_a_state_of_another_space():
    """fermion(3,6) and boson(3,4) both hold 20 configurations; a mixture operator fits no single state."""
    space, mspace = SpaceDescriptor.fermion(3, 6), suite_mixture_spaces()[2]
    op = kernel.prepare(random_hermitian_spec(space, seed=1))
    mop = mixtures.prepare(random_mixture_spec(mspace, seed=2))
    with pytest.raises(SpaceMismatchError):
        apply_hamiltonian(op, random_state(SpaceDescriptor.boson(3, 4), seed=3))
    with pytest.raises(SpaceMismatchError):
        apply_hamiltonian(mop, random_state(space, seed=3))
    with pytest.raises(SpaceMismatchError):
        apply_mixture_hamiltonian(mop, mixture_random_state(suite_mixture_spaces()[1], seed=3))
    with pytest.raises(SpaceMismatchError):
        apply_mixture_hamiltonian(op, mixture_random_state(mspace, seed=3))


def test_prepared_operator_is_a_snapshot_of_the_tables():
    """A table changed after prepare changes the next spec apply, not the prepared operator."""
    space = SpaceDescriptor.fermion(3, 6)
    spec, psi = random_hermitian_spec(space, seed=1), random_state(space, seed=2)
    op = kernel.prepare(spec)
    before = apply_hamiltonian(spec, psi).amplitudes
    spec.one_body.matrix[0, 1] += 1.0
    spec.one_body.matrix[1, 0] += 1.0
    np.testing.assert_array_equal(apply_hamiltonian(op, psi).amplitudes, before)
    assert not np.allclose(apply_hamiltonian(spec, psi).amplitudes, before)


class TestGatherPool:
    """A space keeps the gathers of H's one-body pairs, and nothing else, in one pool."""

    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.boson(3, 4)], ids=str)
    def test_pool_holds_only_pair_gathers(self, space):
        """Densities and single terms keep nothing; the factored apply keeps at most its M(M+1)/2 pairs."""
        spec = random_hermitian_spec(space, seed=14)
        pool = space.tables()._gather_cache
        psi = random_state(space, seed=15)
        one_body_density(psi)
        two_body_density(psi)
        apply_two_body_term(1, 2, 2, 1, psi)
        assert pool == {}
        psi = ground_state(spec, seed=1).state
        assert psi.space.tables() is space.tables()
        pairs = set(itertools.product(range(1, space.m + 1), repeat=2))
        assert pool and pool.keys() <= pairs
        keys = set(pool)
        one_body_density(psi)
        two_body_density(psi)
        apply_two_body_term(1, 2, 2, 1, psi)
        assert set(pool) == keys

    def test_mixture_densities_keep_nothing(self):
        space = suite_mixture_spaces()[2]
        mixture_densities(mixture_random_state(space, seed=16))
        assert space.space_a.tables()._gather_cache == space.space_b.tables()._gather_cache == {}

    def test_warm_dense_one_body_apply_builds_none(self, monkeypatch):
        """boson(10,10) with a dense real h: 90 pair gathers of 92,378 rows, every one kept."""
        space = SpaceDescriptor.boson(10, 10)
        rng = np.random.default_rng(15)
        h = rng.standard_normal((10, 10))
        spec = HamiltonianSpec(space, OneBodyTable(h + h.T), TwoBodyTable.zeros(10))
        psi = StateVector(space, rng.standard_normal(space.n_conf))
        apply_hamiltonian(spec, psi)
        built = _count_builds(monkeypatch)
        apply_hamiltonian(spec, psi)
        assert built == []
