"""The factored H|psi> against the dense oracle, and the pair gathers against the occupation algebra."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        src, pref, empty, got_act = kernel._build_gather(space, space.tables(), k, q)
        np.testing.assert_array_equal(got_act, act)
        assert empty is None
        np.testing.assert_array_equal(src, [ref[row][0] for row in act])
        np.testing.assert_array_equal(pref, [ref[row][1] for row in act])


@given(spaces())
@example(SpaceDescriptor.fermion(0, 3))
@example(SpaceDescriptor.boson(0, 2))
@example(SpaceDescriptor.fermion(1, 1))
@example(SpaceDescriptor.boson(4, 1))
@example(SpaceDescriptor.fermion(1, 4))
@example(SpaceDescriptor.boson(1, 3))
@example(SpaceDescriptor.fermion(4, 4))
@example(SpaceDescriptor.fermion(3, 7))
@example(SpaceDescriptor.fermion(5, 7))
@example(SpaceDescriptor.fermion(6, 9))
@settings(max_examples=40, deadline=None)
def test_gathers_equal_the_dense_pair_at_the_edges(space):
    """E_kq's gather is the oracle's b†_k b_q; the examples are N = 0, M = 1, N = 1, N = M and the hole picture (2N > M)."""
    for k, q in itertools.product(range(1, space.m + 1), repeat=2):
        src, pref, _, act = kernel._build_gather(space, space.tables(), k, q)
        got = np.zeros((space.n_conf, space.n_conf))
        got[act, src] = pref
        assert np.abs(got - build_dense((("a", q), ("c", k)), space)).max(initial=0.0) <= TOL, (k, q)


def _pair_spaces() -> list[SpaceDescriptor]:
    """Every fermion N = 0..M for M <= 7, so 2N = M, 2N = M + 1 and N + 2 > M among them, and bosons with N, M <= 4."""
    return ([SpaceDescriptor.fermion(n, m) for m in range(1, 8) for n in range(m + 1)]
            + [SpaceDescriptor.boson(n, m) for m in range(1, 5) for n in range(5)])


def _dense_tables(rng, m):
    """Dense complex h and W, neither Hermitian: every entry of W stored, coincident indices included."""
    return OneBodyTable(_complex(rng, (m, m))), TwoBodyTable.from_dense(_complex(rng, (m,) * 4))


@pytest.mark.parametrize("space", _pair_spaces(), ids=str)
def test_pair_part_matches_the_oracle(space):
    """Dense complex W through prepare, the one-shot apply, and a mixture with it on species A, then on species B.

    The mixture's other species is fermion(2,3), above half filling, with
    a dense h, no W and a dense complex inter-species table.
    """
    rng = np.random.default_rng(space.n_conf + 10 * space.m + (space.statistics == "boson"))
    spec = HamiltonianSpec(space, *_dense_tables(rng, space.m))
    psi = random_state(space, seed=1)
    dense = build_dense(spec)
    for op in (kernel.prepare(spec), spec):
        _assert_matches(apply_hamiltonian(op, psi).amplitudes, dense, psi.amplitudes)
    other = SpaceDescriptor.fermion(2, 3)
    other_spec = HamiltonianSpec(other, OneBodyTable(_complex(rng, (3, 3))), TwoBodyTable.zeros(3))
    for a, b in ((spec, other_spec), (other_spec, spec)):
        mspace = MixtureSpace(a.space, b.space)
        shape = (a.space.m, a.space.m, b.space.m, b.space.m)
        mspec = MixtureHamiltonianSpec(mspace, a, b, InterSpeciesTable(_complex(rng, shape)))
        mpsi = mixture_random_state(mspace, seed=2)
        dense = build_dense(mspec)
        for op in (mixtures.prepare(mspec), mspec):
            _assert_matches(apply_mixture_hamiltonian(op, mpsi).amplitudes, dense, mpsi.amplitudes)


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
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans()):  # one amplitude per block: every species with N_conf > 1 is swept, not dense
            patch.setattr(kernel, "BLOCK_AMPLITUDES", 1)
        got = apply_mixture_hamiltonian(mspec, psi).amplitudes
    _assert_matches(got, build_dense(mspec), psi.amplitudes)


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


def _hermitian_tables(rng, m, real, sparse):
    """Random Hermitian h and W, every entry kept or (``sparse``) about a third, in Hermitian pairs."""
    a = _complex(rng, (m, m))
    h = 0.5 * (a + a.conj().T)
    t = _complex(rng, (m,) * 4)
    w = 0.5 * (t + np.conj(np.transpose(t, (2, 3, 0, 1))))
    if sparse:
        keep = rng.random((m, m)) < 0.3
        h = h * (keep | keep.T)
        keep = rng.random((m,) * 4) < 0.3
        w = w * (keep | np.transpose(keep, (2, 3, 0, 1)))
    if real:
        h, w = h.real, w.real
    return OneBodyTable(h), TwoBodyTable.from_dense(w)


def _assert_stacked_matches_sweeps(spec, psi, workers=1):
    """H prepared (stacked parts) against the same spec swept pair by pair, to TOL; returns the stacked result."""
    op = kernel.prepare(spec)
    assert isinstance(op, kernel.Stacked)
    got = apply_hamiltonian(op, psi, workers=workers).amplitudes
    ref = apply_hamiltonian(spec, psi, workers=workers).amplitudes
    assert got.dtype == ref.dtype
    assert np.linalg.norm(got - ref) <= TOL * max(1.0, np.linalg.norm(ref))
    return got


class TestStackedParts:
    """The prepared operator's stacked gathers against the per-pair sweeps of a spec applied once."""

    @given(spaces(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_stacked_apply_matches_the_sweeps(self, space, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h, w = _hermitian_tables(rng, space.m, data.draw(st.booleans()), data.draw(st.booleans()))
        psi = random_state(space, seed=data.draw(st.integers(0, 100)))
        if data.draw(st.booleans()):
            psi = StateVector(space, psi.amplitudes.real.copy())
        _assert_stacked_matches_sweeps(HamiltonianSpec(space, h, w), psi)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(0, 4), SpaceDescriptor.boson(0, 3),
                                       SpaceDescriptor.fermion(4, 4), SpaceDescriptor.fermion(1, 1),
                                       SpaceDescriptor.boson(3, 1)], ids=str)
    def test_spaces_where_no_pair_moves_a_particle(self, space, real):
        """N = 0, fermions with N = M, and M = 1: no hop acts, and H = 0 has not even a diagonal."""
        rng = np.random.default_rng(3)
        psi = random_state(space, seed=4)
        for sparse in (False, True):
            _assert_stacked_matches_sweeps(HamiltonianSpec(space, *_hermitian_tables(rng, space.m, real, sparse)), psi)
        zero = HamiltonianSpec(space, OneBodyTable(np.zeros((space.m, space.m))), TwoBodyTable.zeros(space.m))
        assert not _assert_stacked_matches_sweeps(zero, psi).any()

    @pytest.mark.parametrize("two_body", [False, True], ids=["one-body", "two-body"])
    def test_prepare_holds_each_entry_once(self, two_body):
        """fermion(4,24), dense h: N_conf + the acting rows of every hop and return are stacked, and nothing else stays.

        The traced peak of prepare stays within 1.5x the stacked arrays it
        returns (the sums and the pair table): a sorted or permuted copy of
        the entries, or the pool keeping H's gathers beside them, reads 2x
        or more.
        """
        space = SpaceDescriptor.fermion(4, 24)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((24, 24))
        w = TwoBodyTable.zeros(24)
        if two_body:
            idx = np.array([(0, 1, 1, 2), (1, 2, 0, 1), (2, 2, 6, 0), (6, 0, 2, 2), (8, 4, 23, 12), (23, 12, 8, 4)])
            w = TwoBodyTable(24, idx, np.repeat(rng.standard_normal(3), 2))
        spec = HamiltonianSpec(space, OneBodyTable(a + a.T), w)
        space.tables()  # the tables are built before tracing
        tracemalloc.start()
        try:
            op = kernel.prepare(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.tables()._gather_cache == {}
        assert (op.pairs is not None) == two_body
        co = kernel.factor_coefficients(space, spec.one_body, spec.two_body)
        acting = sum(kernel._build_gather(space, space.tables(), p // 24 + 1, p % 24 + 1)[3].size
                     for p in co.hop_pairs)
        acting += sum(g[3].size for g in kernel.pair_returns(*kernel.pair_table(space, co.rows)))
        assert sum(s.src.size for s in op.sums) == space.n_conf + acting
        stacked = sum(s.src.nbytes + s.weight.nbytes + s.rows.nbytes for s in op.sums)
        if two_body:
            assert op.pairs.rows == [] and op.pairs.src.shape == (co.cols.size, math.comb(24, 2))
            stacked += op.pairs.src.nbytes + op.pairs.weight.nbytes
        assert peak <= 1.5 * stacked

    @pytest.mark.parametrize("case", ["hubbard-chain", "hole-picture"])
    def test_blocks_hold_each_row_once_at_its_width(self, case):
        """The sums are blocks of rows of one width, each entry stored once, summed alike for any worker count.

        The disordered Bose-Hubbard chain of the hubbard-gs benchmark,
        boson(9,9), has one-body hops alone, and its widest groups are cut
        into several blocks; fermion(7,12) with sparse h and W runs in the
        hole picture, through a pair part, and its rows have 18 widths.
        """
        rng = np.random.default_rng(11)
        if case == "hubbard-chain":
            spec = build_bose_hubbard(9, 9, 1.0, 2.0)
            spec.one_body.matrix[np.diag_indices(9)] = rng.uniform(-0.5, 0.5, 9)
        else:
            space = SpaceDescriptor.fermion(7, 12)
            a = _complex(rng, (12, 12)) * (rng.random((12, 12)) < 0.2)
            t = _complex(rng, (12,) * 4) * (rng.random((12,) * 4) < 0.002)
            spec = HamiltonianSpec(space, OneBodyTable(a + a.conj().T),
                                   TwoBodyTable.from_dense(t + np.conj(np.transpose(t, (2, 3, 0, 1)))))
            assert kernel.hole_picture(space)
        space, n = spec.space, spec.space.n_conf
        op = kernel.prepare(spec)
        co = kernel.factor_coefficients(space, spec.one_body, spec.two_body)
        width = np.ones(n, dtype=np.intp)  # the diagonal, then every hop and return acting on the row
        for p in co.hop_pairs:
            gather = kernel._build_gather(space, space.tables(), p // space.m + 1, p % space.m + 1)
            width += np.bincount(gather[3], minlength=n)
        if op.pairs is not None:
            for g in kernel.pair_returns(*kernel.pair_table(space, co.rows)):
                width += np.bincount(g[3], minlength=n)
        assert (op.pairs is None) == (case == "hubbard-chain")
        rows = np.concatenate([s.rows for s in op.sums])
        np.testing.assert_array_equal(np.sort(rows), np.arange(n))
        for s in op.sums:
            assert s.src.shape == s.weight.shape == (s.src.shape[0], s.rows.size)
            assert (width[s.rows] == s.src.shape[0]).all() and (np.diff(s.rows) > 0).all()
            assert s.src.size <= kernel.BLOCK_AMPLITUDES or s.rows.size == 1
        assert sum(s.src.size for s in op.sums) == width.sum()  # N_conf + the acting rows: each entry once
        widths = [s.src.shape[0] for s in op.sums]
        assert widths == sorted(widths, reverse=True) and len(set(widths)) > 10
        assert (len(widths) > len(set(widths))) == (case == "hubbard-chain")  # groups cut into blocks
        psi = random_state(space, seed=12)
        serial = _assert_stacked_matches_sweeps(spec, psi)
        for workers in (1, 2, 4, 8):
            np.testing.assert_array_equal(apply_hamiltonian(op, psi, workers=workers).amplitudes, serial)

    def test_two_row_blocks_give_the_same_bits_for_any_worker_count(self):
        """boson(9,9): 24,310 amplitudes, more than one row block and many blocks of sums."""
        space = SpaceDescriptor.boson(9, 9)
        assert space.n_conf > kernel.BLOCK_AMPLITUDES
        rng = np.random.default_rng(5)
        h = np.diag(rng.standard_normal(9)) - np.eye(9, k=1) - np.eye(9, k=-1)
        entries = [(1, 2, 2, 3), (2, 5, 4, 4), (3, 3, 7, 1), (9, 1, 8, 2)]
        w = np.zeros((9,) * 4, dtype=np.complex128)
        for (k, s, q, l), v in zip(entries, _complex(rng, len(entries))):
            w[k - 1, s - 1, q - 1, l - 1] += v
            w[q - 1, l - 1, k - 1, s - 1] += np.conj(v)
        spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.from_dense(w))
        psi = random_state(space, seed=6)
        op = kernel.prepare(spec)
        assert len(kernel._pair_blocks(op.pairs, (space.n_conf,))) > 1 and len(op.sums) > 1
        serial = _assert_stacked_matches_sweeps(spec, psi)
        np.testing.assert_array_equal(_assert_stacked_matches_sweeps(spec, psi, workers=2), serial)


def test_cold_dense_apply_stays_below_the_e_pair_images():
    """boson(9,9), dense complex h and W, applied once on cold tables: the traced peak stays below M^2 N_conf complex amplitudes.

    That is the size of the images E_sl psi of the E_kq E_sl - δ_qs E_kl
    factoring (31.5 MB), which peaked at 91 MB.  The pair part holds 45 x
    6,435 images of 7 particles instead.
    """
    space = SpaceDescriptor.boson(9, 9)
    spec, psi = random_hermitian_spec(space, seed=3), random_state(space, seed=4)
    tracemalloc.start()
    try:
        apply_hamiltonian(spec, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < space.m ** 2 * space.n_conf * 16


class TestRowBlocks:
    """Several blocks per vector through the contraction path: the block size is patched down."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernel, "BLOCK_AMPLITUDES", 5)

    @pytest.mark.parametrize("space", [suite_single_spaces()[0], *suite_mixture_spaces()[::2]], ids=str)
    def test_workers_bitwise_equal_through_the_contraction(self, space):
        """F(2,3) x F(2,3) has no N + 2 space: its one pair part is the inter-species one, whose table holds weight-0 slots."""
        if space == suite_mixture_spaces()[0]:
            spec, psi = random_mixture_spec(space, seed=8), mixture_random_state(space, seed=9)
            assert any(p.axis == 1 and p.row_axis == 0 for p in mixtures.prepare(spec).pairs)
        elif isinstance(space, MixtureSpace):
            spec, psi = random_mixture_spec(space, seed=8), mixture_random_state(space, seed=9)
            assert kernel.factor_species(space.space_a, spec.spec_a.one_body, spec.spec_a.two_body).pairs
        else:
            spec, psi = random_hermitian_spec(space, seed=8), random_state(space, seed=9)
            assert kernel.factor_species(space, spec.one_body, spec.two_body).pairs
        ref = parallel_apply(spec, psi, workers=1).amplitudes
        for workers in (2, 4):
            np.testing.assert_array_equal(parallel_apply(spec, psi, workers=workers).amplitudes, ref)
        _assert_matches(ref, build_dense(spec), psi.amplitudes)

    @pytest.mark.parametrize("space", [suite_single_spaces()[0], *suite_mixture_spaces()[::2]], ids=str)
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
    @pytest.mark.parametrize("space", [suite_single_spaces()[0], *suite_mixture_spaces()[::2]], ids=str)
    def test_prepared_apply_agrees_with_the_spec_apply(self, space, real):
        """H prepared once gives the same bits for 1, 2 and 4 workers and on every call; no two results alias.

        A mixture's prepared operator is the one a spec is factored into per
        call (sweeps, or a species' dense matrix when it fits in a block),
        so its bits are the spec's; a single species sums its stacked parts
        in another order, within TOL of the spec.
        """
        mixture = isinstance(space, MixtureSpace)
        if mixture:
            spec, psi = random_mixture_spec(space, seed=8, real=real), mixture_random_state(space, seed=9)
            prepare, apply = mixtures.prepare, apply_mixture_hamiltonian
        else:
            spec, psi = random_hermitian_spec(space, seed=8, real=real), random_state(space, seed=9)
            prepare, apply = kernel.prepare, apply_hamiltonian
        if real:
            psi = type(psi)(space, psi.amplitudes.real.copy())
        op = prepare(spec)
        assert op.dtype == (np.float64 if real else np.complex128)
        serial = apply(op, psi).amplitudes
        for workers in (1, 2, 4):
            ref = apply(spec, psi, workers=workers).amplitudes
            first, second = (apply(op, psi, workers=workers).amplitudes for _ in range(2))
            assert first.dtype == ref.dtype == psi.amplitudes.dtype
            np.testing.assert_array_equal(first, serial)
            np.testing.assert_array_equal(second, serial)
            assert not np.shares_memory(first, second)
            if mixture:
                np.testing.assert_array_equal(first, ref)
            else:
                assert np.linalg.norm(first - ref) <= TOL * np.linalg.norm(ref)

    def test_warm_apply_builds_none(self, monkeypatch):
        space = SpaceDescriptor.fermion(3, 6)
        spec = random_hermitian_spec(space, seed=12)
        psi = random_state(space, seed=13)
        parallel_apply(spec, psi, workers=2)
        built = _count_builds(monkeypatch)
        parallel_apply(spec, psi, workers=2)
        assert built == []


def _sparse_mixture_spec(mspace, seed, real):
    """Random tables, neither Hermitian, sparse enough for the oracle at M = 129.

    Each species' h keeps about four entries per orbital and its W about
    20; the inter-species table keeps about 20.  ``real`` keeps real parts.
    """
    rng = np.random.default_rng(seed)
    cast = (lambda a: a.real) if real else (lambda a: a)  # noqa: E731

    def species(space):
        m = space.m
        h = _complex(rng, (m, m)) * (rng.random((m, m)) < 4 / m)
        keys = sorted({tuple(map(int, row)) for row in rng.integers(0, m, size=(20, 4))})
        w = TwoBodyTable.from_entries(m, [(k + 1, s + 1, q + 1, l + 1, v)
                                          for (k, s, q, l), v in zip(keys, cast(_complex(rng, len(keys))))])
        return HamiltonianSpec(space, OneBodyTable(cast(h)), w)

    sa, sb = mspace.space_a, mspace.space_b
    x = np.zeros((sa.m, sa.m, sb.m, sb.m), dtype=np.complex128)
    x[tuple(rng.integers(0, x.shape, size=(20, 4)).T)] = _complex(rng, 20)
    return MixtureHamiltonianSpec(mspace, species(sa), species(sb), InterSpeciesTable(cast(x)))


class TestDenseSpecies:
    """A species with N_conf² <= BLOCK_AMPLITUDES is one dense matrix; a larger one keeps sweeping."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("space, dense", [
        pytest.param(MixtureSpace(SpaceDescriptor.fermion(2, 17), SpaceDescriptor.boson(2, 3)), [(6, 1)],
                     id="F(2,17)xB(2,3)"),
        pytest.param(MixtureSpace(SpaceDescriptor.boson(2, 3), SpaceDescriptor.fermion(2, 17)), [(6, 0)],
                     id="B(2,3)xF(2,17)"),
        pytest.param(MixtureSpace(SpaceDescriptor.fermion(1, 128), SpaceDescriptor.fermion(1, 2)),
                     [(128, 0), (2, 1)], id="F(1,128)xF(1,2)"),
        pytest.param(MixtureSpace(SpaceDescriptor.fermion(1, 129), SpaceDescriptor.fermion(1, 2)), [(2, 1)],
                     id="F(1,129)xF(1,2)"),
    ])
    def test_both_sides_of_the_cut_match_the_oracle(self, space, dense, real):
        """136 = F(2,17) and 129 configurations sweep; 6, 2 and 128 are dense, in float64 for a real spec."""
        spec = _sparse_mixture_spec(space, seed=space.n_conf_total, real=real)
        op = mixtures.prepare(spec)
        assert [(len(mat), axis) for mat, axis in op.dense] == dense
        assert all(mat.dtype == (np.float64 if real else np.complex128) for mat, _ in op.dense)
        psi = mixture_random_state(space, seed=3)
        if real:
            psi = type(psi)(space, psi.amplitudes.real.copy())
        ref = apply_mixture_hamiltonian(op, psi, workers=1).amplitudes
        assert ref.dtype == psi.amplitudes.dtype
        for workers in (2, 4):
            np.testing.assert_array_equal(apply_mixture_hamiltonian(op, psi, workers=workers).amplitudes, ref)
        _assert_matches(ref, build_dense(spec), psi.amplitudes)


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
        """A dense H applied once keeps its hops E_kq for k < q only; densities on it then build nothing.

        Its diagonal is read off the occupation table and W goes through the
        pair table, so no E_kk is built.  A single term builds its own
        gather and leaves the pool's keys and objects as they were.
        """
        apply_hamiltonian(random_hermitian_spec(space, seed=17), random_state(space, seed=16))
        m, pool = space.m, space.tables()._gather_cache
        assert set(pool) == {(k, q) for k in range(1, m + 1) for q in range(k + 1, m + 1)}
        assert len(pool) == m * (m - 1) // 2
        kept = dict(pool)
        built = _count_builds(monkeypatch)
        psi = random_state(space, seed=18)
        one_body_density(psi)
        two_body_density(psi)
        assert built == []
        apply_one_body_term(m, 1, psi)
        assert built == [(space, (m, 1))]
        assert pool.keys() == kept.keys() and all(pool[key] is kept[key] for key in kept)

    def test_density_after_a_chain_builds_no_pair(self, monkeypatch):
        """boson(3,4) applied once keeps E_12, E_23 and E_34; rho reads the ladder table, builds nothing and keeps them."""
        spec = build_bose_hubbard(3, 4, 1.0, 2.0)
        apply_hamiltonian(spec, random_state(spec.space, seed=18))
        pool = spec.space.tables()._gather_cache
        kept = dict(pool)
        assert sorted(key for key in kept if key[0] != key[1]) == [(1, 2), (2, 3), (3, 4)]
        built = _count_builds(monkeypatch)
        one_body_density(random_state(spec.space, seed=19))
        assert built == []
        assert pool.keys() == kept.keys() and all(pool[key] is kept[key] for key in kept)

    @pytest.mark.parametrize("space", [SpaceDescriptor.boson(4, 6), SpaceDescriptor.fermion(3, 6)], ids=str)
    def test_cold_densities_build_no_pair(self, monkeypatch, space):
        """On a cold pool rho and rho2 build no gather and leave the pool empty."""
        built = _count_builds(monkeypatch)
        psi = random_state(space, seed=24)
        one_body_density(psi)
        two_body_density(psi)
        assert built == []
        assert space.tables()._gather_cache == {}


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


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_apply_takes_a_prepared_operator_of_either_kind(workers):
    """The state's kind picks the engine: a prepared operator gives the spec's result bitwise."""
    space, mspace = SpaceDescriptor.fermion(3, 6), suite_mixture_spaces()[2]
    spec, mspec = random_hermitian_spec(space, seed=1), random_mixture_spec(mspace, seed=2)
    psi, mpsi = random_state(space, seed=3), mixture_random_state(mspace, seed=4)
    np.testing.assert_array_equal(parallel_apply(kernel.prepare(spec), psi, workers).amplitudes,
                                  kernel.apply_hamiltonian(kernel.prepare(spec), psi).amplitudes)
    np.testing.assert_array_equal(parallel_apply(mixtures.prepare(mspec), mpsi, workers).amplitudes,
                                  apply_mixture_hamiltonian(mspec, mpsi).amplitudes)
    with pytest.raises(SpaceMismatchError):
        parallel_apply(mixtures.prepare(mspec), psi, workers)


def test_single_species_apply_refuses_a_mixture_state():
    """An operator and a state share a space, but the engine of the other kind takes neither.

    A mixture spec, prepared or not, and a mixture state go to the
    single-species engine; a single-species spec, prepared or not, and a
    single-species state go to the mixture engine.
    """
    mspace, space = suite_mixture_spaces()[2], SpaceDescriptor.fermion(3, 6)
    mspec, mpsi = random_mixture_spec(mspace, seed=2), mixture_random_state(mspace, seed=4)
    spec, psi = random_hermitian_spec(space, seed=1), random_state(space, seed=3)
    for engine, spec_, prepare, state in ((apply_hamiltonian, mspec, mixtures.prepare, mpsi),
                                          (apply_mixture_hamiltonian, spec, kernel.prepare, psi)):
        for op in (prepare(spec_), spec_):
            assert op.space == state.space
            with pytest.raises(SpaceMismatchError):
                engine(op, state)


def test_prepared_operator_is_a_snapshot_of_the_tables():
    """A table changed after prepare changes the next spec apply, not the prepared operator."""
    space = SpaceDescriptor.fermion(3, 6)
    spec, psi = random_hermitian_spec(space, seed=1), random_state(space, seed=2)
    op = kernel.prepare(spec)
    before = apply_hamiltonian(op, psi).amplitudes
    spec.one_body.matrix[0, 1] += 1.0
    spec.one_body.matrix[1, 0] += 1.0
    np.testing.assert_array_equal(apply_hamiltonian(op, psi).amplitudes, before)
    assert not np.allclose(apply_hamiltonian(spec, psi).amplitudes, before)


class TestGatherPool:
    """A space keeps the gathers of H's one-body pairs, and nothing else, in one pool."""

    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.boson(3, 4)], ids=str)
    def test_pool_holds_only_pair_gathers(self, space):
        """Densities, single terms and a solve's stacked operator keep nothing; a spec's apply keeps its pairs."""
        spec = random_hermitian_spec(space, seed=14)
        pool = space.tables()._gather_cache
        psi = random_state(space, seed=15)
        one_body_density(psi)
        two_body_density(psi)
        apply_two_body_term(1, 2, 2, 1, psi)
        assert pool == {}
        psi = ground_state(spec, seed=1).state
        assert psi.space.tables() is space.tables()
        assert pool == {}
        apply_hamiltonian(spec, psi)
        pairs = {(k, q) for k in range(1, space.m + 1) for q in range(k, space.m + 1)}
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
