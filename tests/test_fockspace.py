"""State vectors, configuration iteration, and vector serialization."""

import math
import tracemalloc

import numpy as np
import pytest

from fockops import (
    FockError,
    SpaceDescriptor,
    SpaceMismatchError,
    apply_hamiltonian,
    apply_one_body_term,
    axpy,
    basis_state,
    dot,
    iterate_configurations,
    load_state,
    one_body_density,
    random_state,
    save_state,
    two_body_density,
    zero_state,
)
from fockops.fockspace import (FermionConfig, annihilation_table, creation_table, header_space, occupation_table,
                               ladder_table)
from conftest import random_hermitian_spec


class TestIteration:
    @pytest.mark.parametrize(
        "space",
        [
            SpaceDescriptor.fermion(2, 3),
            SpaceDescriptor.fermion(3, 7),
            SpaceDescriptor.fermion(4, 4),
            SpaceDescriptor.boson(2, 2),
            SpaceDescriptor.boson(4, 3),
            SpaceDescriptor.boson(5, 1),
        ],
    )
    def test_stream_matches_unrank_in_order(self, space):
        count = 0
        for j, cfg in iterate_configurations(space):
            count += 1
            assert j == count
            assert space.rank(cfg) == j
            ref = space.unrank(j)
            if isinstance(cfg, FermionConfig):
                assert cfg.holes == ref.holes
                assert cfg.bits == ref.bits
            else:
                assert cfg == ref
        assert count == space.n_conf

    def test_boson_n2_m2_order(self):
        space = SpaceDescriptor.boson(2, 2)
        confs = [c for _, c in iterate_configurations(space)]
        assert confs == [(2, 0), (1, 1), (0, 2)]

    def test_fermion_bitset_matches_holes(self):
        space = SpaceDescriptor.fermion(2, 4)
        for _, cfg in iterate_configurations(space):
            occ = cfg.occupations(4)
            assert sum(occ) == 2
            for i in cfg.holes:
                assert occ[i - 1] == 0


class TestDot:
    def test_norm_positivity(self):
        v = random_state(SpaceDescriptor.boson(3, 3), seed=1)
        assert dot(v, v).real >= 0
        assert abs(dot(v, v) - 1.0) < 1e-12

    def test_basis_orthonormality(self):
        space = SpaceDescriptor.fermion(2, 4)
        e1, e2 = basis_state(space, 1), basis_state(space, 2)
        assert dot(e1, e2) == 0
        assert dot(e1, e1) == 1

    def test_conjugate_symmetry(self):
        space = SpaceDescriptor.boson(3, 4)
        u = random_state(space, seed=2)
        v = random_state(space, seed=3)
        assert abs(dot(u, v) - np.conj(dot(v, u))) < 1e-14

    def test_against_fsum_reference(self):
        """High-precision summation oracle, relative error <= 1e-13."""
        space = SpaceDescriptor.boson(6, 6)
        u = random_state(space, seed=4)
        v = random_state(space, seed=5)
        terms = [complex(a.conjugate() * b) for a, b in zip(u.amplitudes, v.amplitudes)]
        ref = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        got = dot(u, v)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_space_mismatch(self):
        u = random_state(SpaceDescriptor.boson(2, 2), seed=0)
        v = random_state(SpaceDescriptor.boson(2, 3), seed=0)
        with pytest.raises(SpaceMismatchError):
            dot(u, v)


class TestAxpy:
    def test_alpha_zero_returns_y(self):
        space = SpaceDescriptor.fermion(1, 3)
        x = random_state(space, seed=1)
        y = random_state(space, seed=2)
        out = axpy(0.0, x, y)
        np.testing.assert_array_equal(out.amplitudes, y.amplitudes)

    def test_alpha_one_with_zero_y(self):
        space = SpaceDescriptor.fermion(1, 3)
        x = random_state(space, seed=1)
        out = axpy(1.0, x, zero_state(space))
        np.testing.assert_array_equal(out.amplitudes, x.amplitudes)

    def test_elementwise_reference(self):
        space = SpaceDescriptor.boson(3, 3)
        x = random_state(space, seed=6)
        y = random_state(space, seed=7)
        alpha = 0.3 - 1.2j
        out = axpy(alpha, x, y)
        ref = np.array([yi + alpha * xi for xi, yi in zip(x.amplitudes, y.amplitudes)])
        # vectorized complex multiply may differ from the scalar path by an ulp
        np.testing.assert_allclose(out.amplitudes, ref, rtol=1e-15, atol=0)

    def test_out_of_place_leaves_inputs(self):
        space = SpaceDescriptor.boson(2, 2)
        x = random_state(space, seed=8)
        y = random_state(space, seed=9)
        xa, ya = x.amplitudes.copy(), y.amplitudes.copy()
        axpy(2.0, x, y)
        np.testing.assert_array_equal(x.amplitudes, xa)
        np.testing.assert_array_equal(y.amplitudes, ya)

    def test_in_place_updates_y(self):
        space = SpaceDescriptor.boson(2, 2)
        x = basis_state(space, 1)
        y = zero_state(space)
        out = axpy(3.0, x, y, in_place=True)
        assert out is y
        assert y.amplitudes[0] == 3.0


class TestConstructors:
    def test_random_state_reproducible(self):
        space = SpaceDescriptor.fermion(3, 6)
        a = random_state(space, seed=42)
        b = random_state(space, seed=42)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_shape_checked(self):
        from fockops.fockspace import StateVector

        with pytest.raises(FockError):
            StateVector(SpaceDescriptor.boson(2, 2), np.zeros(5, dtype=complex))


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["binary", "json"])
    def test_roundtrip(self, tmp_path, fmt):
        space = SpaceDescriptor.fermion(2, 5)
        psi = random_state(space, seed=11)
        path = tmp_path / f"vec.{fmt}"
        save_state(psi, path, fmt=fmt)
        back = load_state(path)
        assert back.space == space
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)

    def test_binary_header_layout(self, tmp_path):
        space = SpaceDescriptor.boson(2, 2)
        psi = basis_state(space, 2)
        path = tmp_path / "vec.fvec"
        save_state(psi, path)
        raw = path.read_bytes()
        assert raw[:8] == b"FOCKVEC1"
        assert raw[8] == 1  # boson statistics byte
        assert len(raw) == 8 + 1 + 24 + 16 * space.n_conf

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.fvec"
        path.write_bytes(b"NOTAVEC!" + b"\0" * 40)
        with pytest.raises(Exception):
            load_state(path)


def test_tables_match_iteration():
    """The cached occupation table rows are the J-ordered configurations."""
    for space in (SpaceDescriptor.fermion(3, 6), SpaceDescriptor.boson(3, 4)):
        tb = space.tables()
        for j, cfg in iterate_configurations(space):
            occ = cfg.occupations(space.m) if isinstance(cfg, FermionConfig) else cfg
            np.testing.assert_array_equal(tb.occ[j - 1], occ)


def test_table_build_keeps_only_completable_counts():
    """fermion(46, 48) has 1,128 rows; keeping every particle count at every level would need 2^47 rows."""
    tracemalloc.start()
    try:
        occ = occupation_table("fermion", 46, 48)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.shape == (1128, 48)
    assert peak < 4 * occ.nbytes


@pytest.mark.parametrize("statistics,n,m", [("boson", 9, 9), ("fermion", 8, 16)])
def test_table_build_copies_each_level_in_pieces(statistics, n, m):
    """Peak under 2.6 finished tables; gathering a level's rows in one piece made it about 3.1."""
    tracemalloc.start()
    try:
        occ = occupation_table(statistics, n, m)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    space = SpaceDescriptor.fermion(n, m) if statistics == "fermion" else SpaceDescriptor.boson(n, m)
    assert occ.shape == (space.n_conf, m)
    assert (occ.sum(axis=1) == n).all() and occ.max() <= (1 if statistics == "fermion" else n)
    rows = [tuple(row) for row in occ.tolist()]
    assert rows == sorted(set(rows), reverse=True)  # every vector once, in descending lexicographic order
    assert peak < 2.6 * occ.nbytes


def test_level_counts_grow_with_particles_not_their_square():
    """boson(20000, 2): a table over (particles left, occupation) pairs would need 3.2 GB."""
    tracemalloc.start()
    try:
        occ, counts = occupation_table("boson", 20000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.shape == (20001, 2)
    assert counts.shape == (3, 20001)
    assert counts[2].sum() == 20001 and counts[1].sum() == 20001  # N in both orbitals; any 0..N in the last one
    assert peak < 8 * occ.nbytes


@pytest.mark.parametrize("statistics,n,m,n_amplitudes,loads", [
    ("boson", 600000, 2, None, True),         # 600001 configurations, tables of 3.0M entries
    ("boson", 600000, 2, 600001, True),
    ("boson", 600000, 2, 1, False),           # the file holds one amplitude, not N_conf
    # one configuration, so 2M + 1 table entries: the space loads; load_integrals refuses its M^2 one-body table
    ("fermion", 2**20, 2**20, None, True),
    ("boson", 2**25, 2, None, False),         # tables of (2^25 + 1) 5 entries, beyond MAX_SPACE_TABLE
    ("fermion", 20, 40, None, False),         # 1.4e11 configurations
    ("fermion", 1, 2**21, 2**21, True),       # N_conf = M = 2^21, vouched for by the amplitudes
])
def test_header_table_allowance(statistics, n, m, n_amplitudes, loads):
    """N_conf may not exceed the amplitudes in the file, or for an integral file MAX_SPACE_TABLE / (2M + 1)."""
    if loads:
        assert header_space(statistics, n, m, n_amplitudes, "f", exact=False).n == n
    else:
        with pytest.raises(FockError, match="too large"):
            header_space(statistics, n, m, n_amplitudes, "f", exact=False)


class TestCreationTable:
    """U[q-1, j]: the address of the j-th configuration of N - 1 particles plus one in q, from its running sum, and b_q's weight there."""

    @pytest.mark.parametrize("space", [
        SpaceDescriptor.fermion(0, 3), SpaceDescriptor.fermion(1, 1), SpaceDescriptor.fermion(1, 4),
        SpaceDescriptor.fermion(3, 3), SpaceDescriptor.fermion(3, 7), SpaceDescriptor.fermion(6, 12),
        SpaceDescriptor.boson(0, 2), SpaceDescriptor.boson(4, 1), SpaceDescriptor.boson(1, 3),
        SpaceDescriptor.boson(3, 4), SpaceDescriptor.boson(5, 5),
    ], ids=str)
    def test_matches_the_closed_form_rank(self, space):
        """Against combinadics: unrank j in the smaller space, add the particle, rank it here; b_q's weight is sqrt(m_q + 1) or (-1)^{S_q}."""
        table, weight = creation_table(space.statistics, space.n, space.m)
        lower = SpaceDescriptor(space.statistics, space.n - 1, space.m) if space.n else None
        assert table.shape == weight.shape == (space.m, lower.n_conf if lower else 0)
        assert table.dtype == np.int32
        ref, ref_weight = np.full(table.shape, -1), np.zeros(table.shape)
        for j in range(table.shape[1]):
            occ = list(lower.occupations_at(j + 1))
            for q in range(space.m):
                if space.statistics == "boson" or occ[q] == 0:
                    added = occ[:q] + [occ[q] + 1] + occ[q + 1:]
                    config = added if space.statistics == "boson" else [p + 1 for p, v in enumerate(added) if v == 0]
                    ref[q, j] = space.rank(config) - 1
                    ref_weight[q, j] = np.sqrt(occ[q] + 1) if space.statistics == "boson" else (-1) ** sum(occ[:q])
        np.testing.assert_array_equal(table, ref)
        np.testing.assert_array_equal(weight, ref_weight)
        assert not np.signbit(weight[table < 0]).any()  # +0, never -0, where the table holds -1

    @pytest.mark.parametrize("n, m", [(0, 3), (1, 1), (2, 3), (3, 3), (3, 4), (4, 7), (5, 7), (7, 12)])
    def test_annihilation_table_matches_the_closed_form_rank(self, n, m):
        """D[q-1, j]: unrank j among N + 1 fermions, remove the particle in q, rank it here; -1 where q is empty.

        b†_q's weight is (-1)^{S_q}, S_q the particles below q, and 0 where D is -1.
        """
        space, upper = SpaceDescriptor.fermion(n, m), SpaceDescriptor.fermion(min(n + 1, m), m)
        table, weight = annihilation_table(n, m)
        assert table.shape == weight.shape == (m, upper.n_conf if n < m else 0) and table.dtype == np.int32
        ref, ref_weight = np.full(table.shape, -1), np.zeros(table.shape)
        for j in range(table.shape[1]):
            occ = upper.occupations_at(j + 1)
            for q in range(m):
                if occ[q]:
                    ref[q, j] = space.rank([p + 1 for p, v in enumerate(occ) if v == 0 or p == q]) - 1
                    ref_weight[q, j] = (-1) ** sum(occ[:q])
        np.testing.assert_array_equal(table, ref)
        np.testing.assert_array_equal(weight, ref_weight)
        assert not np.signbit(weight[table < 0]).any()

    @pytest.mark.parametrize("space", [
        SpaceDescriptor.fermion(3, 6), SpaceDescriptor.fermion(4, 7), SpaceDescriptor.fermion(9, 10),
        SpaceDescriptor.fermion(10, 10), SpaceDescriptor.boson(9, 9), SpaceDescriptor.boson(5, 1),
    ], ids=str)
    def test_ladder_table_is_never_larger_than_the_space(self, space):
        """Fermions above half filling take the hole picture; M x columns never exceeds N_conf x M."""
        table, weight, holes = ladder_table(space)
        assert holes == (space.statistics == "fermion" and 2 * space.n > space.m)
        if holes:
            ref = annihilation_table(space.n, space.m)
        else:
            ref = creation_table(space.statistics, space.n, space.m)
        np.testing.assert_array_equal(table, ref[0])
        np.testing.assert_array_equal(weight, ref[1])
        assert table.shape[1] <= space.n_conf

    @pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.fermion(4, 6),
                                       SpaceDescriptor.boson(3, 3)], ids=str)
    def test_the_ladder_table_is_kept_and_built_once(self, space):
        """The space's tables keep its ladder table, built by the first gather, and the next one, built by the first pair part.

        Applies and densities reuse both.  Besides the occupation table and
        the gather pool they keep nothing, so no rank-term, prefix or second
        occupation table is left.
        """
        psi = random_state(space, seed=1)
        tb = space.tables()
        assert set(vars(tb)) == {"space", "occ", "_gather_cache"}
        apply_one_body_term(1, 2, psi)
        assert "ladder" in vars(tb) and "next_ladder" not in vars(tb)
        ladder = tb.ladder
        apply_hamiltonian(random_hermitian_spec(space, seed=2), psi)
        next_ladder = tb.next_ladder
        one_body_density(psi)
        two_body_density(psi)
        assert set(vars(tb)) == {"space", "occ", "ladder", "next_ladder", "_gather_cache"}
        assert tb.ladder is ladder and tb.next_ladder is next_ladder
        neighbour = SpaceDescriptor(space.statistics, space.n + (1 if ladder[2] else -1), space.m)
        for got, ref in zip((*ladder, *next_ladder), (*ladder_table(space), *ladder_table(neighbour))):
            np.testing.assert_array_equal(got, ref)
