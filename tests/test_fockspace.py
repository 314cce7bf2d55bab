"""State vectors, configuration iteration, and vector serialization."""

import math
import tracemalloc

import numpy as np
import pytest

from fockops import (
    FockError,
    SpaceDescriptor,
    SpaceMismatchError,
    axpy,
    basis_state,
    dot,
    iterate_configurations,
    load_state,
    random_state,
    save_state,
    zero_state,
)
from fockops.fockspace import FermionConfig, header_space, occupation_table


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
        # rank identity: 1 + one rank term per orbital but the last recovers J
        remaining = space.n - tb.prefix[:, :-2]
        orbitals = np.arange(space.m - 1)
        terms = tb.rank_counts[orbitals, remaining - tb.occ[:, :-1]] - tb.rank_floor[orbitals, remaining]
        j_from_table = 1 + terms.sum(axis=1)
        np.testing.assert_array_equal(j_from_table, np.arange(1, space.n_conf + 1))


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


def test_rank_counts_grow_with_particles_not_their_square():
    """boson(20000, 2): a rank table over (particles left, occupation) pairs would need 3.2 GB."""
    tracemalloc.start()
    try:
        occ, rank_counts, rank_floor = occupation_table("boson", 20000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.shape == (20001, 2)
    assert rank_counts.shape == (1, 20002) and rank_floor.shape == (1, 20001)
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
