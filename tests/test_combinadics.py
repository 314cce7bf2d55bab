"""Addressing bijections, the boson-fermion isomorphism, and their inverses."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockops import (
    AddressError,
    InvalidConfigurationError,
    InvalidSpaceError,
    SpaceDescriptor,
    boson_rank,
    boson_to_fermion,
    boson_unrank,
    fermion_rank,
    fermion_to_boson,
    fermion_unrank,
    space_dimension,
)
from fockops.combinadics import capped_dimension


def all_hole_vectors(n, m):
    """Independent enumeration of every hole vector (no package addressing)."""
    return itertools.combinations(range(1, m + 1), m - n)


def all_occupation_vectors(n, m):
    """Independent stars-and-bars enumeration of boson configurations."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in all_occupation_vectors(n - first, m - 1):
            yield (first,) + rest


class TestExactAddressing:
    """Binomials beyond 64 bits are exact: C(67, 33) and C(130, 65) exceed 2^63."""

    @pytest.mark.parametrize("space", [
        SpaceDescriptor.fermion(1, 67),
        SpaceDescriptor.boson(1, 66),
        SpaceDescriptor.fermion(65, 130),  # N_conf = C(130, 65), about 9.5e37
    ], ids=repr)
    def test_rank_inverts_unrank(self, space):
        for j in (1, 2, space.n_conf // 2, space.n_conf):
            assert space.rank(space.unrank(j)) == j


class TestFermionRank:
    def test_paper_worked_example(self):
        space = SpaceDescriptor.fermion(7, 10)
        assert fermion_rank((2, 6, 8), space) == 65

    def test_all_particles_leftmost_is_first(self):
        space = SpaceDescriptor.fermion(2, 4)
        assert fermion_rank((3, 4), space) == 1

    def test_all_particles_rightmost_is_last(self):
        space = SpaceDescriptor.fermion(2, 4)
        # frozen from direct formula evaluation: 1 + C(3,2) + C(2,1) = 6
        assert fermion_rank((1, 2), space) == 6 == space.n_conf

    def test_rejects_non_increasing_holes(self):
        space = SpaceDescriptor.fermion(7, 10)
        with pytest.raises(InvalidConfigurationError):
            fermion_rank((6, 2, 8), space)

    def test_rejects_out_of_range_hole(self):
        space = SpaceDescriptor.fermion(7, 10)
        with pytest.raises(InvalidConfigurationError):
            fermion_rank((2, 6, 11), space)

    def test_rejects_wrong_hole_count(self):
        space = SpaceDescriptor.fermion(7, 10)
        with pytest.raises(InvalidConfigurationError):
            fermion_rank((2, 6), space)


class TestFermionUnrank:
    def test_inverts_worked_example(self):
        space = SpaceDescriptor.fermion(7, 10)
        assert fermion_unrank(65, space) == (2, 6, 8)

    def test_first_address_has_holes_rightmost(self):
        space = SpaceDescriptor.fermion(3, 7)
        assert fermion_unrank(1, space) == (4, 5, 6, 7)

    def test_roundtrip_exhaustive(self):
        space = SpaceDescriptor.fermion(3, 7)
        for j in range(1, space.n_conf + 1):
            assert fermion_rank(fermion_unrank(j, space), space) == j

    def test_address_out_of_range(self):
        space = SpaceDescriptor.fermion(3, 7)
        with pytest.raises(AddressError):
            fermion_unrank(0, space)
        with pytest.raises(AddressError):
            fermion_unrank(space.n_conf + 1, space)


class TestBosonRank:
    def test_first_and_last(self):
        space = SpaceDescriptor.boson(5, 4)
        assert boson_rank((5, 0, 0, 0), space) == 1
        assert boson_rank((0, 0, 0, 5), space) == space.n_conf

    def test_n2_m3_sequence(self):
        # frozen from direct formula evaluation, cross-checked below by
        # exhaustive enumeration
        space = SpaceDescriptor.boson(2, 3)
        expected = {
            (2, 0, 0): 1,
            (1, 1, 0): 2,
            (1, 0, 1): 3,
            (0, 2, 0): 4,
            (0, 1, 1): 5,
            (0, 0, 2): 6,
        }
        for occ, j in expected.items():
            assert boson_rank(occ, space) == j

    def test_wrong_particle_total(self):
        space = SpaceDescriptor.boson(2, 3)
        with pytest.raises(InvalidConfigurationError):
            boson_rank((2, 1, 0), space)


class TestBosonUnrank:
    def test_small_cases(self):
        space = SpaceDescriptor.boson(2, 2)
        assert boson_unrank(2, space) == (1, 1)
        assert boson_unrank(1, space) == (2, 0)

    def test_first_configuration(self):
        space = SpaceDescriptor.boson(6, 3)
        assert boson_unrank(1, space) == (6, 0, 0)

    def test_roundtrip_exhaustive(self):
        space = SpaceDescriptor.boson(4, 5)
        for j in range(1, space.n_conf + 1):
            assert boson_rank(boson_unrank(j, space), space) == j

    def test_address_out_of_range(self):
        space = SpaceDescriptor.boson(4, 5)
        with pytest.raises(AddressError):
            boson_unrank(space.n_conf + 1, space)


class TestIsomorphism:
    def test_spec_example(self):
        # |1,1,0> for N=2, M=3 maps to holes (2,4) in a 4-orbital fermion space
        assert boson_to_fermion((1, 1, 0)) == (2, 4)

    def test_all_bosons_in_first_orbital(self):
        n, m = 4, 5
        assert boson_to_fermion((n,) + (0,) * (m - 1)) == tuple(range(n + 1, n + m))

    def test_holes_leftmost_maps_to_last_orbital(self):
        # holes (1, ..., M-1) <-> |0, ..., 0, N>
        n, m = 3, 4
        holes = tuple(range(1, m))
        assert fermion_to_boson(holes, n) == (0,) * (m - 1) + (n,)

    def test_occupation_runs_separated_by_single_holes(self):
        # |5,3,4,3,0,6>: hole after each run of particles, last run unterminated
        occ = (5, 3, 4, 3, 0, 6)
        holes = boson_to_fermion(occ)
        assert holes == (6, 10, 15, 19, 20)
        assert fermion_to_boson(holes, sum(occ)) == occ

    def test_inverse_roundtrip_exhaustive(self):
        n, m = 3, 4
        for occ in all_occupation_vectors(n, m):
            holes = boson_to_fermion(occ)
            assert fermion_to_boson(holes, n) == occ

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3), (4, 2), (3, 5)])
    def test_rank_agreement(self, n, m):
        """boson_rank == fermion_rank of the image (how the formula is derived)."""
        bspace = SpaceDescriptor.boson(n, m)
        fspace = SpaceDescriptor.fermion(n, n + m - 1)
        assert bspace.n_conf == fspace.n_conf
        for occ in all_occupation_vectors(n, m):
            assert boson_rank(occ, bspace) == fermion_rank(boson_to_fermion(occ), fspace)


class TestSpaceDimension:
    def test_values(self):
        assert space_dimension("fermion", 7, 10) == 120
        assert space_dimension("boson", 2, 2) == 3
        assert space_dimension("boson", 9, 1) == 1

    def test_fermion_m_below_n_rejected(self):
        with pytest.raises(InvalidSpaceError):
            space_dimension("fermion", 5, 4)
        with pytest.raises(InvalidSpaceError):
            SpaceDescriptor.fermion(5, 4)


class TestBijectivity:
    @pytest.mark.parametrize("n,m", [(0, 4), (1, 5), (2, 5), (3, 6), (4, 8), (7, 10)])
    def test_fermion_rank_is_bijection(self, n, m):
        space = SpaceDescriptor.fermion(n, m)
        seen = {fermion_rank(h, space) for h in all_hole_vectors(n, m)}
        assert seen == set(range(1, space.n_conf + 1))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 4), (5, 3), (4, 6), (6, 4)])
    def test_boson_rank_is_bijection(self, n, m):
        space = SpaceDescriptor.boson(n, m)
        seen = {boson_rank(occ, space) for occ in all_occupation_vectors(n, m)}
        assert seen == set(range(1, space.n_conf + 1))


@given(st.integers(0, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_fermion_roundtrip_property(n, data):
    m = data.draw(st.integers(n, min(n + 8, 12)).filter(lambda x: x >= 1))
    space = SpaceDescriptor.fermion(n, m)
    j = data.draw(st.integers(1, space.n_conf))
    assert fermion_rank(fermion_unrank(j, space), space) == j


@given(st.integers(0, 10), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_boson_roundtrip_property(n, m, data):
    space = SpaceDescriptor.boson(n, m)
    j = data.draw(st.integers(1, space.n_conf))
    occ = boson_unrank(j, space)
    assert sum(occ) == n and len(occ) == m
    assert boson_rank(occ, space) == j


def test_dimension_cross_check_against_math_comb():
    for n in range(0, 7):
        for m in range(max(n, 1), 9):
            assert space_dimension("fermion", n, m) == math.comb(m, n)
        for m in range(1, 9):
            assert space_dimension("boson", n, m) == math.comb(n + m - 1, n)


def test_capped_dimension_matches_math_comb_below_the_cap():
    for statistics, n, m, exact in [("fermion", 7, 10, 120), ("boson", 5, 4, 56), ("fermion", 0, 3, 1),
                                    ("fermion", 2**40, 2**40, 1), ("boson", 2**40, 1, 1)]:
        for cap in (0, 1, exact - 1, exact, 10**6):
            assert capped_dimension(statistics, n, m, cap) == min(exact, cap + 1)
    assert capped_dimension("fermion", 40, 2**50, 10**6) == 10**6 + 1
