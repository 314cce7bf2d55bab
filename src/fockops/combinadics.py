"""Combinadic addressing of Fock-space configurations.

Fermionic configurations of N particles in M orbitals are labelled by the
1-based positions of their M_v = M - N holes, i_1 < i_2 < ... < i_{M_v},
and ranked by

    J(i_1, ..., i_{M_v}) = 1 + sum_k C(N + M_v - i_k, M_v + 1 - k),

which is a bijection onto [1, N_conf] with N_conf = C(M, N).  Bosonic
configurations (occupation vectors n_1..n_M summing to N) are ranked through
the isomorphism with N fermions in N + M - 1 orbitals, which collapses to

    J(n_1, ..., n_M) = 1 + sum_{k=1}^{M-1} C(N + M - 1 - k - S_k, M - k),

with S_k the cumulative occupation.  Hole positions are counted from the
left; J = 1 is the all-particles-leftmost configuration.  This is the
lexical addressing of Knowles & Handy.  Every binomial is an exact Python
integer from ``math.comb``, so addresses have no width limit; the kernel's
integer rank tables are checked against these closed forms.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import AddressError, InvalidConfigurationError, InvalidSpaceError

FERMION = "fermion"
BOSON = "boson"


def space_dimension(statistics: str, n: int, m: int) -> int:
    """Number of configurations of n particles in m orbitals.

    C(m, n) for fermions, C(n + m - 1, n) for bosons.
    """
    _check_space(statistics, n, m)
    if statistics == FERMION:
        return math.comb(m, n)
    return math.comb(n + m - 1, n)


def capped_dimension(statistics: str, n: int, m: int, cap: int) -> int:
    """The number of configurations of a valid space, or ``cap`` + 1 if it exceeds ``cap``.

    C(a, b) is built as the products C(a - b + i, i), i = 1..min(b, a - b),
    which never decrease, so the count stops at the first one above ``cap``:
    C(a - b + i, i) >= 2^i, so after at most log2(cap) + 1 steps, and
    without forming a large integer.
    """
    a, b = (m, n) if statistics == FERMION else (n + m - 1, n)
    b = min(b, a - b)
    count = 1
    for i in range(1, b + 1):
        count = count * (a - b + i) // i
        if count > cap:
            return cap + 1
    return count


def _check_space(statistics: str, n: int, m: int) -> None:
    if statistics not in (FERMION, BOSON):
        raise InvalidSpaceError(f"unknown statistics {statistics!r}")
    if n < 0:
        raise InvalidSpaceError(f"negative particle count {n}")
    if statistics == FERMION and m < n:
        raise InvalidSpaceError(f"fermionic space needs M >= N, got N={n}, M={m}")
    if m < 1:
        raise InvalidSpaceError(f"orbital count must be >= 1, got {m}")


def validate_holes(holes: Sequence[int], n: int, m: int) -> tuple[int, ...]:
    """Check a fermionic hole vector against its space; returns it as a tuple."""
    holes = tuple(int(i) for i in holes)
    m_v = m - n
    if len(holes) != m_v:
        raise InvalidConfigurationError(
            f"expected {m_v} holes for N={n}, M={m}, got {len(holes)}"
        )
    prev = 0
    for i in holes:
        if i <= prev:
            raise InvalidConfigurationError(f"holes not strictly increasing: {holes}")
        prev = i
    if holes and holes[-1] > m:
        raise InvalidConfigurationError(f"hole position {holes[-1]} exceeds M={m}")
    return holes


def validate_occupations(
    occ: Sequence[int], n: int, m: int, fermionic: bool = False
) -> tuple[int, ...]:
    """Check an occupation vector (length m, non-negative, summing to n)."""
    occ = tuple(int(v) for v in occ)
    if len(occ) != m:
        raise InvalidConfigurationError(f"expected {m} occupations, got {len(occ)}")
    if any(v < 0 for v in occ):
        raise InvalidConfigurationError(f"negative occupation in {occ}")
    if fermionic and any(v > 1 for v in occ):
        raise InvalidConfigurationError(f"fermionic occupation above 1 in {occ}")
    if sum(occ) != n:
        raise InvalidConfigurationError(
            f"occupations sum to {sum(occ)}, expected N={n}"
        )
    return occ


def occupations_to_holes(occ: Sequence[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i, v in enumerate(occ) if v == 0)


def fermion_rank(holes: Sequence[int], space) -> int:
    """Address J of the fermionic configuration with the given hole positions."""
    holes = validate_holes(holes, space.n, space.m)
    m, m_v = space.m, space.m - space.n
    return 1 + sum(math.comb(m - i, m_v + 1 - k) for k, i in enumerate(holes, start=1))


def _unrank_holes(j: int, n_conf: int, n: int, m: int) -> tuple[int, ...]:
    """Hole positions of the configuration of n fermions in m orbitals with address J.

    Greedy digit extraction in the combinatorial number system: the k-th
    hole takes the largest admissible binomial not exceeding the remainder.
    """
    if not 1 <= j <= n_conf:
        raise AddressError(f"address {j} outside [1, {n_conf}]")
    rem = j - 1
    holes = []
    i = 0
    for b in range(m - n, 0, -1):
        # smallest admissible i gives the largest binomial; scan i upward
        # until C(M - i, b) fits in the remainder.
        i += 1
        while (c := math.comb(m - i, b)) > rem:
            i += 1
        rem -= c
        holes.append(i)
    return tuple(holes)


def fermion_unrank(j: int, space) -> tuple[int, ...]:
    """Hole positions of the fermionic configuration with address J."""
    return _unrank_holes(j, space.n_conf, space.n, space.m)


def boson_rank(occ: Sequence[int], space) -> int:
    """Address J of the bosonic configuration with the given occupations."""
    occ = validate_occupations(occ, space.n, space.m)
    n, m = space.n, space.m
    j = 1
    s = 0
    for k in range(1, m):
        s += occ[k - 1]
        j += math.comb(n + m - 1 - k - s, m - k)
    return j


def boson_unrank(j: int, space) -> tuple[int, ...]:
    """Occupations of the bosonic configuration with address J.

    Inverts the rank through the isomorphic fermion space of N particles
    in N + M - 1 orbitals.
    """
    n = space.n
    return fermion_to_boson(_unrank_holes(j, space.n_conf, n, n + space.m - 1), n)


def boson_to_fermion(occ: Sequence[int]) -> tuple[int, ...]:
    """Hole positions of the isomorphic fermion configuration.

    A boson occupation vector (N particles, M orbitals) maps to N fermions
    in N + M - 1 orbitals whose M - 1 holes sit between the occupation runs:
    i_1 = n_1 + 1 and i_k = i_{k-1} + n_k + 1.
    """
    occ = tuple(int(v) for v in occ)
    if any(v < 0 for v in occ):
        raise InvalidConfigurationError(f"negative occupation in {occ}")
    holes = []
    pos = 0
    for n_k in occ[:-1]:
        pos += n_k + 1
        holes.append(pos)
    return tuple(holes)


def fermion_to_boson(holes: Sequence[int], n: int) -> tuple[int, ...]:
    """Occupations of the boson configuration isomorphic to a hole vector.

    ``holes`` lives in the fermion space of ``n`` particles over
    n + len(holes) orbitals; the result has M = len(holes) + 1 orbitals.
    """
    m_prime = n + len(holes)
    holes = validate_holes(holes, n, m_prime)
    occ = []
    prev = 0
    for i in holes:
        occ.append(i - prev - 1)
        prev = i
    occ.append(n + len(holes) - prev)  # n_M closes the particle count
    return tuple(occ)

