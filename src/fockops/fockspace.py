"""Space descriptors, state vectors, and configuration iteration.

A :class:`SpaceDescriptor` fixes (statistics, N, M), ranks and unranks
configurations by the exact closed forms of :mod:`combinadics`, and lazily
builds the dense per-configuration tables the operator kernel gathers
from.  Its ladder table, weights included, re-addresses a space through
the space of one particle fewer or more: the kernel's pair gathers and
the densities both read it, and with the next one, two particles fewer
or more, the kernel's pair part and rho2.  State vectors, over one
species or a mixture of two, are dense arrays indexed by address J (array
slot J - 1), and one binary format with a species count stores either.
"""

from __future__ import annotations

import functools
import json
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import combinadics as cmb
from .combinadics import BOSON, FERMION
from .errors import AddressError, FockError, InvalidSpaceError, SpaceMismatchError

_VEC_MAGIC = (b"FOCKVEC1", b"FOCKMIX1")  # binary vector magic of one species, and of two
_STAT_BYTE = {FERMION: 0, BOSON: 1}
_BYTE_STAT = {0: FERMION, 1: BOSON}
_COPY_ENTRIES = 1 << 15  # occupation_table gathers the previous level's rows this many entries at a time


@dataclass(frozen=True)
class FermionConfig:
    """A determinant labelled by hole positions plus its bit-set form.

    Bit k - 1 of ``bits`` is set iff orbital k is occupied.
    """

    holes: tuple[int, ...]
    bits: int

    @classmethod
    def from_holes(cls, holes, m: int) -> "FermionConfig":
        bits = (1 << m) - 1
        for i in holes:
            bits &= ~(1 << (i - 1))
        return cls(tuple(holes), bits)

    def occupations(self, m: int) -> tuple[int, ...]:
        return tuple((self.bits >> k) & 1 for k in range(m))


class SpaceDescriptor:
    """Complete Fock subspace of ``n`` particles in ``m`` orbitals."""

    def __init__(self, statistics: str, n: int, m: int):
        cmb._check_space(statistics, n, m)
        self.statistics = statistics
        self.n = int(n)
        self.m = int(m)
        self.n_conf = cmb.space_dimension(statistics, n, m)
        self._tables = None

    @classmethod
    def fermion(cls, n: int, m: int) -> "SpaceDescriptor":
        return cls(FERMION, n, m)

    @classmethod
    def boson(cls, n: int, m: int) -> "SpaceDescriptor":
        return cls(BOSON, n, m)

    def __repr__(self):
        return f"SpaceDescriptor({self.statistics}, N={self.n}, M={self.m}, N_conf={self.n_conf})"

    def __eq__(self, other):
        return (
            isinstance(other, SpaceDescriptor)
            and self.statistics == other.statistics
            and self.n == other.n
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.statistics, self.n, self.m))

    @property
    def species(self) -> tuple["SpaceDescriptor"]:
        """``(self,)``: a single-species space is its one species (a mixture space has two)."""
        return (self,)

    # -- addressing ------------------------------------------------------

    def rank(self, config) -> int:
        """Address of a configuration (hole vector / FermionConfig / occupations)."""
        if self.statistics == FERMION:
            holes = config.holes if isinstance(config, FermionConfig) else config
            return cmb.fermion_rank(holes, self)
        return cmb.boson_rank(config, self)

    def unrank(self, j: int):
        """Configuration at address ``j`` (FermionConfig or occupation tuple)."""
        if self.statistics == FERMION:
            return FermionConfig.from_holes(cmb.fermion_unrank(j, self), self.m)
        return cmb.boson_unrank(j, self)

    def occupations_at(self, j: int) -> tuple[int, ...]:
        cfg = self.unrank(j)
        if isinstance(cfg, FermionConfig):
            return cfg.occupations(self.m)
        return cfg

    # -- kernel tables ----------------------------------------------------

    def tables(self) -> "SpaceTables":
        """Dense per-configuration tables (built once, then cached)."""
        if self._tables is None:
            self._tables = SpaceTables(self)
        return self._tables


def occupation_table(statistics: str, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every occupation vector of a space, one row each in address order, and the counts of its levels.

    Both statistics list occupation vectors in descending lexicographic
    order; fermions are the case of at most ``cap`` = 1 particle per orbital
    (bosons: ``cap`` = N).  The rows are built from the last orbital
    backwards: the occupations of the last j orbitals holding r particles
    are, for each first value v from the largest down, v followed by the
    occupations of the last j - 1 orbitals holding r - v.  Only the counts r
    that the first M - j orbitals can still complete to N are kept, so no
    level holds more rows than the finished table.  counts[j, r], shape
    (M + 1, N + 1), is the number of rows of level j holding r particles,
    0 for the counts not kept: O(M N) memory for either statistics.
    """
    cap = 1 if statistics == FERMION else n
    counts = np.zeros((m + 1, n + 1), dtype=np.int64)
    counts[0, 0] = 1
    occ, totals = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for j in range(1, m + 1):
        # rows of level j - 1 are ordered by total, so the tails of the rows
        # holding r particles (first value from min(cap, r) down) are one slice
        r = np.arange(max(0, n - cap * (m - j)), min(n, cap * j) + 1)
        starts = np.concatenate(([0], np.cumsum(counts[j - 1])))
        begin, end = starts[np.maximum(r - cap, 0)], starts[np.minimum(r, cap * (j - 1)) + 1]
        counts[j, r] = sizes = end - begin
        tail = np.arange(sizes.sum()) + np.repeat(begin + sizes - np.cumsum(sizes), sizes)
        owner = np.repeat(r, sizes)
        rows = np.empty((len(tail), j), dtype=np.int64)
        rows[:, 0] = owner - totals[tail]
        step = max(1, _COPY_ENTRIES // j)  # occ[tail] whole would be a temporary as large as the level
        for s in range(0, len(tail), step):
            rows[s : s + step, 1:] = occ[tail[s : s + step]]
        occ, totals = rows, owner
    return occ, counts


def creation_table(statistics: str, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, w): U[q-1, j] is the 0-based address in the space of ``n`` particles of the j-th configuration m of n - 1 plus one in q, w[q-1, j] b_q's weight there.

    w is sqrt(m_q + 1) (bosons) or (-1)^{S_q}, S_q the particles of m below
    q (fermions).  U is -1, and w 0, where fermion orbital q of m is already
    full; neither has columns for n = 0.  The address of a configuration is
    J - 1 = sum_p T_p over orbitals p, where T_p counts the configurations
    with the same occupations in orbitals 1..p-1 and more particles in p
    (the lexical addressing of Knowles & Handy).  With R_p the particles in
    orbitals p..M and count_j(r) the configurations of r particles in j
    orbitals, bosons have T_p = sum_{r < R_{p+1}} count_{M-p}(r), and
    fermions T_p = [n_p = 0] count_{M-p}(R_p - 1); neither depends on n.
    Adding a particle to q raises R_{p+1} for every p < q, so U has a
    running sum over q:

        bosons    U[q] = j + sum_{p<q} count_{M-p}(R_{p+1})
        fermions  U[q] = j + sum_{p<q, m_p=0} (count_{M-p}(R_{p+1}) - count_{M-p}(R_{p+1} - 1))
                           - count_{M-q}(R_q - 1).

    Each row of U is increasing where it is not -1: adding a particle to a
    fixed orbital keeps lexicographic order.  The counts are the level
    counts of the (n - 1)-particle space (:func:`occupation_table`), which
    omit the particle numbers its orbitals 1..q cannot complete; the fermion
    terms read those only where m_q = 1, whose entry is -1.  U is int32 when
    that holds every address.
    """
    if n == 0:
        return np.empty((m, 0), dtype=np.int32), np.empty((m, 0))
    lower, levels = occupation_table(statistics, n - 1, m)
    count = np.zeros((m, n + 1), dtype=np.int64)  # count[q-1, r+1] = count_{M-q}(r), r = -1..n-1
    count[:-1, 1:] = levels[m - 1:0:-1]
    fits = cmb.space_dimension(statistics, n, m) < 2**31
    table = np.empty((m, len(lower)), dtype=np.int32 if fits else np.int64)
    weight = np.empty((m, len(lower)))
    base = np.arange(len(lower), dtype=np.int64)
    rest = np.full(len(lower), n - 1, dtype=np.int64)  # particles of m in orbitals q+1..M
    for q in range(1, m + 1):
        held = lower[:, q - 1]
        rest -= held
        if statistics == FERMION:
            free = held == 0
            at = base - count[q - 1, rest]
            table[q - 1] = np.where(free, at, -1)
            weight[q - 1] = np.where(free, 1.0 - 2.0 * ((n - 1 - rest) & 1), 0.0)  # S_q = n - 1 - rest where free
            base = np.where(free, at + count[q - 1, rest + 1], base)
        else:
            table[q - 1] = base
            np.sqrt(held + 1, out=weight[q - 1])
            base += count[q - 1, rest + 1]
    return table, weight


def annihilation_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(D, w): D[q-1, j] is the 0-based address in the fermion space of ``n`` particles of the j-th configuration of n + 1 less its particle in q, w[q-1, j] b†_q's weight there.

    D is -1, and w 0, where orbital q of that configuration is empty.
    Complementing every occupation maps the configurations of n particles
    onto those of m - n and reverses their descending lexicographic order,
    so an address J - 1 is N_conf - 1 less the address of the complement,
    and D, w are the fermion :func:`creation_table` of m - n particles read
    backwards, w times (-1)^(q-1): the particles below q are the q - 1
    orbitals less the complement's.  Each row of D increases where not -1.
    """
    up, weight = (a[:, ::-1] for a in creation_table(FERMION, m - n, m))
    table = np.full(up.shape, -1, dtype=up.dtype)
    np.subtract(cmb.space_dimension(FERMION, n, m) - 1, up, out=table, where=up >= 0)
    weight[1::2] = 0.0 - weight[1::2]  # not -weight, which would turn the zeros into -0.0
    return table, weight


def hole_picture(space: SpaceDescriptor) -> bool:
    """Whether ``space`` is re-addressed through N + 1 particles: a fermion space above half filling (2N > M)."""
    return space.statistics == FERMION and 2 * space.n > space.m


def has_pair_space(space: SpaceDescriptor) -> bool:
    """Whether ``space`` has configurations of N - 2 particles (N + 2 in the hole picture): its :attr:`SpaceTables.next_ladder` leads there."""
    return space.n + 2 <= space.m if hole_picture(space) else space.n >= 2


def ladder_table(space: SpaceDescriptor) -> tuple[np.ndarray, np.ndarray, bool]:
    """The table that re-addresses ``space`` through a neighbour space, its weights, and whether that is its hole picture.

    Below half filling, and always for bosons, it is the
    :func:`creation_table` U: b_q maps address U[q-1, j] onto the j-th
    configuration of N - 1 particles.  A fermion space above half filling
    (2N > M) takes the :func:`annihilation_table` D instead: b†_q maps
    address D[q-1, j] onto the j-th configuration of N + 1.  Either way the
    table carries each entry's weight and has M rows and at most N_conf
    columns, as N_conf(N - 1) = N_conf N / (M - N + 1) and N_conf(N + 1) =
    N_conf (M - N) / (N + 1): it, and the neighbour's occupation table that
    makes it, are never larger than the space's own occupation table.
    """
    if hole_picture(space):
        return *annihilation_table(space.n, space.m), True
    return *creation_table(space.statistics, space.n, space.m), False


def iterate_configurations(space: SpaceDescriptor) -> Iterator[tuple]:
    """Yield (J, configuration) for every configuration in increasing J order.

    Fermions yield :class:`FermionConfig`, bosons occupation tuples, both
    from the rows of :func:`occupation_table`.
    """
    occ = occupation_table(space.statistics, space.n, space.m)[0]
    if space.statistics == FERMION:
        holes = np.nonzero(occ == 0)[1].reshape(len(occ), space.m - space.n) + 1
        for j, row in enumerate(holes.tolist(), start=1):
            yield j, FermionConfig.from_holes(row, space.m)
    else:
        for j, row in enumerate(occ.tolist(), start=1):
            yield j, tuple(row)


class SpaceTables:
    """Arrays over all configurations, in J order, and the ladder table that re-addresses them.

    occ          (N_conf, M)   occupation numbers, float64 (small integers, held exactly)
    ladder                     :func:`ladder_table` of the space, built on first use
    next_ladder                :func:`ladder_table` of the space ``ladder`` leads to, built on first use

    It also holds the space's one gather pool (:meth:`cached_gather`).
    """

    def __init__(self, space: SpaceDescriptor):
        self.space = space
        self.occ = occupation_table(space.statistics, space.n, space.m)[0].astype(np.float64)
        self._gather_cache: dict = {}

    @functools.cached_property
    def ladder(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """The space's :func:`ladder_table`, built once, on first use: H's pair gathers and the densities read it."""
        return ladder_table(self.space)

    @functools.cached_property
    def next_ladder(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """The :func:`ladder_table` of the space of N - 1 particles (N + 1 in the hole picture), built once, on first use.

        It takes that space on to N -/+ 2 particles in the same picture:
        H's pair part and rho2 read it.  Only a space holding configurations
        of N -/+ 2 particles (:func:`has_pair_space`) has it.
        """
        space = self.space
        return ladder_table(SpaceDescriptor(space.statistics, space.n + (1 if hole_picture(space) else -1), space.m))

    def cached_gather(self, key, build):
        """The gather stored under ``key``, built by ``build()`` and kept on first use.

        Gathers are pure, so the pool only avoids recomputation.  Only the
        factored apply stores gathers here, those of H's hops E_kq with
        k < q (at most M(M-1)/2), so the pool needs no budget; a prepared
        single-species operator's gathers leave it once stacked.
        Threads that miss the same key at once may each build it;
        ``dict.setdefault`` keeps the first.
        """
        hit = self._gather_cache.get(key)
        return hit if hit is not None else self._gather_cache.setdefault(key, build())


class StateVector:
    """Dense amplitudes over a complete Fock subspace or a mixture of two (:class:`mixtures.MixtureSpace`).

    Slot J - 1 stores the coefficient of the configuration with address J;
    in a mixture J = (J_A - 1) N^B_conf + J_B.  A float64 array is kept as
    it is (real arithmetic for real Hamiltonians); anything else becomes
    complex128.
    """

    __slots__ = ("space", "amplitudes")

    def __init__(self, space, amplitudes: np.ndarray):
        amplitudes = amplitude_array(amplitudes)
        if amplitudes.shape != (space.n_conf,):
            raise FockError(
                f"amplitude array of shape {amplitudes.shape} does not match N_conf={space.n_conf}"
            )
        self.space = space
        self.amplitudes = amplitudes

    def copy(self) -> "StateVector":
        return StateVector(self.space, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __len__(self):
        return self.space.n_conf


def amplitude_array(amplitudes) -> np.ndarray:
    """``amplitudes`` itself if it is a float64 array, else as a complex128 array."""
    if isinstance(amplitudes, np.ndarray) and amplitudes.dtype == np.float64:
        return amplitudes
    return np.asarray(amplitudes, dtype=np.complex128)


def zero_state(space) -> StateVector:
    return StateVector(space, np.zeros(space.n_conf, dtype=np.complex128))


def basis_state(space, j: int) -> StateVector:
    """Unit vector on the configuration with address ``j``."""
    if not 1 <= j <= space.n_conf:
        raise AddressError(f"address {j} outside [1, {space.n_conf}]")
    amps = np.zeros(space.n_conf, dtype=np.complex128)
    amps[j - 1] = 1.0
    return StateVector(space, amps)


def random_state(space, seed: int = 0) -> StateVector:
    """Seeded random normalized vector (reproducible)."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(space.n_conf) + 1j * rng.standard_normal(space.n_conf)
    amps /= np.linalg.norm(amps)
    return StateVector(space, amps)


def dot(u: StateVector, v: StateVector) -> complex:
    """<u|v> = sum_J conj(u_J) v_J."""
    if u.space != v.space:
        raise SpaceMismatchError("dot of vectors from different spaces")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def axpy(alpha: complex, x: StateVector, y: StateVector, in_place: bool = False) -> StateVector:
    """y + alpha x, freshly allocated unless ``in_place`` (then y is updated)."""
    if x.space != y.space:
        raise SpaceMismatchError("axpy of vectors from different spaces")
    if in_place:
        y.amplitudes += alpha * x.amplitudes
        return y
    return StateVector(y.space, y.amplitudes + alpha * x.amplitudes)


# -- serialization ---------------------------------------------------------


def save_state(psi: StateVector, path, fmt: str = "binary") -> None:
    """Write a state vector; ``fmt`` is "binary" (FOCKVEC1, or FOCKMIX1 for a mixture) or "json" (one species only).

    The binary header is the magic, one statistics byte per species, N and
    M per species, then N_conf; complex128 amplitudes follow.
    """
    species = psi.space.species
    if fmt == "binary":
        header = _VEC_MAGIC[len(species) - 1] + struct.pack(
            _header_format(len(species)),
            *(_STAT_BYTE[s.statistics] for s in species),
            *(v for s in species for v in (s.n, s.m)),
            psi.space.n_conf,
        )
        payload = np.ascontiguousarray(psi.amplitudes, dtype="<c16").tobytes()
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    elif fmt == "json":
        if len(species) != 1:
            raise ValueError("a mixture vector has no JSON format")
        doc = {
            "format": "fockvec/1",
            "statistics": psi.space.statistics,
            "N": psi.space.n,
            "M": psi.space.m,
            "amplitudes": [[z.real, z.imag] for z in psi.amplitudes],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown vector format {fmt!r}")


def _header_format(count: int) -> str:
    """struct format of a binary vector header of ``count`` species after its magic."""
    return "<" + "B" * count + "QQ" * count + "Q"


def read_exact(fh, size: int, path) -> bytes:
    """``size`` bytes from a binary vector file, or FockError if it ends first."""
    data = fh.read(size)
    if len(data) != size:
        raise FockError(f"{path} is truncated: expected {size} more bytes, found {len(data)}")
    return data


def statistics_of_byte(stat_b: int) -> str:
    """Statistics named by a vector-file header byte, or FockError if unknown."""
    if stat_b not in _BYTE_STAT:
        raise FockError(f"unknown statistics byte {stat_b}")
    return _BYTE_STAT[stat_b]


MAX_SPACE_TABLE = 1 << 26  # entries of any table sized by an integral header


def header_space(statistics, n, m, n_amplitudes, path, exact: bool = True) -> SpaceDescriptor:
    """The space a file header names, checked before anything is sized by it.

    ``n_amplitudes`` is the number of amplitudes the file holds, or None for
    a file that holds none (an integral file).  N_conf may not exceed a cap:
    ``n_amplitudes``, or for an integral file the largest N_conf with
    N_conf (2M + 1) <= :data:`MAX_SPACE_TABLE`, which bounds the occupation
    table, N_conf M entries, and the addresses of the ladder table, at most
    as many.  N_conf is counted no higher than the cap.
    FockError is raised for an invalid space, a space beyond the cap, or (if
    ``exact``) a dimension other than ``n_amplitudes``.
    """
    try:
        cmb._check_space(statistics, n, m)
    except InvalidSpaceError as exc:
        raise FockError(f"{path}: {exc}") from None
    cap = MAX_SPACE_TABLE // (2 * m + 1) if n_amplitudes is None else n_amplitudes
    n_conf = cmb.capped_dimension(statistics, n, m, cap)
    if n_conf > cap:
        raise FockError(f"{path}: space N={n}, M={m} is too large: it has more than {cap} configurations")
    if exact and n_amplitudes is not None and n_conf != n_amplitudes:
        raise FockError(f"{path}: {n_amplitudes} amplitudes for a space of N_conf={n_conf}")
    return SpaceDescriptor(statistics, n, m)  # N_conf <= cap: its exact math.comb is as short as the count


def load_state(path) -> StateVector:
    """Read a state vector written by :func:`save_state` (either format, either kind of space).

    A binary header is checked against the payload's size before any space
    is built from it; one species must then hold exactly N_conf amplitudes,
    a mixture the product of its species'.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head in _VEC_MAGIC:
            count = _VEC_MAGIC.index(head) + 1
            fmt = _header_format(count)
            fields = struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), path))
            statistics, n_conf = [statistics_of_byte(b) for b in fields[:count]], fields[-1]
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if 16 * n_conf != left:
                raise FockError(f"{path}: header promises {n_conf} amplitudes, file holds {left} bytes")
            spaces = [header_space(stat, n, m, n_conf, path, exact=count == 1)
                      for stat, n, m in zip(statistics, fields[count:-1:2], fields[count + 1:-1:2])]
            space = spaces[0]
            if count == 2:
                from .mixtures import MixtureSpace

                space = MixtureSpace(*spaces)
                if space.n_conf != n_conf:
                    raise FockError("header dimension does not match the space")
            amps = np.frombuffer(read_exact(fh, 16 * n_conf, path), dtype="<c16").astype(np.complex128)
            return StateVector(space, amps)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FockError(f"{path} is neither a FOCKVEC1 binary nor a JSON vector") from exc
    if not isinstance(doc, dict) or doc.get("format") != "fockvec/1":
        raise FockError(f"unrecognized vector file {path}")
    n, m, statistics, amps = (doc.get(key) for key in ("N", "M", "statistics", "amplitudes"))
    if not (type(n) is int and type(m) is int and isinstance(statistics, str) and isinstance(amps, list)):
        raise FockError(f"{path}: a fockvec/1 vector needs integer N and M, "
                        f"a statistics name and an amplitude list")
    try:
        pairs = np.array(amps, dtype=np.float64)
    except (TypeError, ValueError):
        pairs = None
    if pairs is None or pairs.shape != (len(amps), 2):
        raise FockError(f"{path}: amplitudes must be [re, im] number pairs")
    return StateVector(header_space(statistics, n, m, len(amps), path), pairs.view(np.complex128)[:, 0])
