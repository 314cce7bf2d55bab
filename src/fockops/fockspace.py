"""Space descriptors, state vectors, and configuration iteration.

A :class:`SpaceDescriptor` fixes (statistics, N, M), caches the exact
binomial table used by the address bijection, and lazily builds the dense
per-configuration tables the operator kernel gathers from.  State vectors
are dense complex arrays indexed by address J (array slot J - 1).
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import combinadics as cmb
from .combinadics import BOSON, FERMION, BinomialTable
from .errors import AddressError, FockError, SpaceMismatchError

_VEC_MAGIC = b"FOCKVEC1"
_STAT_BYTE = {FERMION: 0, BOSON: 1}
_BYTE_STAT = {0: FERMION, 1: BOSON}


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
        if statistics == FERMION:
            a_max, b_max = self.m, max(self.m - self.n, 1)
        else:
            a_max, b_max = self.n + self.m, max(self.m - 1, 1)
        self.binomials = BinomialTable(a_max, b_max)
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


def iterate_configurations(space: SpaceDescriptor) -> Iterator[tuple]:
    """Yield (J, configuration) for every configuration in increasing J order.

    Fermions yield :class:`FermionConfig`, bosons occupation tuples.  The
    fermionic stream runs nested hole loops from high positions to low,
    which is exactly ascending address order.
    """
    if space.statistics == FERMION:
        m_v = space.m - space.n
        j = 0

        def rec(holes, next_max):
            nonlocal j
            k = len(holes)
            if k == m_v:
                j += 1
                yield j, FermionConfig.from_holes(holes, space.m)
                return
            lo = holes[-1] + 1 if holes else 1
            hi = next_max
            for i in range(hi, lo - 1, -1):
                yield from rec(holes + (i,), hi + 1)

        # the k-th hole may sit at most at M - (M_v - k) so deeper levels fit
        yield from rec((), space.m - m_v + 1)
    else:

        def rec_b(prefix, remaining, slots):
            if slots == 1:
                yield prefix + (remaining,)
                return
            for v in range(remaining, -1, -1):
                yield from rec_b(prefix + (v,), remaining - v, slots - 1)

        for j, occ in enumerate(rec_b((), space.n, space.m), start=1):
            yield j, occ


class SpaceTables:
    """Dense arrays over all configurations, in J order.

    occ      (N_conf, M)     occupation numbers
    prefix   (N_conf, M+1)   fermions: prefix[:, p] = sum of occ[:, :p]
    addr_arg (N_conf, M-1)   bosons: binomial arguments of the rank formula
    addr_val (N_conf, M-1)   bosons: the corresponding binomial values
    holes    (N_conf, M_v)   fermions: hole positions
    """

    def __init__(self, space: SpaceDescriptor):
        self.space = space
        r, m = space.n_conf, space.m
        occ = np.empty((r, m), dtype=np.int64)
        if space.statistics == FERMION:
            m_v = m - space.n
            holes = np.empty((r, m_v), dtype=np.int64)
            for j, cfg in iterate_configurations(space):
                holes[j - 1] = cfg.holes
                occ[j - 1] = cfg.occupations(m)
            self.holes = holes
            prefix = np.zeros((r, m + 1), dtype=np.int64)
            np.cumsum(occ, axis=1, out=prefix[:, 1:])
            self.prefix = prefix
        else:
            for j, conf in iterate_configurations(space):
                occ[j - 1] = conf
            csum = np.cumsum(occ, axis=1)
            if m > 1:
                ks = np.arange(1, m, dtype=np.int64)
                self.addr_arg = space.n + m - 1 - ks[None, :] - csum[:, :-1]
                tbl = space.binomials.array
                cols = (m - ks)[None, :]
                self.addr_val = tbl[self.addr_arg, np.broadcast_to(cols, self.addr_arg.shape)]
            else:
                self.addr_arg = np.empty((r, 0), dtype=np.int64)
                self.addr_val = np.empty((r, 0), dtype=np.int64)
        self.occ = occ
        self._gather_cache: dict = {}
        self._gather_cache_bytes = {"pair": 0, "other": 0}
        self._gather_lock = threading.Lock()

    # gathers are pure; the cache only avoids recomputation.  One-body
    # (pair) gathers get their own budget because two-body gathers are
    # composed from them.
    _GATHER_CACHE_LIMIT = 1 << 26

    def cached_gather(self, key, build):
        hit = self._gather_cache.get(key)
        if hit is not None:
            return hit
        # built outside the lock: two-body builds look up one-body gathers
        val = build()
        pool = "pair" if len(key) == 2 else "other"
        size = sum(a.nbytes for a in val)
        with self._gather_lock:  # threads that miss the same key insert and count it once
            hit = self._gather_cache.get(key)
            if hit is not None:
                return hit
            if self._gather_cache_bytes[pool] + size <= self._GATHER_CACHE_LIMIT:
                self._gather_cache[key] = val
                self._gather_cache_bytes[pool] += size
        return val


class StateVector:
    """Dense complex amplitudes over a complete Fock subspace.

    Slot J - 1 stores the coefficient of the configuration with address J.
    """

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: SpaceDescriptor, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
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


def zero_state(space: SpaceDescriptor) -> StateVector:
    return StateVector(space, np.zeros(space.n_conf, dtype=np.complex128))


def basis_state(space: SpaceDescriptor, j: int) -> StateVector:
    """Unit vector on the configuration with address ``j``."""
    if not 1 <= j <= space.n_conf:
        raise AddressError(f"address {j} outside [1, {space.n_conf}]")
    amps = np.zeros(space.n_conf, dtype=np.complex128)
    amps[j - 1] = 1.0
    return StateVector(space, amps)


def random_state(space: SpaceDescriptor, seed: int = 0) -> StateVector:
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
    """Write a state vector; ``fmt`` is "binary" (FOCKVEC1) or "json"."""
    if fmt == "binary":
        header = _VEC_MAGIC + struct.pack(
            "<BQQQ",
            _STAT_BYTE[psi.space.statistics],
            psi.space.n,
            psi.space.m,
            psi.space.n_conf,
        )
        payload = np.ascontiguousarray(psi.amplitudes, dtype="<c16").tobytes()
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    elif fmt == "json":
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


def load_state(path) -> StateVector:
    """Read a state vector written by :func:`save_state` (either format)."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == _VEC_MAGIC:
            stat_b, n, m, n_conf = struct.unpack("<BQQQ", read_exact(fh, 25, path))
            space = SpaceDescriptor(statistics_of_byte(stat_b), n, m)
            if space.n_conf != n_conf:
                raise FockError(
                    f"header N_conf={n_conf} does not match space dimension {space.n_conf}"
                )
            raw = read_exact(fh, 16 * n_conf, path)
            amps = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
            return StateVector(space, amps)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FockError(f"{path} is neither a FOCKVEC1 binary nor a JSON vector") from exc
    if doc.get("format") != "fockvec/1":
        raise FockError(f"unrecognized vector file {path}")
    space = SpaceDescriptor(doc["statistics"], doc["N"], doc["M"])
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return StateVector(space, amps)
