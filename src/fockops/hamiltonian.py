"""Second-quantized coefficient tables and their file format.

Index conventions (locked throughout the package): the one-body coefficient
h[k, q] multiplies b†_k b_q; the two-body coefficient W[k, s, q, l] (storage
subscript order k s q l) multiplies b†_k b†_s b_l b_q, carrying a global 1/2
prefactor in the Hamiltonian sum.  The pairing is (k <-> q) and (s <-> l).
No symmetry is assumed or imposed on the stored tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .combinadics import BOSON, FERMION
from .errors import FockError, IntegralFormatError, ValidationError
from .fockspace import MAX_SPACE_TABLE, SpaceDescriptor, header_space

HERMITICITY_TOL = 1e-12


def require_finite(values, what: str) -> None:
    """Raise ValidationError unless every coefficient in ``values`` is finite."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} table has a non-finite coefficient")


def _check_orbitals(m: int, orbitals) -> None:
    """Raise ValidationError unless every 1-based orbital index lies in [1, m]."""
    for p in orbitals:
        if not 1 <= p <= m:
            raise ValidationError(f"orbital index {p} outside [1, {m}]")


class OneBodyTable:
    """M x M complex matrix of one-body coefficients h_kq."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"one-body table must be square, got {matrix.shape}")
        require_finite(matrix, "one-body")
        self.matrix = matrix

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def get(self, k: int, q: int) -> complex:
        _check_orbitals(self.m, (k, q))
        return complex(self.matrix[k - 1, q - 1])

    def kept(self, threshold: float = 0.0) -> np.ndarray:
        """A copy of the matrix with the entries below ``threshold`` set to zero."""
        return np.where(np.abs(self.matrix) >= threshold, self.matrix, 0)

    def entries(self, threshold: float = 0.0) -> Iterator[tuple[int, int, complex]]:
        """(k, q, value) for nonzero values with |value| >= threshold, row-major, 1-based."""
        kept = self.kept(threshold)
        for k0, q0 in np.argwhere(kept):
            yield int(k0) + 1, int(q0) + 1, complex(kept[k0, q0])


class TwoBodyTable:
    """M^4 complex tensor of two-body coefficients W_ksql, kept as its nonzero entries.

    ``indices`` is an (n, 4) array of 0-based coordinates (k, s, q, l) in
    storage (C) order, each at most once, and ``values`` their n nonzero
    coefficients; every constructor sets this up, so no M^4 array is formed.
    """

    __slots__ = ("m", "indices", "values")

    def __init__(self, m: int, indices, values):
        """Check (n, 4) ``indices`` (0-based) and n ``values``, then merge and sort them.

        Repeated coordinates are summed in the order given; zero sums are dropped.
        """
        self.m = int(m)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        if indices.ndim != 2 or indices.shape[1] != 4 or values.shape != indices.shape[:1]:
            raise ValidationError(f"two-body coordinates must be (n, 4) with n values, "
                                  f"got {indices.shape} and {values.shape}")
        bad = (indices < 0) | (indices >= self.m)
        if bad.any():
            _check_orbitals(self.m, indices[bad][:1] + 1)  # the first bad one, 1-based
        order = np.lexsort(indices.T[::-1])  # stable, so repeats keep the order given
        indices = indices[order]
        first = np.ones(len(indices), dtype=bool)
        first[1:] = (indices[1:] != indices[:-1]).any(axis=1)
        summed = np.zeros(np.count_nonzero(first), dtype=np.complex128)
        np.add.at(summed, first.cumsum() - 1, values[order])
        require_finite(summed, "two-body")  # a sum keeps any nan or inf
        nonzero = summed != 0
        self.indices, self.values = indices[first][nonzero], summed[nonzero]

    @classmethod
    def from_dense(cls, tensor) -> "TwoBodyTable":
        tensor = np.asarray(tensor, dtype=np.complex128)
        if tensor.ndim != 4 or len(set(tensor.shape)) != 1:
            raise ValidationError(f"two-body table must be M^4, got {tensor.shape}")
        return cls(tensor.shape[0], np.argwhere(tensor), tensor[tensor != 0])

    @classmethod
    def zeros(cls, m: int) -> "TwoBodyTable":
        return cls(m, np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.complex128))

    @classmethod
    def from_entries(cls, m: int, entries: Sequence[tuple[int, int, int, int, complex]]) -> "TwoBodyTable":
        """Build from 1-based (k, s, q, l, value) items; duplicates accumulate in the order given."""
        entries = list(entries)
        indices = np.array([e[:4] for e in entries], dtype=np.int64).reshape(-1, 4) - 1
        return cls(m, indices, np.array([e[4] for e in entries], dtype=np.complex128))

    def get(self, k: int, s: int, q: int, l: int) -> complex:
        _check_orbitals(self.m, (k, s, q, l))
        hits = np.all(self.indices == (k - 1, s - 1, q - 1, l - 1), axis=1).nonzero()[0]
        return complex(self.values[hits[0]]) if hits.size else 0j

    def kept(self, threshold: float = 0.0):
        """0-based index arrays (k, s, q, l) and values of the entries with |value| >= threshold, in storage order."""
        keep = np.abs(self.values) >= threshold
        return tuple(self.indices[keep].T), self.values[keep]

    def entries(self, threshold: float = 0.0) -> Iterator[tuple[int, int, int, int, complex]]:
        """(k, s, q, l, value) in storage order, nonzero with |value| >= threshold."""
        idx, values = self.kept(threshold)
        for k0, s0, q0, l0, v in zip(*idx, values):
            yield int(k0) + 1, int(s0) + 1, int(q0) + 1, int(l0) + 1, complex(v)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m,) * 4, dtype=np.complex128)
        out[tuple(self.indices.T)] = self.values
        return out


@dataclass
class HamiltonianSpec:
    """Space plus coefficient tables; the two-body sum carries a fixed 1/2."""

    space: SpaceDescriptor
    one_body: OneBodyTable
    two_body: TwoBodyTable

    def __post_init__(self):
        if self.one_body.m != self.space.m or self.two_body.m != self.space.m:
            raise ValidationError(
                f"table size ({self.one_body.m}, {self.two_body.m}) does not match M={self.space.m}"
            )


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`; max deviations and their indices (1-based)."""

    hermitian_one_body: bool
    one_body_deviation: float
    one_body_worst: Optional[tuple[int, int]]
    self_adjoint_two_body: bool
    two_body_deviation: float
    two_body_worst: Optional[tuple[int, int, int, int]]
    tolerance: float = HERMITICITY_TOL

    @property
    def hermitian(self) -> bool:
        return self.hermitian_one_body and self.self_adjoint_two_body


def largest_deviation(dev: np.ndarray, coords) -> tuple[float, Optional[tuple[int, ...]]]:
    """Largest entry of ``dev`` and its 1-based index taken from the arrays ``coords``."""
    if not dev.size:
        return 0.0, None
    i = int(np.argmax(dev))
    return float(dev[i]), tuple(int(c[i]) + 1 for c in coords)


def validate(spec: HamiltonianSpec, tol: float = HERMITICITY_TOL) -> ValidationReport:
    """Report hermiticity of h and self-adjointness of the two-body sum.

    The two-body condition under the locked pairing is
    W[k, s, q, l] = conj(W[q, l, k, s]), checked on W's stored entries
    without forming the dense tensor.
    """
    h = spec.one_body.matrix
    max1, worst1 = largest_deviation(np.abs(h - h.conj().T).ravel(), np.indices(h.shape).reshape(2, -1))
    # each stored entry against conj of its partner, looked up among the stored
    # coordinates, which are sorted; an absent partner deviates as much as the
    # entry that names it
    w = spec.two_body
    (k, s, q, l), v = w.kept()
    key = np.ravel_multi_index((k, s, q, l), (w.m,) * 4)
    partner = np.ravel_multi_index((q, l, k, s), (w.m,) * 4)
    at = np.searchsorted(key, partner).clip(max=key.size - 1)
    mirror = np.where(key[at] == partner, v[at], 0)
    max2, worst2 = largest_deviation(np.abs(v - np.conj(mirror)), (k, s, q, l))
    return ValidationReport(
        hermitian_one_body=max1 <= tol,
        one_body_deviation=max1,
        one_body_worst=worst1,
        self_adjoint_two_body=max2 <= tol,
        two_body_deviation=max2,
        two_body_worst=worst2,
        tolerance=tol,
    )


def symmetrize_two_body(table: TwoBodyTable) -> TwoBodyTable:
    """Return the self-adjoint part (W + conj(W^T-pairing)) / 2 (on request only), formed on W's entries."""
    (k, s, q, l), v = table.kept()
    indices = np.concatenate([np.stack([k, s, q, l], 1), np.stack([q, l, k, s], 1)])
    return TwoBodyTable(table.m, indices, np.concatenate([0.5 * v, 0.5 * np.conj(v)]))  # halving is exact


def build_bose_hubbard(
    n_particles: int, sites: int, hopping: float, interaction: float, ring: bool = False
) -> HamiltonianSpec:
    """Bose-Hubbard chain: h_{k,k±1} = -J and W_kkkk = U.

    With the global 1/2 on the two-body sum this yields the standard
    (U/2) sum_k n_k (n_k - 1) on-site interaction.  ``ring`` closes the chain.
    """
    space = SpaceDescriptor(BOSON, n_particles, sites)
    h = np.zeros((sites, sites), dtype=np.complex128)
    for k in range(1, sites):
        h[k - 1, k] = -hopping
        h[k, k - 1] = -hopping
    if ring and sites > 2:
        h[0, sites - 1] = -hopping
        h[sites - 1, 0] = -hopping
    w = TwoBodyTable.from_entries(sites, [(k, k, k, k, interaction) for k in range(1, sites + 1)])
    return HamiltonianSpec(space, OneBodyTable(h), w)


# -- integral text format ----------------------------------------------------
#
# Single species:
#   STATISTICS FERMION|BOSON
#   N <int>
#   M <int>
#   H k q re [im]
#   W k s q l re [im]        (storage subscript order k s q l)
#
# Mixtures:
#   STATISTICS MIX FERMION|BOSON FERMION|BOSON
#   NA/MA/NB/MB <int> lines
#   HA/WA (species A), HB/WB (species B), and
#   X k q k' q' re [im]      (A pair k<->q, B pair k'<->q')
#
# A repeated H, HA, HB or X record replaces the earlier one; repeated W, WA or
# WB records add up, in file order.


def _header_space(statistics: str, n: int, m: int, path) -> SpaceDescriptor:
    """The space an integral header names, checked by :func:`fockspace.header_space`."""
    try:
        return header_space(statistics, n, m, None, path)
    except FockError as exc:
        raise IntegralFormatError(str(exc)) from None


def _check_table(entries: int, what: str, path) -> None:
    """Refuse a dense array sized by the header before it is allocated."""
    if entries > MAX_SPACE_TABLE:
        raise IntegralFormatError(f"{path}: header sizes are too large: the {what} "
                                  f"would hold {entries} entries")


def load_integrals(path):
    """Parse an integral file into a Hamiltonian spec (single species or mixture).

    Unlisted entries are zero.  A repeated one-body or ``X`` record replaces
    the earlier one; repeated two-body records add up in file order.  Raises
    :class:`IntegralFormatError` with the offending line number on malformed
    input.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise IntegralFormatError(f"{path} is not UTF-8 text") from None
    toks: list[tuple[int, list[str]]] = []
    for no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            toks.append((no, body.split()))
    if not toks:
        raise IntegralFormatError("empty integral file")
    no, head = toks[0]
    if head[0].upper() != "STATISTICS":
        raise IntegralFormatError("first line must declare STATISTICS", no)
    if len(head) >= 2 and head[1].upper() == "MIX":
        return _load_mixture(toks, path)
    if len(head) != 2 or head[1].upper() not in ("FERMION", "BOSON"):
        raise IntegralFormatError(f"bad statistics declaration {' '.join(head)!r}", no)
    statistics = FERMION if head[1].upper() == "FERMION" else BOSON
    sizes = {}
    body_start = 1
    for no, tok in toks[1:3]:
        if tok[0].upper() in ("N", "M") and len(tok) == 2:
            sizes[tok[0].upper()] = _int(tok[1], no)
            body_start += 1
        else:
            break
    if "N" not in sizes or "M" not in sizes:
        raise IntegralFormatError("header must provide N and M lines")
    space = _header_space(statistics, sizes["N"], sizes["M"], path)
    m = space.m
    _check_table(m * m, "one-body table", path)
    h, w = [], []
    _records(toks[body_start:], {"H": ((m, m), _H_USAGE, h), "W": ((m,) * 4, _W_USAGE, w)})
    return HamiltonianSpec(space, OneBodyTable(_dense((m, m), h)), _two_body(m, w))


def _load_mixture(toks, path):
    from .mixtures import InterSpeciesTable, MixtureHamiltonianSpec, MixtureSpace

    no, head = toks[0]
    if len(head) != 4 or any(t.upper() not in ("FERMION", "BOSON") for t in head[2:]):
        raise IntegralFormatError("MIX header needs two statistics tags", no)
    stat_a = FERMION if head[2].upper() == "FERMION" else BOSON
    stat_b = FERMION if head[3].upper() == "FERMION" else BOSON
    sizes = {}
    idx = 1
    while idx < len(toks) and toks[idx][1][0].upper() in ("NA", "MA", "NB", "MB"):
        no, tok = toks[idx]
        if len(tok) != 2:
            raise IntegralFormatError(f"bad size line {' '.join(tok)!r}", no)
        sizes[tok[0].upper()] = _int(tok[1], no)
        idx += 1
    missing = {"NA", "MA", "NB", "MB"} - set(sizes)
    if missing:
        raise IntegralFormatError(f"missing size lines: {sorted(missing)}")
    space_a = _header_space(stat_a, sizes["NA"], sizes["MA"], path)
    space_b = _header_space(stat_b, sizes["NB"], sizes["MB"], path)
    _check_table(space_a.n_conf * space_b.n_conf, "mixture state vector", path)
    ma, mb = space_a.m, space_b.m
    _check_table((ma * mb) ** 2, "inter-species table", path)
    ha, wa, hb, wb, x = [], [], [], [], []
    _records(toks[idx:], {
        "HA": ((ma, ma), _H_USAGE, ha), "WA": ((ma,) * 4, _W_USAGE, wa),
        "HB": ((mb, mb), _H_USAGE, hb), "WB": ((mb,) * 4, _W_USAGE, wb),
        "X": ((ma, ma, mb, mb), "X record needs k q k' q' re [im]", x),
    })
    spec_a = HamiltonianSpec(space_a, OneBodyTable(_dense((ma, ma), ha)), _two_body(ma, wa))
    spec_b = HamiltonianSpec(space_b, OneBodyTable(_dense((mb, mb), hb)), _two_body(mb, wb))
    inter = InterSpeciesTable(_dense((ma, ma, mb, mb), x))
    return MixtureHamiltonianSpec(MixtureSpace(space_a, space_b), spec_a, spec_b, inter)


def save_integrals(spec, path) -> None:
    """Write a spec in the integral text format (lossless, load_integrals-inverse)."""
    from .mixtures import MixtureHamiltonianSpec

    lines = []
    if isinstance(spec, MixtureHamiltonianSpec):
        sa, sb = spec.mspace.space_a, spec.mspace.space_b
        lines.append(f"STATISTICS MIX {sa.statistics.upper()} {sb.statistics.upper()}")
        lines.append(f"NA {sa.n}")
        lines.append(f"MA {sa.m}")
        lines.append(f"NB {sb.n}")
        lines.append(f"MB {sb.m}")
        for k, q, v in spec.spec_a.one_body.entries():
            lines.append(f"HA {k} {q} {v.real!r} {v.imag!r}")
        for k, s, q, l, v in spec.spec_a.two_body.entries():
            lines.append(f"WA {k} {s} {q} {l} {v.real!r} {v.imag!r}")
        for k, q, v in spec.spec_b.one_body.entries():
            lines.append(f"HB {k} {q} {v.real!r} {v.imag!r}")
        for k, s, q, l, v in spec.spec_b.two_body.entries():
            lines.append(f"WB {k} {s} {q} {l} {v.real!r} {v.imag!r}")
        wab = spec.inter.tensor
        for k0, q0, kp0, qp0 in np.argwhere(wab != 0):
            v = complex(wab[k0, q0, kp0, qp0])
            lines.append(f"X {k0+1} {q0+1} {kp0+1} {qp0+1} {v.real!r} {v.imag!r}")
    else:
        lines.append(f"STATISTICS {spec.space.statistics.upper()}")
        lines.append(f"N {spec.space.n}")
        lines.append(f"M {spec.space.m}")
        for k, q, v in spec.one_body.entries():
            lines.append(f"H {k} {q} {v.real!r} {v.imag!r}")
        for k, s, q, l, v in spec.two_body.entries():
            lines.append(f"W {k} {s} {q} {l} {v.real!r} {v.imag!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _int(tok: str, no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise IntegralFormatError(f"expected integer, got {tok!r}", no) from None


def _value(toks: Sequence[str], no: int) -> complex:
    try:
        re = float(toks[0])
        im = float(toks[1]) if len(toks) > 1 else 0.0
    except (ValueError, IndexError):
        raise IntegralFormatError(f"bad coefficient {' '.join(toks)!r}", no) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise IntegralFormatError(f"non-finite coefficient {' '.join(toks)!r}", no)
    return complex(re, im)


_H_USAGE = "H record needs k q re [im]"
_W_USAGE = "W record needs k s q l re [im]"


def _records(toks, spaces) -> None:
    """Read the body records into ``spaces``, which maps each tag to (orbital limits, usage message, records).

    A record is appended to its tag's list as (0-based indices, coefficient), in file order.
    """
    for no, tok in toks:
        try:
            limits, usage, records = spaces[tok[0].upper()]
        except KeyError:
            raise IntegralFormatError(f"unknown record {tok[0]!r}", no) from None
        records.append(_record(tok, no, limits, usage))


def _record(tok, no: int, limits, usage: str) -> tuple:
    """One record's 0-based indices, each checked against its orbital count in ``limits``, and its coefficient."""
    n = len(limits)
    if len(tok) - n not in (2, 3):
        raise IntegralFormatError(usage, no)
    idx = tuple([_int(t, no) - 1 for t in tok[1:n + 1]])
    for i, m in zip(idx, limits):
        if not 0 <= i < m:
            raise IntegralFormatError(f"orbital index {i + 1} outside [1, {m}]", no)
    return idx, _value(tok[n + 1:], no)


def _dense(shape, records) -> np.ndarray:
    """A zero array of ``shape`` holding each record's coefficient at its indices; the last repeat wins."""
    out = np.zeros(shape, dtype=np.complex128)
    for idx, v in records:
        out[idx] = v
    return out


def _two_body(m: int, records) -> TwoBodyTable:
    """W from the records; repeats add up in file order."""
    return TwoBodyTable(m, np.reshape([idx for idx, _ in records], (-1, 4)), [v for _, v in records])
