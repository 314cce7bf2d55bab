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
from .errors import IntegralFormatError, ValidationError
from .fockspace import SpaceDescriptor

DENSE_TWO_BODY_LIMIT = 32  # orbitals; above this W is kept as a coordinate list
HERMITICITY_TOL = 1e-12


def require_finite(values, what: str) -> None:
    """Raise ValidationError unless every coefficient in ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} table has a non-finite coefficient")


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
        return complex(self.matrix[k - 1, q - 1])

    def entries(self, threshold: float = 0.0) -> Iterator[tuple[int, int, complex]]:
        """(k, q, value) for nonzero values with |value| >= threshold, row-major, 1-based."""
        for k in range(1, self.m + 1):
            row = self.matrix[k - 1]
            for q in range(1, self.m + 1):
                v = row[q - 1]
                if v != 0 and abs(v) >= threshold:
                    yield k, q, complex(v)


class TwoBodyTable:
    """M^4 complex tensor of two-body coefficients W_ksql.

    Stored dense up to M = 32 orbitals; larger tables hold a coordinate
    list of nonzero entries sorted in storage order.
    """

    __slots__ = ("m", "dense", "indices", "values")

    def __init__(self, m: int, dense=None, indices=None, values=None):
        for arr in (dense, values):
            if arr is not None:
                require_finite(arr, "two-body")
        self.m = int(m)
        self.dense = dense
        self.indices = indices
        self.values = values

    @classmethod
    def from_dense(cls, tensor) -> "TwoBodyTable":
        tensor = np.asarray(tensor, dtype=np.complex128)
        if tensor.ndim != 4 or len(set(tensor.shape)) != 1:
            raise ValidationError(f"two-body table must be M^4, got {tensor.shape}")
        return cls(tensor.shape[0], dense=tensor)

    @classmethod
    def zeros(cls, m: int) -> "TwoBodyTable":
        if m <= DENSE_TWO_BODY_LIMIT:
            return cls(m, dense=np.zeros((m, m, m, m), dtype=np.complex128))
        return cls(
            m,
            indices=np.empty((0, 4), dtype=np.int64),
            values=np.empty(0, dtype=np.complex128),
        )

    @classmethod
    def from_entries(cls, m: int, entries: Sequence[tuple[int, int, int, int, complex]]) -> "TwoBodyTable":
        """Build from 1-based (k, s, q, l, value) items; duplicates accumulate."""
        tab = cls.zeros(m)
        if tab.dense is not None:
            for k, s, q, l, v in entries:
                tab._check(k, s, q, l)
                tab.dense[k - 1, s - 1, q - 1, l - 1] += v
            require_finite(tab.dense, "two-body")  # a sum keeps any nan or inf
            return tab
        acc: dict[tuple, complex] = {}
        for k, s, q, l, v in entries:
            tab._check(k, s, q, l)
            key = (k - 1, s - 1, q - 1, l - 1)
            acc[key] = acc.get(key, 0.0) + v
        keys = sorted(acc)
        tab.indices = np.array(keys, dtype=np.int64).reshape(len(keys), 4)
        tab.values = np.array([acc[k] for k in keys], dtype=np.complex128)
        require_finite(tab.values, "two-body")
        return tab

    def _check(self, k, s, q, l):
        for idx in (k, s, q, l):
            if not 1 <= idx <= self.m:
                raise ValidationError(f"orbital index {idx} outside [1, {self.m}]")

    def get(self, k: int, s: int, q: int, l: int) -> complex:
        if self.dense is not None:
            return complex(self.dense[k - 1, s - 1, q - 1, l - 1])
        key = np.array([k - 1, s - 1, q - 1, l - 1])
        hits = np.all(self.indices == key, axis=1).nonzero()[0]
        return complex(self.values[hits[0]]) if hits.size else 0.0

    def set(self, k: int, s: int, q: int, l: int, value: complex) -> None:
        if self.dense is None:
            raise ValidationError("sparse two-body tables are immutable; rebuild via from_entries")
        self._check(k, s, q, l)
        require_finite(value, "two-body")
        self.dense[k - 1, s - 1, q - 1, l - 1] = value

    def entries(self, threshold: float = 0.0) -> Iterator[tuple[int, int, int, int, complex]]:
        """(k, s, q, l, value) in storage order, nonzero with |value| >= threshold."""
        if self.dense is not None:
            keep = (self.dense != 0) & (np.abs(self.dense) >= threshold)
            for k0, s0, q0, l0 in np.argwhere(keep):
                yield k0 + 1, s0 + 1, q0 + 1, l0 + 1, complex(self.dense[k0, s0, q0, l0])
        else:
            for (k0, s0, q0, l0), v in zip(self.indices, self.values):
                if v != 0 and abs(v) >= threshold:
                    yield int(k0) + 1, int(s0) + 1, int(q0) + 1, int(l0) + 1, complex(v)

    def to_dense(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        out = np.zeros((self.m,) * 4, dtype=np.complex128)
        for k, s, q, l, v in self.entries():
            out[k - 1, s - 1, q - 1, l - 1] = v
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


def validate(spec: HamiltonianSpec, tol: float = HERMITICITY_TOL) -> ValidationReport:
    """Report hermiticity of h and self-adjointness of the two-body sum.

    The two-body condition under the locked pairing is
    W[k, s, q, l] = conj(W[q, l, k, s]).
    """
    h = spec.one_body.matrix
    dev1 = np.abs(h - h.conj().T)
    worst1 = None
    max1 = 0.0
    if dev1.size:
        flat = int(np.argmax(dev1))
        k0, q0 = np.unravel_index(flat, dev1.shape)
        max1 = float(dev1[k0, q0])
        worst1 = (int(k0) + 1, int(q0) + 1)
    w = spec.two_body.to_dense()
    dev2 = np.abs(w - np.conj(np.transpose(w, (2, 3, 0, 1))))
    worst2 = None
    max2 = 0.0
    if dev2.size:
        flat = int(np.argmax(dev2))
        idx = np.unravel_index(flat, dev2.shape)
        max2 = float(dev2[idx])
        worst2 = tuple(int(i) + 1 for i in idx)
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
    """Return the self-adjoint part (W + conj(W^T-pairing)) / 2 (on request only)."""
    w = table.to_dense()
    return TwoBodyTable.from_dense(0.5 * (w + np.conj(np.transpose(w, (2, 3, 0, 1)))))


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
    w = TwoBodyTable.zeros(sites)
    for k in range(1, sites + 1):
        w.set(k, k, k, k, interaction)
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


def load_integrals(path):
    """Parse an integral file into a Hamiltonian spec (single species or mixture).

    Unlisted entries are zero.  Raises :class:`IntegralFormatError` with the
    offending line number on malformed input.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
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
        return _load_mixture(toks)
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
    space = SpaceDescriptor(statistics, sizes["N"], sizes["M"])
    m = space.m
    h = np.zeros((m, m), dtype=np.complex128)
    w_entries = []
    for no, tok in toks[body_start:]:
        tag = tok[0].upper()
        if tag == "H":
            k, q, v = _one_body_line(tok, no, m)
            h[k - 1, q - 1] = v
        elif tag == "W":
            w_entries.append(_two_body_line(tok, no, m))
        else:
            raise IntegralFormatError(f"unknown record {tok[0]!r}", no)
    wtab = TwoBodyTable.from_entries(m, [(k, s, q, l, v) for k, s, q, l, v in w_entries])
    return HamiltonianSpec(space, OneBodyTable(h), wtab)


def _load_mixture(toks):
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
    space_a = SpaceDescriptor(stat_a, sizes["NA"], sizes["MA"])
    space_b = SpaceDescriptor(stat_b, sizes["NB"], sizes["MB"])
    ma, mb = space_a.m, space_b.m
    ha = np.zeros((ma, ma), dtype=np.complex128)
    hb = np.zeros((mb, mb), dtype=np.complex128)
    wa_entries, wb_entries = [], []
    wab = np.zeros((ma, ma, mb, mb), dtype=np.complex128)
    for no, tok in toks[idx:]:
        tag = tok[0].upper()
        if tag == "HA":
            k, q, v = _one_body_line(tok, no, ma)
            ha[k - 1, q - 1] = v
        elif tag == "HB":
            k, q, v = _one_body_line(tok, no, mb)
            hb[k - 1, q - 1] = v
        elif tag == "WA":
            wa_entries.append(_two_body_line(tok, no, ma))
        elif tag == "WB":
            wb_entries.append(_two_body_line(tok, no, mb))
        elif tag == "X":
            if len(tok) not in (6, 7):
                raise IntegralFormatError("X record needs k q k' q' re [im]", no)
            k, q, kp, qp = (_int(t, no) for t in tok[1:5])
            _check_range(((k, ma), (q, ma), (kp, mb), (qp, mb)), no)
            wab[k - 1, q - 1, kp - 1, qp - 1] = _value(tok[5:], no)
        else:
            raise IntegralFormatError(f"unknown record {tok[0]!r}", no)
    spec_a = HamiltonianSpec(space_a, OneBodyTable(ha), TwoBodyTable.from_entries(ma, wa_entries))
    spec_b = HamiltonianSpec(space_b, OneBodyTable(hb), TwoBodyTable.from_entries(mb, wb_entries))
    return MixtureHamiltonianSpec(
        MixtureSpace(space_a, space_b), spec_a, spec_b, InterSpeciesTable(wab)
    )


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


def _check_range(pairs, no: int) -> None:
    for idx, m in pairs:
        if not 1 <= idx <= m:
            raise IntegralFormatError(f"orbital index {idx} outside [1, {m}]", no)


def _one_body_line(tok, no, m):
    if len(tok) not in (4, 5):
        raise IntegralFormatError("H record needs k q re [im]", no)
    k, q = _int(tok[1], no), _int(tok[2], no)
    _check_range(((k, m), (q, m)), no)
    return k, q, _value(tok[3:], no)


def _two_body_line(tok, no, m):
    if len(tok) not in (6, 7):
        raise IntegralFormatError("W record needs k s q l re [im]", no)
    k, s, q, l = (_int(t, no) for t in tok[1:5])
    _check_range(((k, m), (s, m), (q, m), (l, m)), no)
    return k, s, q, l, _value(tok[5:], no)
