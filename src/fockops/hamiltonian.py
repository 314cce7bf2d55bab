"""Second-quantized coefficient tables and their file format.

Index conventions (locked throughout the package): the one-body coefficient
h[k, q] multiplies b†_k b_q; the two-body coefficient W[k, s, q, l] (storage
subscript order k s q l) multiplies b†_k b†_s b_l b_q, carrying a global 1/2
prefactor in the Hamiltonian sum.  The pairing is (k <-> q) and (s <-> l).
No symmetry is assumed or imposed on the stored tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .combinadics import BOSON, FERMION
from .errors import FockError, IntegralFormatError, ValidationError
from .fockspace import MAX_SPACE_TABLE, SpaceDescriptor, header_space

HERMITICITY_TOL = 1e-12
_LEXICOGRAPHIC = np.array([8, 4, 2, 1])  # sign(b - a) @ this is > 0, 0, < 0 as coordinate b follows, equals, precedes a


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
        if values.size and (indices.min() < 0 or indices.max() >= self.m):
            _check_orbitals(self.m, indices[(indices < 0) | (indices >= self.m)][:1] + 1)  # the first bad one, 1-based
        rank = np.sign(indices[1:] - indices[:-1]) @ _LEXICOGRAPHIC
        if (rank < 0).any():  # files and from_dense give storage order, so this sort is rare
            order = np.lexsort(indices.T[::-1])  # stable, so repeats keep the order given
            indices, values = indices[order], values[order]
            rank = np.sign(indices[1:] - indices[:-1]) @ _LEXICOGRAPHIC
        if rank.all():
            values = values + 0  # a lone entry as a sum from zero reads it: a -0.0 part becomes +0.0
        else:
            first = np.concatenate(([True], rank != 0))
            summed = np.zeros(np.count_nonzero(first), dtype=np.complex128)
            np.add.at(summed, first.cumsum() - 1, values)
            indices, values = indices[first], summed
        require_finite(values, "two-body")  # a sum keeps any nan or inf
        nonzero = values != 0
        self.indices, self.values = indices[nonzero], values[nonzero]  # copies: the table owns them

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


# (size names, record tags) of each species of a single-species file (False) and of a mixture (True)
_SPECIES = {False: [("N", "M", "H", "W")], True: [("NA", "MA", "HA", "WA"), ("NB", "MB", "HB", "WB")]}


def load_integrals(path):
    """Parse an integral file into a Hamiltonian spec (single species or mixture).

    A single-species file is ``STATISTICS FERMION|BOSON``, ``N <int>``, ``M <int>``, then
    records ``H k q re [im]`` (4 or 5 tokens) and ``W k s q l re [im]`` (6 or 7, storage
    order k s q l).  A mixture is ``STATISTICS MIX FERMION|BOSON FERMION|BOSON``, the
    ``NA``/``MA``/``NB``/``MB`` lines, then ``HA``/``WA`` (species A), ``HB``/``WB`` (B) and
    ``X k q k' q' re [im]`` (6 or 7: A pair k<->q, B pair k'<->q').  Each size line comes
    exactly once, in any order, right after ``STATISTICS``.  Tags are case-blind;
    orbitals are integers in ``[1, M]`` of their species; ``re`` and ``im`` are finite.
    ``#`` starts a comment; blank lines are skipped but counted.  Unlisted entries are
    zero, a repeated one-body or ``X`` record replaces the earlier one, and repeated
    two-body records add up in file order; orbitals and coefficients take the spellings of
    ``int()`` and ``float()``.  Raises :class:`IntegralFormatError` naming the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()  # text mode reads \r\n and \r as \n, so the lines are those of readlines()
    except UnicodeDecodeError:
        raise IntegralFormatError(f"{path} is not UTF-8 text") from None
    lines = text.split("\n")
    toks = list(map(str.split, [line.partition("#")[0] for line in lines] if "#" in text else lines))
    held = (no for no, tok in enumerate(toks, start=1) if tok)  # the numbers of the lines that hold tokens
    no = next(held, None)
    if no is None:
        raise IntegralFormatError("empty integral file")
    head = toks[no - 1]
    if head[0].upper() != "STATISTICS":
        raise IntegralFormatError("first line must declare STATISTICS", no)
    mix = len(head) >= 2 and head[1].upper() == "MIX"
    species, stats = _SPECIES[mix], [t.upper() for t in head[1 + mix:]]
    if len(stats) != len(species) or not {"FERMION", "BOSON"}.issuperset(stats):
        raise IntegralFormatError(f"bad statistics declaration {' '.join(head)!r}", no)
    names = [name for sp in species for name in sp[:2]]
    sizes = {}
    for no in islice(held, len(names)):
        tok = toks[no - 1]
        missing = [name for name in names if name not in sizes]
        if tok[0].upper() not in missing:
            raise IntegralFormatError(f"expected a size line {'/'.join(missing)}, got {' '.join(tok)!r}", no)
        if len(tok) != 2:
            raise IntegralFormatError(f"bad size line {' '.join(tok)!r}", no)
        sizes[tok[0].upper()] = _int(tok[1], no)
    if len(sizes) < len(names):
        raise IntegralFormatError(f"header must provide the size lines {'/'.join(names)}")
    spaces = [_header_space(FERMION if stat == "FERMION" else BOSON, sizes[n_name], sizes[m_name], path)
              for stat, (n_name, m_name, _, _) in zip(stats, species)]
    kinds = {}
    for space, (_, _, h, w) in zip(spaces, species):
        _check_table(space.m ** 2, "one-body table", path)
        kinds[h], kinds[w] = ((space.m,) * 2, _H_USAGE), ((space.m,) * 4, _W_USAGE)
    if mix:
        _check_table(spaces[0].n_conf * spaces[1].n_conf, "mixture state vector", path)
        shape = (spaces[0].m,) * 2 + (spaces[1].m,) * 2
        _check_table(math.prod(shape), "inter-species table", path)
        kinds["X"] = (shape, "X record needs k q k' q' re [im]")
    rec = _records(toks, no, kinds)  # the records follow the last size line
    specs = [_species(space, rec[h], rec[w]) for space, (_, _, h, w) in zip(spaces, species)]
    if not mix:
        return specs[0]
    from .mixtures import InterSpeciesTable, MixtureHamiltonianSpec, MixtureSpace

    return MixtureHamiltonianSpec(MixtureSpace(*spaces), *specs, InterSpeciesTable(_dense(shape, *rec["X"])))


def save_integrals(spec, path) -> None:
    """Write a spec in the integral text format (lossless, load_integrals-inverse)."""
    from .mixtures import MixtureHamiltonianSpec

    mix = isinstance(spec, MixtureHamiltonianSpec)
    specs = [spec.spec_a, spec.spec_b] if mix else [spec]
    lines = [" ".join(["STATISTICS", *["MIX"] * mix, *(s.space.statistics.upper() for s in specs)])]
    tables = []
    for s, (n_name, m_name, h, w) in zip(specs, _SPECIES[mix]):
        lines += [f"{n_name} {s.space.n}", f"{m_name} {s.space.m}"]
        tables += [(h, s.one_body), (w, s.two_body)]
    if mix:
        tables.append(("X", spec.inter))
    for tag, table in tables:  # entries() gives 1-based indices, then the value
        lines += [" ".join([tag, *map(str, e[:-1]), repr(e[-1].real), repr(e[-1].imag)]) for e in table.entries()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _int(tok: str, no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise IntegralFormatError(f"expected integer, got {tok!r}", no) from None


_H_USAGE = "H record needs k q re [im]"
_W_USAGE = "W record needs k s q l re [im]"


_PADS, _PAD_AT = ("1", "0"), np.array([-2] * 4 + [-1] * 2)  # read where a record lacks an orbital slot or im


@functools.lru_cache(maxsize=8)
def _layout(kinds: tuple) -> tuple:
    """Per kind of record: the places after its tag of 4 orbital slots, re and im (a slot it lacks lies past any
    record), its orbital limits padded with 1; its code by tag; ``str(i) -> i - 1`` for the orbitals all kinds take."""
    rows = [[*range(1, n + 1), *[1 << 30] * (4 - n), n + 1, n + 2, *lim, *[1] * (4 - n)]
            for _, (lim, _) in kinds for n in [len(lim)]]
    return (np.array(rows, dtype=np.int64), {tag: code for code, (tag, _) in enumerate(kinds)},
            {str(i + 1): i for i in range(min(min(lim) for _, (lim, _) in kinds))})


def _records(toks, first: int, kinds) -> dict:
    """Convert the records a column at a time: one gather, then one ``int`` and one ``float`` pass.

    The records are the lines of ``toks`` from the 0-based ``first`` on that hold tokens, and ``kinds``
    maps each tag to (orbital limits, usage message).  Returns, per tag, its 0-based indices (one row per
    index column) and coefficients in file order.  On any failure it raises for the first bad line.
    """
    width = np.fromiter(map(len, islice(toks, first, None)), np.intp, len(toks) - first)
    rows = width.nonzero()[0]  # the record lines, from first
    width = width[rows]
    flat = np.fromiter(chain(chain.from_iterable(islice(toks, first, None)), _PADS), object, width.sum() + 2)
    start = np.cumsum(width) - width  # each record's tag in flat
    tags = flat[start].tolist()
    layout, code_by_tag, spelled = _layout(tuple(kinds.items()))
    try:
        code_of = {spelling: code_by_tag[spelling.upper()] for spelling in set(tags)}
        code = np.fromiter(map(code_of.__getitem__, tags), np.intp, len(tags))
        kind = layout[code]
        if ((width - kind[:, 5]) & -2).any():  # re [im] follow the orbitals: im's place or one more
            raise ValueError("token count")
        field = flat[np.where(kind[:, :6] < width[:, None], kind[:, :6] + start[:, None], _PAD_AT).T]  # (6, records)
        at = field[:4].ravel().tolist()
        try:  # an orbital every kind takes, so in range
            idx = np.fromiter(map(spelled.__getitem__, at), np.int64, len(at)).reshape(4, -1)
        except KeyError:
            idx = np.fromiter(map(int, at), np.int64, len(at)).reshape(4, -1) - 1
            if (idx.view(np.uint64) >= kind[:, 6:].T.view(np.uint64)).any():  # unsigned: an orbital 0 is out too
                raise ValueError("orbital range") from None
        at = field[4:].T.ravel().tolist()
        values = np.fromiter(map(float, at), np.float64, len(at)).view(np.complex128)  # (re, im) pairs
        if not np.isfinite(values).all():
            raise ValueError("non-finite coefficient")
    except (KeyError, ValueError, OverflowError):  # also an unknown tag or an orbital beyond int64
        raise next(e for no in (rows + first + 1).tolist() if (e := _record_error(toks[no - 1], no, kinds))) from None
    order = np.argsort(code, kind="stable") if (code[1:] < code[:-1]).any() else slice(None)  # tags together
    idx, values, ends = idx[:, order], values[order], np.bincount(code, minlength=len(kinds)).cumsum().tolist()
    return {tag: (idx[:len(lim), a:b], values[a:b]) for (tag, (lim, _)), a, b in zip(kinds.items(), [0, *ends], ends)}


def _record_error(tok, no: int, kinds) -> Optional[IntegralFormatError]:
    """The error of a record's first failed check (tag, token count, integers, orbital range, coefficient,
    finiteness, in this order), or None."""
    try:
        if tok[0].upper() not in kinds:
            return IntegralFormatError(f"unknown record {tok[0]!r}", no)
        limits, usage = kinds[tok[0].upper()]
        vals = tok[len(limits) + 1:]
        if len(vals) not in (1, 2):
            return IntegralFormatError(usage, no)
        for i, m in zip([_int(t, no) for t in tok[1:len(limits) + 1]], limits):
            if not 1 <= i <= m:
                return IntegralFormatError(f"orbital index {i} outside [1, {m}]", no)
        if not all(map(math.isfinite, [float(t) for t in vals])):
            return IntegralFormatError(f"non-finite coefficient {' '.join(vals)!r}", no)
    except IntegralFormatError as exc:
        return exc
    except ValueError:  # from float; _int words its own
        return IntegralFormatError(f"bad coefficient {' '.join(vals)!r}", no)
    return None


def _dense(shape, idx, values) -> np.ndarray:
    """A zero array of ``shape`` holding each record's coefficient at its indices; the last repeat wins."""
    out = np.zeros(shape, dtype=np.complex128)
    flat = np.ravel_multi_index(idx, shape)
    last = np.zeros(out.size, dtype=np.intp)  # 1 + the position of the last record at each entry
    np.maximum.at(last, flat, np.arange(1, len(values) + 1))
    out.flat[flat] = values[last[flat] - 1]  # repeats write the same value, so their order does not matter
    return out


def _species(space: SpaceDescriptor, h, w) -> HamiltonianSpec:
    """One species' spec from its H and W records."""
    return HamiltonianSpec(space, OneBodyTable(_dense((space.m,) * 2, *h)), TwoBodyTable(space.m, w[0].T, w[1]))
