"""Mutated input files through ``fockops apply``: every reader either reads a file or refuses it in one line.

Each case starts from a valid integral file and a valid vector file, mutates
one of them (truncations, byte flips, inserted bytes, header numbers swapped
for 0, -1, 10^11 or 10^30) and runs ``cli.main(["apply", ...])`` in-process.
The oracle: exit 0 or 2, and on 2 exactly one ``fockops:`` line on stderr.
"""

import contextlib
import io
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockops import (
    IntegralFormatError,
    MixtureSpace,
    SpaceDescriptor,
    TwoBodyTable,
    cli,
    load_integrals,
    mixture_random_state,
    random_state,
    save_integrals,
    save_state,
)
from fockops.cli import EXIT_OK, EXIT_PARSE
from fockops.mixtures import save_mixture_state
from conftest import random_hermitian_spec, random_mixture_spec

HEADER_VALUES = (0, -1, 10**11, 10**30)

# Header numbers of each file kind: text digit runs, or little-endian u64
# fields of the binary headers at these byte offsets.
_TEXT_HEADER = {
    "ints": re.compile(rb"^(?:N|M|NA|MA|NB|MB)[ \t]+(\d+)", re.MULTILINE),
    "json": re.compile(rb'"(?:N|M)": (\d+)'),
}
_BINARY_HEADER = {"vec": (9, 17, 25), "mix": (10, 18, 26, 34, 42)}

# reader -> (kind of the file that is mutated, integral file, vector file)
TARGETS = {
    "integrals": ("ints", "single.ints", "single.vec"),
    "integrals-mix": ("ints", "mix.ints", "mix.vec"),
    "integrals-dense": ("ints", "dense.ints", "dense.vec"),
    "state-binary": ("vec", "single.ints", "single.vec"),
    "state-json": ("json", "single.ints", "single.json"),
    "mixture-state": ("mix", "mix.ints", "mix.vec"),
}

mutations = st.lists(
    st.tuples(st.sampled_from(["truncate", "flip", "insert", "header"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=3,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The directory of valid input files (two single species, one of them larger, and a mixture) and their bytes by name."""
    root = tmp_path_factory.mktemp("fuzz")
    space = SpaceDescriptor.boson(2, 3)
    mspace = MixtureSpace(SpaceDescriptor.fermion(1, 2), SpaceDescriptor.boson(2, 2))
    save_integrals(random_hermitian_spec(space, seed=1), root / "single.ints")
    save_integrals(random_mixture_spec(mspace, seed=2), root / "mix.ints")
    # 441 W records: the W entries with k <= s and q <= l, a set closed under (k, s) <-> (q, l)
    dense = random_hermitian_spec(SpaceDescriptor.fermion(3, 6), seed=5)
    (k, s, q, l), v = dense.two_body.kept()
    pairs = (k <= s) & (q <= l)
    dense.two_body = TwoBodyTable(6, np.stack([k, s, q, l], 1)[pairs], v[pairs])
    save_integrals(dense, root / "dense.ints")
    save_state(random_state(dense.space, seed=6), root / "dense.vec")
    save_state(random_state(space, seed=3), root / "single.vec")
    save_state(random_state(space, seed=3), root / "single.json", fmt="json")
    save_mixture_state(mixture_random_state(mspace, seed=4), root / "mix.vec")
    return root, {path.name: path.read_bytes() for path in root.iterdir()}


def _header_fields(kind: str, data: bytes):
    """(start, end, encode) of every header number in ``data``."""
    if kind in _TEXT_HEADER:
        return [(m.start(1), m.end(1), lambda v: str(v).encode()) for m in _TEXT_HEADER[kind].finditer(data)]
    return [(at, at + 8, lambda v: struct.pack("<Q", v % 2**64))
            for at in _BINARY_HEADER[kind] if at + 8 <= len(data)]


def mutate(kind: str, data: bytes, steps) -> bytes:
    for how, at, value in steps:
        i = at % (len(data) + 1)
        if how == "truncate":
            data = data[:i]
        elif how == "flip" and i < len(data):
            data = data[:i] + bytes([data[i] ^ (value or 1)]) + data[i + 1:]
        elif how == "insert":
            data = data[:i] + bytes([value]) + data[i:]
        elif how == "header":
            fields = _header_fields(kind, data)
            if fields:
                start, end, encode = fields[at % len(fields)]
                data = data[:start] + encode(HEADER_VALUES[value % len(HEADER_VALUES)]) + data[end:]
    return data


def _apply(ints, vec) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["apply", "--file", str(ints), "--in", str(vec), "--workers", "1"])
    return code, err.getvalue()


@pytest.mark.parametrize("target", list(TARGETS))
def test_valid_files_apply(files, target):
    root, _ = files
    _, ints, vec = TARGETS[target]
    assert _apply(root / ints, root / vec) == (EXIT_OK, "")


@pytest.mark.parametrize("target", list(TARGETS))
@given(steps=mutations)
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@example(steps=[("insert", 30, 0xFF)])  # a byte that is not UTF-8 (an integral file once gave a traceback)
@example(steps=[("header", 0, 1), ("header", 1, 3)])
def test_mutated_file_is_read_or_refused_in_one_line(files, target, steps):
    root, originals = files
    kind, ints, vec = TARGETS[target]
    mutated = ints if kind == "ints" else vec
    path = root / f"mutated-{mutated}"
    path.write_bytes(mutate(kind, originals[mutated], steps))
    code, err = _apply(path if kind == "ints" else root / ints, root / vec if kind == "ints" else path)
    assert code in (EXIT_OK, EXIT_PARSE)
    if code == EXIT_PARSE:
        assert err.startswith("fockops: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind,name,n_fields", [
    ("ints", "single.ints", 2), ("ints", "mix.ints", 4), ("json", "single.json", 2),
    ("vec", "single.vec", 3), ("mix", "mix.vec", 5),
])
def test_every_header_number_can_be_swapped(files, kind, name, n_fields):
    _, originals = files
    data = originals[name]
    assert len(_header_fields(kind, data)) == n_fields
    for field in range(n_fields):
        assert mutate(kind, data, [("header", field, 1)]) != data


# tag -> (species whose M bounds each orbital, usage message) of the reference reader
_REFERENCE_KINDS = {
    False: {"H": ((0, 0), "H record needs k q re [im]"), "W": ((0,) * 4, "W record needs k s q l re [im]")},
    True: {"HA": ((0, 0), "H record needs k q re [im]"), "WA": ((0,) * 4, "W record needs k s q l re [im]"),
           "HB": ((1, 1), "H record needs k q re [im]"), "WB": ((1,) * 4, "W record needs k s q l re [im]"),
           "X": ((0, 0, 1, 1), "X record needs k q k' q' re [im]")},
}


def _reference_records(path, data: bytes):
    """Read an integral file line by line: ``int`` on each orbital token, ``float`` on each coefficient token.

    The header goes through ``load_integrals`` itself: ``path`` is rewritten to hold
    only the lines up to the last size line, so a header error is the library's own.
    Each record is then checked in file order by tag, token count, integers, orbital
    range, coefficients and finiteness, and the first failure is raised.  Returns the
    spaces and, per tag, the records' (0-based orbitals, coefficient) in file order.
    """
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError:
        raise IntegralFormatError(f"{path} is not UTF-8 text") from None
    toks = [line.partition("#")[0].split() for line in lines]
    held = [no for no, tok in enumerate(toks, start=1) if tok]
    mix = bool(held) and len(toks[held[0] - 1]) >= 2 and toks[held[0] - 1][1].upper() == "MIX"
    n_head = 5 if mix else 3  # STATISTICS and the size lines
    cut = held[n_head - 1] if len(held) >= n_head else len(lines)
    path.write_text("\n".join(lines[:cut]) + "\n", encoding="utf-8")
    head = load_integrals(path)
    spaces = [head.mspace.space_a, head.mspace.space_b] if mix else [head.space]
    kinds, records = _REFERENCE_KINDS[mix], {tag: [] for tag in _REFERENCE_KINDS[mix]}
    for no in held[n_head:]:
        tok = toks[no - 1]
        if tok[0].upper() not in kinds:
            raise IntegralFormatError(f"unknown record {tok[0]!r}", no)
        species, usage = kinds[tok[0].upper()]
        orbitals, vals = tok[1:len(species) + 1], tok[len(species) + 1:]
        if len(vals) not in (1, 2):
            raise IntegralFormatError(usage, no)
        ints = []
        for t in orbitals:
            try:
                ints.append(int(t))
            except ValueError:
                raise IntegralFormatError(f"expected integer, got {t!r}", no) from None
        for i, sp in zip(ints, species):
            if not 1 <= i <= spaces[sp].m:
                raise IntegralFormatError(f"orbital index {i} outside [1, {spaces[sp].m}]", no)
        try:
            value = complex(*map(float, vals))
        except ValueError:
            raise IntegralFormatError(f"bad coefficient {' '.join(vals)!r}", no) from None
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise IntegralFormatError(f"non-finite coefficient {' '.join(vals)!r}", no)
        records[tok[0].upper()].append((tuple(i - 1 for i in ints), value))
    return spaces, records


def _reference_tables(spaces, records) -> dict:
    """The arrays ``load_integrals`` must give for these records: the last H and X repeat wins, W repeats add up."""
    out = {}
    for tag, recs in records.items():
        if tag.startswith("W"):
            m = spaces[tag == "WB"].m
            table = TwoBodyTable(m, np.array([r[0] for r in recs], dtype=np.int64).reshape(-1, 4),
                                 np.array([r[1] for r in recs], dtype=np.complex128))
            out[tag] = (table.indices, table.values)
        else:
            shape = (spaces[0].m,) * 2 + (spaces[-1].m,) * 2 if tag == "X" else (spaces[tag == "HB"].m,) * 2
            dense = np.zeros(shape, dtype=np.complex128)
            for at, value in recs:
                dense[at] = value
            out[tag] = (dense,)
    return out


def _library_tables(spec) -> dict:
    if hasattr(spec, "mspace"):
        parts = {"A": spec.spec_a, "B": spec.spec_b}
        return {"X": (spec.inter.tensor,),
                **{f"H{k}": (s.one_body.matrix,) for k, s in parts.items()},
                **{f"W{k}": (s.two_body.indices, s.two_body.values) for k, s in parts.items()}}
    return {"H": (spec.one_body.matrix,), "W": (spec.two_body.indices, spec.two_body.values)}


@pytest.mark.parametrize("target", ["integrals", "integrals-mix", "integrals-dense"])
@given(steps=mutations)
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@example(steps=[("insert", 30, 0xFF)])
@example(steps=[("header", 0, 1), ("header", 1, 3)])
def test_mutated_integral_file_reads_as_the_line_by_line_reference(files, target, steps):
    """The column reader gives the reference's tables bit for bit, or refuses the file with the reference's message."""
    root, originals = files
    _, ints, _ = TARGETS[target]
    data = mutate("ints", originals[ints], steps)
    path = root / f"reference-{ints}"
    path.write_bytes(data)
    try:
        got = _library_tables(load_integrals(path))
    except IntegralFormatError as exc:
        got = str(exc)
    try:
        expected = _reference_tables(*_reference_records(path, data))
    except IntegralFormatError as exc:
        expected = str(exc)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert got.keys() == expected.keys()
        for tag in got:
            assert [a.dtype for a in got[tag]] == [a.dtype for a in expected[tag]], tag
            assert [a.shape for a in got[tag]] == [a.shape for a in expected[tag]], tag
            assert [a.tobytes() for a in got[tag]] == [a.tobytes() for a in expected[tag]], tag
