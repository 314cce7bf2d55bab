"""Mutated input files through ``fockops apply``: every reader either reads a file or refuses it in one line.

Each case starts from a valid integral file and a valid vector file, mutates
one of them (truncations, byte flips, inserted bytes, header numbers swapped
for 0, -1, 10^11 or 10^30) and runs ``cli.main(["apply", ...])`` in-process.
The oracle: exit 0 or 2, and on 2 exactly one ``fockops:`` line on stderr.
"""

import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockops import (
    MixtureSpace,
    SpaceDescriptor,
    TwoBodyTable,
    cli,
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
