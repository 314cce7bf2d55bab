"""Matrix-free application of operator strings to state vectors.

Every balanced string of creation/annihilation operators maps each
configuration to exactly one configuration times a prefactor, so the action
on a state vector is a permutation-with-weights of its amplitudes.  The
kernel computes each output amplitude by *gathering* from its uniquely
determined source address: the elementary steps are undone one by one on
the output configuration (vectorized over all addresses at once),
accumulating the fermionic parity from prefix occupation counts or the
bosonic sqrt factors from the running occupations, while the source address
is obtained by shifting the combinadic rank terms of the affected orbitals.

Index-coincidence cases (k = q, k = s, ...) are defined by this sequential
elementary construction, which makes every term total; for pairwise
distinct indices it reproduces the closed-form sign (-1)^{d} between-counts
and sqrt(n) weights exactly.  Two-body gathers with distinct create/
annihilate pairs are composed from the cached one-body gathers, which is
an exact operator identity (b†_k b†_s b_l b_q = b†_s b_l b†_k b_q for
l != k).

Sums of terms (the Hamiltonian) are partitioned by output rows, not by
terms: one zeroed output buffer is cut into fixed blocks of rows, and each
block applies every term in canonical order to its own rows.  No amplitude
is summed across blocks, so there is no reduction; a worker count only
decides which thread computes which whole blocks, and every amplitude is
summed in the same order for any worker count (bitwise identical results).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

import numpy as np

from .combinadics import FERMION
from .errors import FockError, SpaceMismatchError
from .fockspace import FermionConfig, SpaceDescriptor, StateVector

DEFAULT_SKIP_THRESHOLD = 1e-15

# An elementary op is ("a", p) or ("c", p); a term is a tuple of them in
# application order (rightmost operator of the string first).
Ops = tuple[tuple[str, int], ...]


def one_body_ops(k: int, q: int) -> Ops:
    """Elementary steps of b†_k b_q."""
    return (("a", q), ("c", k))


def two_body_ops(k: int, s: int, l: int, q: int) -> Ops:
    """Elementary steps of b†_k b†_s b_l b_q."""
    return (("a", q), ("a", l), ("c", s), ("c", k))


def fermion_sign_count(config, k: int, q: int) -> int:
    """Number of occupied orbitals strictly between k and q (d^{kq}).

    ``config`` is a bit-set integer (bit p-1 set iff orbital p occupied)
    or a :class:`FermionConfig`.  Endpoints are excluded; adjacent k, q
    give 0.
    """
    bits = config.bits if isinstance(config, FermionConfig) else int(config)
    lo, hi = (k, q) if k < q else (q, k)
    if hi - lo <= 1:
        return 0
    mask = ((1 << (hi - 1)) - 1) & ~((1 << lo) - 1)
    return (bits & mask).bit_count()


def _check_orbitals(space: SpaceDescriptor, orbitals: Iterable[int]) -> None:
    for p in orbitals:
        if not 1 <= p <= space.m:
            raise FockError(f"orbital {p} outside [1, {space.m}]")


def term_gather(space: SpaceDescriptor, ops: Ops):
    """(source row, prefactor, mask, acting rows) for a term, cached per space.

    ``src`` and ``pref`` are full-length (garbage outside the mask); ``act``
    lists the 0-based output rows on which the term acts.
    """
    tb = space.tables()
    return tb.cached_gather(ops, lambda: _build_gather(space, tb, ops))


def _build_gather(space, tb, ops):
    if len(ops) == 4 and ops[1][1] != ops[3][1]:
        # b†_s b_l applied after b†_k b_q equals the canonical order for l != k
        (_, q), (_, l), (_, s), (_, k) = ops
        src1, pref1, mask1, _ = term_gather(space, one_body_ops(k, q))
        src2, pref2, mask2, _ = term_gather(space, one_body_ops(s, l))
        src = src1[src2]
        pref = pref2 * pref1[src2]
        mask = mask2 & mask1[src2]
    elif space.statistics == FERMION:
        src, pref, mask = _fermion_gather(space, tb, ops)
    else:
        src, pref, mask = _boson_gather(space, tb, ops)
    act = np.flatnonzero(mask)
    np.clip(src, 0, space.n_conf - 1, out=src)
    for arr in (src, pref, mask, act):
        arr.flags.writeable = False
    return src, pref, mask, act


def _fermion_gather(space, tb, ops):
    occ, prefix = tb.occ, tb.prefix
    r = space.n_conf
    mask = np.ones(r, dtype=bool)
    expo = np.zeros(r, dtype=np.int64)
    flips: dict[int, int] = {}
    for kind, p in reversed(ops):
        corr = sum(f for c, f in flips.items() if c < p)
        cur = occ[:, p - 1] + flips.get(p, 0)
        if kind == "c":
            mask &= cur == 1
            flips[p] = flips.get(p, 0) - 1
        else:
            mask &= cur == 0
            flips[p] = flips.get(p, 0) + 1
        # phase of the forward step is the occupancy below p at that moment
        expo += prefix[:, p - 1] + corr
    pref = np.where((expo & 1).astype(bool), -1.0, 1.0)
    net = {p: f for p, f in flips.items() if f != 0}
    if not net:
        return np.arange(r, dtype=np.int64), pref, mask
    m, n = space.m, space.n
    m_v = m - n
    tbl = space.binomials.array
    bmax = tbl.shape[1] - 1
    jsrc = np.ones(r, dtype=np.int64)
    for p in range(1, m + 1):
        occ_src = occ[:, p - 1] + net.get(p, 0)
        pcorr = sum(f for c, f in net.items() if c <= p)
        b = m_v + 1 - p + prefix[:, p] + pcorr
        hole = occ_src == 0
        valid = hole & (b >= 0) & (b <= bmax)
        bb = np.where(valid, b, 0)
        jsrc += np.where(valid, tbl[m - p, bb], 0)
    return jsrc - 1, pref, mask


def _boson_gather(space, tb, ops):
    occ = tb.occ
    r, m = occ.shape
    mask = np.ones(r, dtype=bool)
    # exact integer product of the sqrt arguments; one rounding at the end
    # keeps diagonal weights like n_k (n_k - 1) exact
    prod = np.ones(r, dtype=np.int64)
    deltas: dict[int, int] = {}
    for kind, p in reversed(ops):
        cur = occ[:, p - 1] + deltas.get(p, 0)
        if kind == "c":
            mask &= cur >= 1
            prod *= np.maximum(cur, 0)
            deltas[p] = deltas.get(p, 0) - 1
        else:
            prod *= np.maximum(cur + 1, 0)
            deltas[p] = deltas.get(p, 0) + 1
    pref = np.sqrt(prod.astype(np.float64))
    net = {p: d for p, d in deltas.items() if d != 0}
    if not net:
        return np.arange(r, dtype=np.int64), pref, mask
    arg, val = tb.addr_arg, tb.addr_val
    tbl = space.binomials.array
    amax = tbl.shape[0] - 1
    jdelta = np.zeros(r, dtype=np.int64)
    lo, hi = min(net), max(net)
    for col in range(lo, hi):  # rank-sum columns whose cumulative count shifts
        shift = sum(d for c, d in net.items() if c <= col)
        if shift == 0:
            continue
        a_src = arg[:, col - 1] - shift
        valid = (a_src >= 0) & (a_src <= amax)
        aa = np.where(valid, a_src, 0)
        jdelta += np.where(valid, tbl[aa, m - col], 0) - val[:, col - 1]
    return np.arange(r, dtype=np.int64) + jdelta, pref, mask


def apply_gather(gather, amps: np.ndarray, out: np.ndarray, coeff: complex = 1.0,
                 lo: int = 0, hi: int | None = None, axis: int = -1) -> None:
    """Add coeff * (gathered term) into ``out`` on output rows lo <= r < hi along ``axis``.

    ``gather`` is a :func:`term_gather` tuple; ``hi=None`` means every row.
    """
    src, pref, _, act = gather
    rows = act if hi is None else rows_in(act, lo, hi)
    if rows.size:
        amps_m = amps.swapaxes(axis, -1)
        out_m = out.swapaxes(axis, -1)
        out_m[..., rows] += coeff * (pref[rows] * amps_m[..., src[rows]])


def rows_in(act: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The entries of the sorted row list ``act`` that lie in [lo, hi)."""
    i, j = act.searchsorted((lo, hi))
    return act[i:j]


def apply_term_ops(
    space: SpaceDescriptor,
    ops: Ops,
    amps: np.ndarray,
    out: np.ndarray | None = None,
    coeff: complex = 1.0,
    axis: int = -1,
) -> np.ndarray:
    """Accumulate coeff * (term acting on ``amps``) into ``out`` along ``axis``."""
    if out is None:
        out = np.zeros_like(amps, dtype=np.complex128)
    apply_gather(term_gather(space, ops), amps, out, coeff, axis=axis)
    return out


def apply_one_body_term(k: int, q: int, psi: StateVector) -> StateVector:
    """|Psi^{kq}> = b†_k b_q |Psi>; k = q gives the number-operator weighting."""
    _check_orbitals(psi.space, (k, q))
    out = apply_term_ops(psi.space, one_body_ops(k, q), psi.amplitudes)
    return StateVector(psi.space, out)


def apply_two_body_term(k: int, s: int, l: int, q: int, psi: StateVector) -> StateVector:
    """b†_k b†_s b_l b_q |Psi> for any index pattern, coincidences included."""
    _check_orbitals(psi.space, (k, s, l, q))
    out = apply_term_ops(psi.space, two_body_ops(k, s, l, q), psi.amplitudes)
    return StateVector(psi.space, out)


# -- row blocks --------------------------------------------------------------

# Amplitudes per block: a constant, so blocks never depend on the worker
# count.  Each (block, term) pair pays a few numpy calls of fixed overhead,
# so blocks must be large: on a 2-core x86 VM, with the mixture-prop
# benchmark input (55,440 amplitudes, 44 terms), 2^12 made a matvec 1.8x
# slower than 2^14, while 2^14 and 2^16 timed alike.  2^14 is the smallest
# size without that cost, so vectors above 16k amplitudes still split into
# blocks that workers can share.
BLOCK_AMPLITUDES = 1 << 14


def run_row_blocks(run_block: Callable[[int, int], None], n_rows: int,
                   row_width: int = 1, workers: int = 1) -> None:
    """Call ``run_block(lo, hi)`` on each fixed block of rows, on up to ``workers`` threads.

    A row holds ``row_width`` amplitudes; a block holds about
    :data:`BLOCK_AMPLITUDES` of them and at least one row.
    """
    step = max(1, BLOCK_AMPLITUDES // row_width)
    blocks = [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            list(pool.map(lambda block: run_block(*block), blocks))
    else:
        for lo, hi in blocks:
            run_block(lo, hi)


def hamiltonian_terms(spec, skip_threshold: float = DEFAULT_SKIP_THRESHOLD) -> list[tuple[Ops, complex]]:
    """Canonical term list: one-body row-major, then two-body in storage order.

    Two-body coefficients already carry the global 1/2.
    """
    terms: list[tuple[Ops, complex]] = []
    for k, q, v in spec.one_body.entries(skip_threshold):
        terms.append((one_body_ops(k, q), v))
    for k, s, q, l, v in spec.two_body.entries(skip_threshold):
        terms.append((two_body_ops(k, s, l, q), 0.5 * v))
    return terms


def _apply_term_list(space, terms, amps, workers: int = 1) -> np.ndarray:
    space.tables()  # built here, so block threads never race to build them
    out = np.zeros(space.n_conf, dtype=np.complex128)

    def run_block(lo, hi):
        for ops, coeff in terms:
            apply_gather(term_gather(space, ops), amps, out, coeff, lo, hi)

    run_row_blocks(run_block, space.n_conf, workers=workers)
    return out


def apply_hamiltonian(
    spec,
    psi: StateVector,
    skip_threshold: float = DEFAULT_SKIP_THRESHOLD,
    workers: int = 1,
) -> StateVector:
    """H|Psi> = sum_kq h_kq |Psi^{kq}> + (1/2) sum_ksql W_ksql |Psi^{kslq}>."""
    if spec.space != psi.space:
        raise SpaceMismatchError("Hamiltonian and state belong to different spaces")
    space = spec.space
    terms = hamiltonian_terms(spec, skip_threshold)
    return StateVector(space, _apply_term_list(space, terms, psi.amplitudes, workers))


def apply_one_body_operator(
    h, psi: StateVector, skip_threshold: float = DEFAULT_SKIP_THRESHOLD
) -> StateVector:
    """Total action of all one-body terms, sum_kq h_kq b†_k b_q |Psi>."""
    space = psi.space
    if h.m != space.m:
        raise SpaceMismatchError(f"one-body table for M={h.m} applied in M={space.m} space")
    terms = [(one_body_ops(k, q), v) for k, q, v in h.entries(skip_threshold)]
    return StateVector(space, _apply_term_list(space, terms, psi.amplitudes))
