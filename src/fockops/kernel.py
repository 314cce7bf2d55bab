"""Matrix-free application of the pair operators E_kq = b†_k b_q to state vectors.

E_kq is the only operator the kernel knows.  It maps each configuration to
exactly one configuration times a prefactor, so its action on a state vector
is a permutation-with-weights of the amplitudes.  The kernel computes each
output amplitude by *gathering* from its uniquely determined source address,
vectorized over all addresses at once.  On an output configuration n, with
S_p particles in the orbitals below p, E_kq acts where n_k >= 1 (fermions:
n_k = 1, and n_q = 0 unless k = q) with the weight (-1)^(S_k + S_q - [k < q])
for fermions and sqrt(n_k (n_q + [k != q])) for bosons.  Both statistics
share one address table, the lexical addressing of Knowles & Handy (below):
an address is 1 plus one rank term per orbital, so the source address of
each acting row is its own address shifted by the differing rank terms of
the orbitals from min(k, q) to max(k, q).

Longer strings are products of pairs: b†_k b†_s b_l b_q = E_kq E_sl - δ_qs E_kl
for both statistics, which defines every index coincidence (k = q, k = s,
...) and, for pairwise distinct indices, reproduces the closed-form sign
(-1)^{d} between-counts and sqrt(n) weights.  The kernel applies no other
string: an arbitrary balanced string of elementary creation/annihilation
operators is taken only by the dense reference, :mod:`fockops.oracle`.

H|psi> never loops over two-body terms.  The same identity gives the
direct-CI factorization of Knowles & Handy (Chem. Phys. Lett. 111, 315,
1984) and Olsen et al. (J. Chem. Phys. 89, 2185, 1988), formed from the
entries at or above :data:`SKIP_THRESHOLD` (:func:`factor_species`):

    H psi = d * psi + sum_p h'_p E_p psi + sum_r E_r chi_r,
    chi = Wm[rows, cols] @ phi,   phi_c = E_c psi.

The solvers factor once per solve (:func:`prepare`); a spec passed to
:func:`apply_hamiltonian` is factored on every call.  When every kept entry
is real, h', Wm, d and the operator's dtype are float64, and a float64
vector stays float64 throughout: the apply computes in the common dtype of
the vector and the operator, so a real Hamiltonian moves half the bytes
on a real vector and is unchanged on a complex one.

The gathers of H's pairs E_kq with k <= q, at most M(M+1)/2 per space, are
kept in the space's gather pool under the key (k, q)
(:meth:`fockspace.SpaceTables.cached_gather`), so each is built once per
space; E_qk is served as the transpose of the kept E_kq (:func:`transpose`),
and single terms reuse a kept gather or build theirs per call.  The
output is cut into fixed blocks of rows that do not depend on the worker count:
each block first computes phi and chi for its own rows, then sums d * psi
and the sweeps into its own rows.  No amplitude is summed across blocks, so
a worker count only decides which thread computes which whole blocks, and
every amplitude is summed in the same order for any worker count (bitwise
identical results).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .combinadics import FERMION
from .errors import FockError, SpaceMismatchError
from .fockspace import FermionConfig, SpaceDescriptor, StateVector
from .hamiltonian import TwoBodyTable

# Stored entries with |value| below this are dropped before an operator is
# formed; read at call time by every apply, term list and factoring.
SKIP_THRESHOLD = 1e-15


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


def term_gather(space: SpaceDescriptor, k: int, q: int):
    """(source rows, prefactors, None, acting rows) of E_kq, 1-based orbitals.

    ``act`` lists the 0-based output rows on which E_kq acts; ``src`` and
    ``pref`` hold the source row and the prefactor of each of them, in the
    order of ``act``.  The third slot is None; the tuple keeps four slots
    because callers read ``act`` at index 3.  The space's pool is read under
    the key (min(k, q), max(k, q)), E_qk's kept gather served by its
    :func:`transpose`; a gather the pool does not hold is built for this
    call and not kept (only :func:`pair_gathers` fills the pool).
    """
    tb = space.tables()
    kept = tb._gather_cache.get((min(k, q), max(k, q)))
    if kept is None:
        return _build_gather(space, tb, k, q)
    return kept if k <= q else transpose(kept)


def transpose(gather):
    """E_qk's gather from E_kq's: the same rows and prefactors with ``act`` and ``src`` swapped.

    E_qk is the adjoint of E_kq, whose prefactors are real.  Adding a fixed
    occupation change keeps lexicographic order, so ``src`` is strictly
    increasing like ``act``, and :func:`sweep` can slice the swapped ``act``.
    """
    src, pref, _, act = gather
    return act, pref, None, src


def _build_gather(space, tb, k, q):
    """E_kq's gather from its closed-form weights on the output rows (module docstring)."""
    n_k, n_q = tb.occ[:, k - 1], tb.occ[:, q - 1]
    if space.statistics == FERMION:
        act = np.flatnonzero((n_k == 1) & ((n_q == 0) | (k == q)))
        parity = (tb.prefix[act, k - 1] + tb.prefix[act, q - 1] - (k < q)) & 1
        pref = np.where(parity.astype(bool), -1.0, 1.0)
    else:
        act = np.flatnonzero(n_k >= 1)
        # one exact integer product, one rounding: k = q gives sqrt(n_k^2) = n_k exactly
        pref = np.sqrt((n_k[act] * (n_q[act] + (k != q))).astype(np.float64))
    src = _source_rows(space, tb, act, k, q)
    for arr in (src, pref, act):
        arr.flags.writeable = False
    return src, pref, None, act


def _source_rows(space, tb, act, k, q):
    """0-based addresses of the sources of the output rows ``act`` under E_kq: one particle fewer in k, one more in q.

    J - 1 is a sum of rank terms T(p, R, v) = C[p-1, R - v] - F[p-1, R] over
    orbitals (:func:`fockspace.occupation_table`); source and output share
    every term outside the orbitals lo..hi from min(k, q) to max(k, q), the
    last orbital has none, and F cancels where the source holds as many
    particles in orbitals p..M as the output.
    """
    if k == q:
        return act
    src = act.copy()
    lo, hi = min(k, q), min(max(k, q), space.m - 1)
    remaining = space.n - tb.prefix[act, lo - 1]  # particles the output holds in orbitals p..M
    shift = 0  # particles the source holds beyond the output in orbitals lo..p-1
    for p, occupied in zip(range(lo, hi + 1), tb.occ[act, lo - 1:hi].T):
        d = int(p == q) - int(p == k)  # the source's occupation of p less the output's
        rest = remaining - occupied
        if shift or d:
            counts = tb.rank_counts[p - 1]
            src += counts[rest - shift - d] - counts[rest]
            if shift:
                floor = tb.rank_floor[p - 1]
                src -= floor[remaining - shift] - floor[remaining]
        remaining, shift = rest, shift + d
    return src


def sweep(gather, axis: int, amps: np.ndarray, out: np.ndarray, lo: int, hi: int,
          coeff: complex = 1.0) -> None:
    """Add coeff * (term acting on ``amps``) rows lo..hi-1 into ``out``, which holds only those rows.

    ``amps`` is an amplitude vector or matrix and ``gather`` a
    :func:`term_gather` tuple acting along ``axis``: along axis 0 the term
    reads source rows anywhere in ``amps``; along axis 1 (matrices only) it
    re-addresses columns within the same rows.
    """
    src, pref, _, act = gather
    if axis == 0:
        i, j = act.searchsorted((lo, hi))
        if j > i:
            weight = (coeff * pref[i:j]).reshape((-1,) + (1,) * (amps.ndim - 1))
            out[act[i:j] - lo] += weight * amps[src[i:j]]
    elif act.size:
        out[:, act] += (coeff * pref) * amps[lo:hi, src]


def apply_pair(space: SpaceDescriptor, k: int, q: int, amps: np.ndarray, axis: int = -1) -> np.ndarray:
    """E_kq = b†_k b_q (orbitals of ``space``, 1-based) acting on ``amps`` along ``axis``, as a new complex array."""
    _check_orbitals(space, (k, q))
    out = np.zeros_like(amps, dtype=np.complex128)
    sweep(term_gather(space, k, q), axis % amps.ndim, amps, out, 0, amps.shape[0])
    return out


def apply_one_body_term(k: int, q: int, psi: StateVector) -> StateVector:
    """|Psi^{kq}> = b†_k b_q |Psi>; k = q gives the number-operator weighting."""
    return StateVector(psi.space, apply_pair(psi.space, k, q, psi.amplitudes))


def apply_two_body_term(k: int, s: int, l: int, q: int, psi: StateVector) -> StateVector:
    """b†_k b†_s b_l b_q |Psi> = E_kq E_sl |Psi> - δ_qs E_kl |Psi>, for any index pattern."""
    space, amps = psi.space, psi.amplitudes
    out = apply_pair(space, k, q, apply_pair(space, s, l, amps))
    if q == s:
        out -= apply_pair(space, k, l, amps)
    return StateVector(space, out)


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


def hamiltonian_terms(spec) -> list[tuple[tuple[int, ...], complex]]:
    """Canonical term list: one-body ((k, q), h_kq) row-major, then two-body ((k, s, l, q), W_kslq / 2) in storage order.

    ``(k, s, l, q)`` names b†_k b†_s b_l b_q; the coefficients already carry the global 1/2.
    """
    terms = [((k, q), v) for k, q, v in spec.one_body.entries(SKIP_THRESHOLD)]
    terms += [((k, s, l, q), 0.5 * v) for k, s, q, l, v in spec.two_body.entries(SKIP_THRESHOLD)]
    return terms


# -- factored H|psi> ---------------------------------------------------------


def pair_gathers(space: SpaceDescriptor, pairs) -> list:
    """Gathers of E_kq = b†_k b_q for flat 0-based pairs k * M + q.

    The space's pool keeps those with k <= q, under the 1-based key (k, q);
    E_kq for k > q is the kept E_qk's :func:`transpose`, a view that copies
    nothing.
    """
    tb = space.tables()
    gathers = []
    for k, q in (divmod(int(p), space.m) for p in pairs):
        lo, hi = min(k, q) + 1, max(k, q) + 1
        gather = tb.cached_gather((lo, hi), lambda: _build_gather(space, tb, lo, hi))
        gathers.append(gather if k <= q else transpose(gather))
    return gathers


def split_pair_matrix(row_k, row_q, col_k, col_q, values, m_row: int, m_col: int):
    """Split coordinates of a pair matrix P[(k, q), (k', q')] into ``(dd, rows, cols, mat)``.

    ``dd[k, k']`` sums the entries with k = q and k' = q' (they multiply
    n_k n_k'); the rest fill ``mat``, restricted to the flat pairs
    ``rows`` and ``cols`` (k * M + q) that they touch.  Both have the
    dtype of ``values``.
    """
    on_diag = (row_k == row_q) & (col_k == col_q)
    dd = np.zeros((m_row, m_col), dtype=values.dtype)
    np.add.at(dd, (row_k[on_diag], col_k[on_diag]), values[on_diag])
    off = ~on_diag
    rows, r = np.unique(row_k[off] * m_row + row_q[off], return_inverse=True)
    cols, c = np.unique(col_k[off] * m_col + col_q[off], return_inverse=True)
    mat = np.zeros((rows.size, cols.size), dtype=values.dtype)
    np.add.at(mat, (r, c), values[off])
    return dd, rows, cols, mat


def all_real(*coeffs: np.ndarray) -> bool:
    """True when no coefficient has an imaginary part: the operator then maps real vectors to real ones."""
    return not any(np.iscomplexobj(c) and c.imag.any() for c in coeffs)


def real_linear(f: Callable, *coeffs: np.ndarray) -> np.ndarray:
    """f(*coeffs) for f real-linear in complex ``coeffs``, evaluated in real arithmetic.

    The imaginary pass runs only when a coefficient has an imaginary part.
    """
    out = f(*(c.real for c in coeffs))
    if not all_real(*coeffs):
        out = out + 1j * f(*(c.imag for c in coeffs))
    return out


class Contraction(NamedTuple):
    """sum_r E_r sum_c mat[r, c] E_c C: gathers of the pairs ``cols`` and ``rows``, each along its axis."""

    cols: list
    col_axis: int
    mat: np.ndarray
    rows: list
    row_axis: int


class Factored(NamedTuple):
    """diag * C + hops (gather, axis, coefficient) + contractions on an amplitude matrix C, in ``dtype``."""

    diag: np.ndarray
    hops: list
    contractions: list[Contraction]
    dtype: np.dtype


class Prepared(NamedTuple):
    """H factored once over ``space``, a snapshot of its tables; the apply entry points take it for a spec."""

    space: object
    op: Factored

    @property
    def dtype(self) -> np.dtype:
        return self.op.dtype


def factor_species(space: SpaceDescriptor, one_body, two_body, axis: int = 0) -> Factored:
    """One species' Hamiltonian acting along ``axis`` of the amplitude matrix.

    Entries below :data:`SKIP_THRESHOLD` are dropped first; then
    Wm[(k,q),(s,l)] = W[k,s,q,l] / 2 and h'_kl = h_kl - 1/2 sum_s W[k,s,s,l].
    Number-operator products (k = q, s = l) and the diagonal of h' fold into
    the diagonal d, read off the occupation table.  When every kept entry
    is real (:func:`all_real`) the whole operator, and its ``dtype``, is float64.
    """
    m = space.m
    h = one_body.kept(SKIP_THRESHOLD)
    (k, s, q, l), v = two_body.kept(SKIP_THRESHOLD)
    if all_real(h, v):
        h, v = h.real, v.real
    con = s == q
    np.add.at(h, (k[con], l[con]), -0.5 * v[con])
    wd, rows, cols, wm = split_pair_matrix(k, q, s, l, 0.5 * v, m, m)
    occ = space.tables().occ_float
    diag = real_linear(lambda lin, quad: occ @ lin + np.einsum("nk,nk->n", occ @ quad, occ),
                       h.diagonal(), wd)
    hop_pairs = np.flatnonzero(~np.eye(m, dtype=bool) & (h != 0))
    hops = [(g, axis, h.flat[p]) for p, g in zip(hop_pairs, pair_gathers(space, hop_pairs))]
    contractions = []
    if rows.size:
        contractions.append(Contraction(pair_gathers(space, cols), axis, wm, pair_gathers(space, rows), axis))
    return Factored(diag, hops, contractions, np.result_type(h, v))


def prepare(spec) -> Prepared:
    """``spec``'s Hamiltonian factored once, to apply many times."""
    return Prepared(spec.space, factor_species(spec.space, spec.one_body, spec.two_body))


def apply_factored(op: Factored, amps: np.ndarray, workers: int = 1) -> np.ndarray:
    """``op`` applied to the amplitude vector or matrix ``amps`` in fixed row blocks.

    Each block first contracts the images E_c C of its own rows into chi
    (one GEMM), then writes diag * C and every sweep into its own rows.
    Every buffer takes the common dtype of ``amps`` and ``op``: a real
    operator on a real vector computes in float64.
    """
    n_rows = amps.shape[0]
    diag = np.broadcast_to(op.diag, amps.shape)
    dtype = np.result_type(amps, op.dtype)
    chis = [np.empty((len(c.rows),) + amps.shape, dtype=dtype) for c in op.contractions]
    out = np.empty(amps.shape, dtype=dtype)

    def contract(lo, hi):
        for c, chi in zip(op.contractions, chis):
            phi = np.zeros((len(c.cols), hi - lo) + amps.shape[1:], dtype=dtype)
            for gather, image in zip(c.cols, phi):
                sweep(gather, c.col_axis, amps, image, lo, hi)
            chi[:, lo:hi] = (c.mat @ phi.reshape(len(c.cols), -1)).reshape((-1,) + phi.shape[1:])

    def assemble(lo, hi):
        block = out[lo:hi]
        np.multiply(diag[lo:hi], amps[lo:hi], out=block)
        for gather, axis, coeff in op.hops:
            sweep(gather, axis, amps, block, lo, hi, coeff)
        for c, chi in zip(op.contractions, chis):
            for gather, part in zip(c.rows, chi):
                sweep(gather, c.row_axis, part, block, lo, hi)

    width = amps.size // n_rows
    if chis:
        run_row_blocks(contract, n_rows, width, workers)
    run_row_blocks(assemble, n_rows, width, workers)
    return out


def apply_hamiltonian(spec, psi: StateVector, workers: int = 1) -> StateVector:
    """H|Psi> = sum_kq h_kq |Psi^{kq}> + (1/2) sum_ksql W_ksql |Psi^{kslq}>, H a spec or :class:`Prepared`."""
    if spec.space != psi.space:
        raise SpaceMismatchError("Hamiltonian and state belong to different spaces")
    prep = spec if isinstance(spec, Prepared) else prepare(spec)
    return StateVector(prep.space, apply_factored(prep.op, psi.amplitudes, workers))


def apply_one_body_operator(h, psi: StateVector) -> StateVector:
    """Total action of all one-body terms, sum_kq h_kq b†_k b_q |Psi>."""
    space = psi.space
    if h.m != space.m:
        raise SpaceMismatchError(f"one-body table for M={h.m} applied in M={space.m} space")
    op = factor_species(space, h, TwoBodyTable.zeros(h.m))
    return StateVector(space, apply_factored(op, psi.amplitudes))
