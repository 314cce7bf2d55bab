"""Matrix-free application of the pair operators E_kq = b†_k b_q to state vectors.

E_kq is the only operator the kernel knows.  It maps each configuration to
exactly one configuration times a prefactor, so its action on a state vector
is a permutation-with-weights of the amplitudes.  The kernel computes each
output amplitude by *gathering* from its uniquely determined source address,
vectorized over all addresses at once.  On an output configuration n, with
S_p particles in the orbitals below p, E_kq acts where n_k >= 1 (fermions:
n_k = 1, and n_q = 0 unless k = q) with the weight (-1)^(S_k + S_q - [k < q])
for fermions and sqrt(n_k (n_q + [k != q])) for bosons.  The addresses are
read off the space's ladder table (:attr:`fockspace.SpaceTables.ladder`):
b_q maps U[q-1, j] onto the j-th configuration of N - 1 particles, so E_kq
maps U[q-1, j] to U[k-1, j], with the sign w[k-1, j] w[q-1, j] (fermions).
The hole picture D of a fermion space above half filling leads to N + 1
particles, and E_kq = -b_q b†_k (k != q) maps D[k-1, j] to D[q-1, j].

Longer strings are products of pairs: b†_k b†_s b_l b_q = E_kq E_sl - δ_qs E_kl
for both statistics, which defines every index coincidence (k = q, k = s,
...) and, for pairwise distinct indices, reproduces the closed-form sign
(-1)^{d} between-counts and sqrt(n) weights.  The kernel applies no other
string: an arbitrary balanced string of elementary creation/annihilation
operators is taken only by the dense reference, :mod:`fockops.oracle`.

H|psi> never loops over two-body terms.  The same identity gives the
direct-CI factorization of Knowles & Handy (Chem. Phys. Lett. 111, 315,
1984) and Olsen et al. (J. Chem. Phys. 89, 2185, 1988), formed from the
entries at or above :data:`SKIP_THRESHOLD` (:func:`factor_coefficients`):

    H psi = d * psi + sum_p h'_p E_p psi + sum_r E_r chi_r,
    chi = Wm[rows, cols] @ phi,   phi_c = E_c psi.

When every kept entry is real, h', Wm, d and the operator's dtype are
float64, and a float64 vector stays float64 throughout: the apply computes
in the common dtype of the vector and the operator, so a real Hamiltonian
moves half the bytes on a real vector and is unchanged on a complex one.

The solvers factor once per solve (:func:`prepare`) and get H with its pair
gathers stacked (:class:`Stacked`).  On a small space a matvec costs numpy
calls, not arithmetic: dense fermion(4,8), 70 amplitudes, took about 190
per-pair sweeps per matvec.  The stacked operator has two parts:

- column images: one fancy assignment writes every phi_c of a row block
  into one (n_cols, rows) array (:func:`stack_images`), and one GEMM gives
  chi;
- sums: the diagonal, the hops and the contraction rows read the stacked
  sources [psi, chi_0, ..., chi_{R-1}] in one gather, one multiply by
  their weights and one ``np.add.reduceat`` over segments sorted by output
  row (:func:`stack_sums`), which writes each output row once.

On a 2-core x86 VM this took one dense fermion(4,8) matvec from 2.0 to
0.11 ms.  The entries are placed by a counting sort over the rows, one
unordered pair's gather at a time, with no sorted or permuted copy.  The
gathers pass through the space's pool and leave it once placed, so the
pool keeps no second copy of H's gathers.  Two paths keep the per-pair
:func:`sweep` of a :class:`Factored` operator (:func:`apply_factored`):

- one-shot applies: a spec given to :func:`apply_hamiltonian` (the CLI's
  ``apply``, ``energy``) and the single terms.  One apply never pays back
  the stacking: on dense boson(8,8), 418,275 stacked entries, building
  them took 29-39 ms and the stacked apply 18-31 ms, where one cold
  per-pair apply took 24-39 ms.  An unsorted ``np.bincount`` scatter,
  tried in a prototype, built in 4.9 ms and applied in 15.2 ms against the
  sweeps' 18.9 ms: still no gain for one apply.
- matrix-valued operators (mixtures): in a prototype on the 792 x 70
  amplitude matrix of the mixture-prop benchmark, a fully stacked matvec
  took 14.1 ms against the sweeps' 5.5 ms (faster in 0 of 60 calls), and
  stacking in chunks of 2^14, 2^16 and 2^18 amplitudes took 5.8, 6.2 and
  7.3 ms against 4.9, 4.7 and 5.2 ms (faster in 1 of 40 calls each).

The choice follows from what is applied: :func:`apply_hamiltonian` runs a
:class:`Prepared` single species' stacked parts and sweeps a spec, and
mixtures always sweep.  The per-pair paths keep the gathers of H's
pairs E_kq with k <= q, at most M(M+1)/2 per space, in the space's gather
pool under the key (k, q) (:meth:`fockspace.SpaceTables.cached_gather`),
so each is built once per space; E_qk is served as the transpose of the
kept E_kq (:func:`transpose`), and single terms reuse a kept gather or
build theirs per call.

The output is cut into blocks of rows that do not depend on the worker
count: a per-pair apply and the stacked images use fixed row blocks, the
stacked sums blocks of whole rows holding about :data:`BLOCK_AMPLITUDES`
entries.  Each block first computes phi and chi for its own rows, then
sums into its own rows.  No amplitude is summed across blocks, so a worker
count only decides which thread computes which whole blocks, and every
amplitude is summed in the same order for any worker count (bitwise
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
    """E_kq's gather: for k != q, rows k and q of the space's ladder table (module docstring)."""
    if k == q:
        act = src = np.flatnonzero(tb.occ[:, k - 1])
        pref = tb.occ[act, k - 1]  # E_kk = n_k: 1 for fermions
    else:
        table, weight, holes = tb.ladder
        cols = np.flatnonzero(np.minimum(table[k - 1], table[q - 1]) >= 0)
        act, src = (table[p - 1, cols].astype(np.intp) for p in ((q, k) if holes else (k, q)))
        if space.statistics != FERMION:
            # one exact integer product, one rounding (the product of two
            # weights would round twice)
            pref = np.sqrt(tb.occ[act, k - 1] * (tb.occ[act, q - 1] + 1))
        else:
            pref = (-1.0 if holes else 1.0) * weight[k - 1, cols] * weight[q - 1, cols]
    for arr in (src, pref, act):
        arr.flags.writeable = False
    return src, pref, None, act


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
# count.  Each (block, pair) of a per-pair sweep pays a few numpy calls of
# fixed overhead, so blocks must be large: on a 2-core x86 VM, with the
# mixture-prop benchmark input (55,440 amplitudes, 44 terms), 2^12 made a
# matvec 1.8x slower than 2^14, while 2^14 and 2^16 timed alike.  2^14 is
# the smallest size without that cost, so vectors above 16k amplitudes still
# split into blocks that workers can share.  A prepared operator's stacked
# images use the same row blocks; its stacked sums run in blocks of whole
# rows holding about this many gathered entries, so their temporaries stay
# near one block of amplitudes.  On the hubbard-gs benchmark input (24,310
# rows, 230,230 entries) summing per row block gathered 139,199 entries at
# once, and the traced peak of a matvec was 1.7 MB above its inputs,
# against 0.7 MB for the per-pair sweeps and 0.5 MB for blocks of entries.
BLOCK_AMPLITUDES = 1 << 14


def row_blocks(n_rows: int, row_width: int = 1) -> list[tuple[int, int]]:
    """The fixed blocks (lo, hi) of ``n_rows`` rows of ``row_width`` amplitudes.

    A block holds about :data:`BLOCK_AMPLITUDES` amplitudes and at least one row.
    """
    step = max(1, BLOCK_AMPLITUDES // row_width)
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def run_blocks(run_block: Callable, blocks: list, workers: int = 1) -> None:
    """Call ``run_block(block)`` on each of ``blocks``, on up to ``workers`` threads."""
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            list(pool.map(run_block, blocks))
    else:
        for block in blocks:
            run_block(block)


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

    The space's pool keeps E_kq for k <= q under the 1-based key (k, q)
    (:meth:`SpaceTables.cached_gather`); E_kq for k > q is the kept E_qk's
    :func:`transpose`, a view that copies nothing.
    """
    tb = space.tables()
    gathers = []
    for k, q in (divmod(int(p), space.m) for p in pairs):
        key = (min(k, q) + 1, max(k, q) + 1)
        gather = tb.cached_gather(key, lambda: _build_gather(space, tb, *key))
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
    """diag * C + hops (gather, axis, coefficient) + contractions on an amplitude matrix C, in ``dtype``.

    Applied by per-pair sweeps.
    """

    diag: np.ndarray
    hops: list
    contractions: list[Contraction]
    dtype: np.dtype


class Images(NamedTuple):
    """Rows lo..hi-1 of stacked column images: ``phi.flat[tgt] = pref * amps[src]`` fills them in one assignment."""

    lo: int
    hi: int
    tgt: np.ndarray
    src: np.ndarray
    pref: np.ndarray


class Sums(NamedTuple):
    """Rows lo..hi-1 of stacked sums: ``out[lo:hi] = add.reduceat(sources.flat[src] * weight, starts)``."""

    lo: int
    hi: int
    src: np.ndarray
    weight: np.ndarray
    starts: np.ndarray


class Stacked(NamedTuple):
    """H on a vector with its pair gathers stacked: images per row block, chi = mat @ phi, then the sums.

    ``mat`` is None, and ``images`` empty, when H has no two-body part
    left after factoring.
    """

    mat: np.ndarray | None
    images: list[Images]
    sums: list[Sums]
    dtype: np.dtype


class Prepared(NamedTuple):
    """H factored once over ``space``, a snapshot of its tables; the apply entry points take it for a spec."""

    space: object
    op: Factored | Stacked

    @property
    def dtype(self) -> np.dtype:
        return self.op.dtype


def stack_images(gathers, lo: int, hi: int) -> Images:
    """Rows lo..hi-1 of the images E_c amps, stacked for one fancy assignment into an (n, hi - lo) array.

    Gather c fills row c of the image array; the targets are flat indices
    into it, the sources rows of ``amps``.  Nothing is summed: each gather
    acts on a row at most once.
    """
    tgt, src, pref = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for c, (s, p, _, act) in enumerate(gathers):
        i, j = act.searchsorted((lo, hi))
        tgt.append(act[i:j] + (c * (hi - lo) - lo))
        src.append(s[i:j])
        pref.append(p[i:j])
    return Images(lo, hi, *(np.concatenate(parts) for parts in (tgt, src, pref)))


def stack_sums(space: SpaceDescriptor, diag: np.ndarray, parts, dtype) -> list[Sums]:
    """diag + sum_p coeff_p E_p over the rows of ``space``, in blocks of whole rows for one segmented sum each.

    ``parts`` holds (pair, offset, coeff) for flat 0-based pairs k * M + q:
    E_kq reads the flat stacked sources at ``offset`` plus its source rows.
    The diagonal is every row's first entry, so no row is without one.  A
    counting sort over the rows, sized from the acting rows alone, places
    each part's entries after those placed before it, so the build makes no
    sorted or permuted copy.  The parts of one unordered pair are placed
    together, from its gather in the space's pool (:func:`pair_gathers`),
    which is then dropped from the pool.  A block holds about
    :data:`BLOCK_AMPLITUDES` entries (at least one row), so a sum's
    temporaries do not grow with the vector.  Sources are int32 when that
    reaches them all: half the bytes of intp, for a gather about 5% slower
    on the hubbard-gs benchmark input.
    """
    tb, n, m = space.tables(), space.n_conf, space.m
    count = np.ones(n + 1, dtype=np.intp)
    count[0] = 0
    by_key: dict = {}
    for part in parts:
        k, q = divmod(int(part[0]), m)
        # E_kq acts where n_k >= 1 (fermions: n_k = 1, and n_q = 0 unless k = q)
        count[1:] += tb.occ[:, k] > (tb.occ[:, q] if space.statistics == FERMION and k != q else 0)
        by_key.setdefault((min(k, q), max(k, q)), []).append(part)
    first = np.cumsum(count)  # first[t]: row t's first entry; first[-1] entries in all
    reach = max((offset for _, offset, _ in parts), default=0) + n
    src = np.empty(first[-1], dtype=np.int32 if reach <= 2**31 else np.intp)
    weight = np.empty(first[-1], dtype=dtype)
    src[first[:-1]] = np.arange(n)
    weight[first[:-1]] = diag
    slot = first[:-1] + 1
    for (k, q), uses in by_key.items():
        for (g_src, pref, _, act), (_, offset, coeff) in zip(pair_gathers(space, [p for p, _, _ in uses]), uses):
            at = slot[act]
            src[at] = g_src + offset
            weight[at] = coeff * pref
            slot[act] = at + 1
        tb._gather_cache.pop((k + 1, q + 1), None)
    cuts = [0, *(np.flatnonzero(np.diff(first[:-1] // BLOCK_AMPLITUDES)) + 1), n]  # rows that open a block
    return [Sums(lo, hi, src[first[lo]:first[hi]], weight[first[lo]:first[hi]],
                 first[lo:hi] - first[lo])
            for lo, hi in zip(cuts[:-1], cuts[1:])]


class Coefficients(NamedTuple):
    """One species' H factored into its diagonal, its hops (pair, coefficient) and the pair matrix ``mat``.

    Pairs are flat 0-based k * M + q; ``mat`` couples the pairs ``rows``
    to the pairs ``cols``.
    """

    diag: np.ndarray
    hop_pairs: np.ndarray
    hop_coeffs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mat: np.ndarray
    dtype: np.dtype


def factor_coefficients(space: SpaceDescriptor, one_body, two_body) -> Coefficients:
    """One species' Hamiltonian as d * C + sum_p h'_p E_p C + sum_r E_r sum_c Wm[r, c] E_c C.

    Entries below :data:`SKIP_THRESHOLD` are dropped first; then
    Wm[(k,q),(s,l)] = W[k,s,q,l] / 2 and h'_kl = h_kl - 1/2 sum_s W[k,s,s,l].
    Number-operator products (k = q, s = l) and the diagonal of h' fold into
    the diagonal d, read off the occupation table.  When every kept entry
    is real (:func:`all_real`) every coefficient, and ``dtype``, is float64.
    """
    m = space.m
    h = one_body.kept(SKIP_THRESHOLD)
    (k, s, q, l), v = two_body.kept(SKIP_THRESHOLD)
    if all_real(h, v):
        h, v = h.real, v.real
    con = s == q
    np.add.at(h, (k[con], l[con]), -0.5 * v[con])
    wd, rows, cols, wm = split_pair_matrix(k, q, s, l, 0.5 * v, m, m)
    occ = space.tables().occ
    diag = real_linear(lambda lin, quad: occ @ lin + np.einsum("nk,nk->n", occ @ quad, occ),
                       h.diagonal(), wd)
    hop_pairs = np.flatnonzero(~np.eye(m, dtype=bool) & (h != 0))
    return Coefficients(diag, hop_pairs, h.flat[hop_pairs], rows, cols, wm, np.result_type(h, v))


def factor_species(space: SpaceDescriptor, one_body, two_body, axis: int = 0) -> Factored:
    """One species' Hamiltonian (:func:`factor_coefficients`) acting along ``axis`` of the amplitude matrix.

    Its gathers come from the space's pool (:func:`pair_gathers`).
    """
    co = factor_coefficients(space, one_body, two_body)
    hops = [(g, axis, c) for g, c in zip(pair_gathers(space, co.hop_pairs), co.hop_coeffs)]
    contractions = []
    if co.rows.size:
        contractions.append(Contraction(pair_gathers(space, co.cols), axis, co.mat,
                                        pair_gathers(space, co.rows), axis))
    return Factored(co.diag, hops, contractions, co.dtype)


def prepare(spec) -> Prepared:
    """``spec``'s Hamiltonian factored once, its pair gathers stacked, to apply many times.

    The pair gathers come from the space's pool (:func:`pair_gathers`).
    :func:`stack_sums` drops each one from the pool once it has placed it,
    and the few that only the images read go last: a prepared operator
    leaves the pool empty, so it keeps no second copy of H's gathers.
    """
    space, n = spec.space, spec.space.n_conf
    co = factor_coefficients(space, spec.one_body, spec.two_body)
    images = []
    if co.rows.size:
        col_gathers = pair_gathers(space, co.cols)
        images = [stack_images(col_gathers, lo, hi) for lo, hi in row_blocks(n)]
        del col_gathers  # the pool then holds the only reference, so stack_sums frees each gather it places
    parts = [(p, 0, c) for p, c in zip(co.hop_pairs, co.hop_coeffs)]
    parts += [(p, (1 + r) * n, 1.0) for r, p in enumerate(co.rows)]
    sums = stack_sums(space, co.diag, parts, co.dtype)
    space.tables()._gather_cache.clear()
    return Prepared(space, Stacked(co.mat if co.rows.size else None, images, sums, co.dtype))


def _apply_stacked(op: Stacked, amps: np.ndarray, workers: int) -> np.ndarray:
    """``op`` on the vector ``amps``: per block an image assignment and a GEMM, then per block a segmented sum.

    The sources [psi, chi_0, ..., chi_{R-1}] are one (1 + R, N) array, so
    the diagonal, every hop and every contraction row read them in one
    gather, and each row of the result is written once.
    """
    dtype = np.result_type(amps, op.dtype)
    if op.mat is None:
        sources = amps.astype(dtype, copy=False)
    else:
        sources = np.empty((1 + op.mat.shape[0], amps.size), dtype=dtype)
        sources[0] = amps

        def contract(images):
            phi = np.zeros((op.mat.shape[1], images.hi - images.lo), dtype=dtype)
            phi.ravel()[images.tgt] = images.pref * amps[images.src]
            sources[1:, images.lo:images.hi] = op.mat @ phi

        run_blocks(contract, op.images, workers)
    flat = sources.ravel()
    out = np.empty(amps.shape, dtype=dtype)

    def assemble(sums):
        vals = np.take(flat, sums.src)  # casts int32 indices at once: flat[sums.src] was 38% slower through them
        vals *= sums.weight
        np.add.reduceat(vals, sums.starts, out=out[sums.lo:sums.hi])

    run_blocks(assemble, op.sums, workers)
    return out


def apply_factored(op: Factored, amps: np.ndarray, workers: int = 1) -> np.ndarray:
    """``op`` applied to the amplitude vector or matrix ``amps`` in fixed row blocks, pair by pair.

    Each block first contracts the images E_c C of its own rows into chi
    (one GEMM), then writes diag * C and every sweep into its own rows.
    Every buffer takes the common dtype of ``amps`` and ``op``: a real
    operator on a real vector computes in float64.
    """
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

    blocks = row_blocks(amps.shape[0], amps.size // amps.shape[0])
    if chis:
        run_blocks(lambda block: contract(*block), blocks, workers)
    run_blocks(lambda block: assemble(*block), blocks, workers)
    return out


def apply_hamiltonian(spec, psi: StateVector, workers: int = 1) -> StateVector:
    """H|Psi> = sum_kq h_kq |Psi^{kq}> + (1/2) sum_ksql W_ksql |Psi^{kslq}>, H a spec or :class:`Prepared`.

    A :class:`Prepared` H runs its stacked parts.  A spec is factored for
    this one call and swept pair by pair: stacking its gathers would cost
    more than the one apply saves.
    """
    if not isinstance(psi, StateVector) or spec.space != psi.space:
        raise SpaceMismatchError("Hamiltonian and state belong to different spaces")
    if isinstance(spec, Prepared):
        return StateVector(spec.space, _apply_stacked(spec.op, psi.amplitudes, workers))
    op = factor_species(spec.space, spec.one_body, spec.two_body)
    return StateVector(spec.space, apply_factored(op, psi.amplitudes, workers))


def apply_one_body_operator(h, psi: StateVector) -> StateVector:
    """Total action of all one-body terms, sum_kq h_kq b†_k b_q |Psi>."""
    space = psi.space
    if h.m != space.m:
        raise SpaceMismatchError(f"one-body table for M={h.m} applied in M={space.m} space")
    op = factor_species(space, h, TwoBodyTable.zeros(h.m))
    return StateVector(space, apply_factored(op, psi.amplitudes))
