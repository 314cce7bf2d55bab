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

A single two-body term is a product of pairs: b†_k b†_s b_l b_q =
E_kq E_sl - δ_qs E_kl for both statistics, which defines every index
coincidence (k = q, k = s, ...) (:func:`apply_two_body_term`).  The
kernel applies no other string: an arbitrary balanced string of
elementary creation/annihilation operators is taken only by the dense
reference, :mod:`fockops.oracle`.

H|psi> never loops over two-body terms.  It contracts W through the space
of N - 2 particles, the (n-2)-particle projection space of Harrison &
Zarrabian (Chem. Phys. Lett. 158, 393, 1989), from the entries at or
above :data:`SKIP_THRESHOLD` (:func:`factor_coefficients`):

    H psi = d * psi + sum_p h'_p E_p psi + sum_c b†_k b†_s X_c,
    X = Wp @ A,   A_p = b_l b_q psi   (p = (l, q), c = (k, s) unordered).

Wp is W / 2 folded onto unordered pairs, l <= q for bosons and l < q for
fermions, which take a sign -1 for each pair given in the other order.
The entries whose pairs agree, {k, s} = {l, q}, are number-operator
products (n_k n_s, n_k (n_k - 1)): with the diagonal of h' they form the
diagonal d, read off the occupation table, so a density-density W builds
no pair part.  A_p is one gather for all p (:func:`pair_table`): row q of
the space's ladder table (:attr:`fockspace.SpaceTables.ladder`) composed
with row l of the next one, that of N - 1 particles
(:attr:`fockspace.SpaceTables.next_ladder`); both rows are increasing, so
each composed row is, and its transpose (:func:`pair_returns`), which
carries X back, is a gather like E_kq's.  A fermion space above half
filling goes through N + 2 instead, by

    b†_k b†_s b_l b_q = b_l b_q b†_k b†_s - δ_qk δ_ls + δ_lk δ_qs
                        + δ_qk E_sl - δ_lk E_sq - δ_qs E_kl + δ_ls E_kq:

B_c = b†_k b†_s psi, X = Wp^T @ B, and b_l b_q returns it.  For the
entries left after the diagonal the constants vanish and the one-body
terms are hops, which fold into h'.  A space with N < 2, or with N + 2 > M
in the hole picture, has no pair part.  The intermediate is about
M^2/2 x N_conf(N -/+ 2) entries, where the E_kq E_sl - δ_qs E_kl
factoring (Knowles & Handy, Chem. Phys. Lett. 111, 315, 1984; Olsen et
al., J. Chem. Phys. 89, 2185, 1988) forms M^2 x N_conf images: on dense
boson(8,8) 36 x 1,716 against 64 x 6,435.

When every kept entry is real, h', Wp, d and the operator's dtype are
float64, and a float64 vector stays float64 throughout: the apply computes
in the common dtype of the vector and the operator, so a real Hamiltonian
moves half the bytes on a real vector and is unchanged on a complex one.

The solvers factor once per solve (:func:`prepare`) and get H with its
gathers stacked (:class:`Stacked`).  On a small space a matvec costs numpy
calls, not arithmetic: dense fermion(4,8), 70 amplitudes, took about 190
per-pair sweeps per matvec.  The stacked operator has two parts:

- pair images: per block of the N -/+ 2 space, one gather through the
  pair table and one GEMM give that block of X;
- sums: the diagonal, the hops and the returns read the stacked sources
  [psi, X_0, ..., X_{R-1}].  The rows are grouped by their number of
  entries, widest first, and each group is cut into blocks stored
  column-major, the jagged-diagonal layout (Saad, SIAM J. Sci. Stat.
  Comput. 10, 1200, 1989) in the blocks of SELL-C-sigma (Kreutzer et al.,
  SIAM J. Sci. Comput. 36, C401, 2014) without padding.  A block is one
  gather, one multiply by its weights and one ``np.add.reduce`` along
  axis 0 (:func:`stack_sums`), which writes each of its rows once.

On a 2-core x86 VM the stacking took one dense fermion(4,8) matvec from
2.0 to 0.11 ms.  The entries are placed by a counting sort over the rows,
one unordered pair's gather at a time, with no sorted or permuted copy.
The hop gathers pass through the space's pool and leave it once placed,
so the pool keeps no second copy of H's gathers.  Two paths sweep the
hops and returns one by one instead (:class:`Factored`,
:func:`apply_factored`):

- one-shot applies: a spec given to :func:`apply_hamiltonian` (the CLI's
  ``apply``, ``energy``) and the single terms.  One apply never pays back
  the stacking: cold calls at 2 workers (medians of 15 alternating calls)
  took 32 ms prepared and stacked against 18.5 ms swept on dense
  boson(8,8), and 122 ms against 64 ms on boson(9,9).
- matrix-valued operators (mixtures), but for a small species' dense
  matrix (below): in a prototype on the 792 x 70 amplitude matrix of the
  mixture-prop benchmark, before that matrix, a fully stacked matvec took
  14.1 ms against the sweeps' 5.5 ms (faster in 0 of 60 calls), and
  stacking in chunks of 2^14, 2^16 and 2^18 amplitudes took 5.8, 6.2 and
  7.3 ms against 4.9, 4.7 and 5.2 ms (faster in 1 of 40 calls each).

The choice follows from what is applied: :func:`apply_hamiltonian` runs
the stacked parts of a :func:`prepare`d single species and sweeps a spec.
A mixture sweeps its inter-species pair part across both axes of the
amplitude matrix C, and a species with N_conf^2 > :data:`BLOCK_AMPLITUDES`
(more than 128 configurations) along its own axis.  A smaller species is
one dense N_conf x N_conf matrix H, built by these same sweeps applied to
the identity (:func:`mixtures._factor_species`), and each row block adds
H[lo:hi] @ C (axis 0) or C[lo:hi] @ H.T (axis 1) with one GEMM
(:class:`Factored`): direct CI's answer for a small string space (Olsen
et al. 1988).  One species' H against 792 rows or columns of the other's,
complex C, took in ms (medians on a 2-core x86 VM with one OpenBLAS
thread, sweeps -> GEMM):

    species                         axis 1          axis 0
    F(4,8) chain, 70                1.66 -> 0.66    1.78 -> 1.10
    F(3,9) dense h, 84              12.1 -> 1.41    10.3 -> 1.61
    B(3,8) Bose-Hubbard, 120        3.95 -> 2.70    3.18 -> 3.02
    F(1,128) chain, 128             21.1 -> 3.19    9.44 -> 3.40
    F(3,12) chain, 220 (above cut)  7.98 -> 8.36    5.32 -> 6.76

so the cut, which reuses the block size and adds no constant, sits at or
below the crossover on both axes.  The per-pair paths keep the gathers of
H's hops E_kq with k < q, at most M(M-1)/2 per space, in the space's
gather pool under the key (k, q) (:meth:`fockspace.SpaceTables.cached_gather`),
so each is built once per space; E_qk is served as the transpose of the
kept E_kq (:func:`transpose`).  A single term builds its gather per call
(:func:`apply_pair`) and leaves the pool as it was.  The pair table is
built per factoring and kept by a prepared operator, not by the pool.

The work is cut into blocks that do not depend on the worker count: a
per-pair apply uses fixed row blocks, the pair images fixed blocks of
about :data:`BLOCK_AMPLITUDES` image entries, and the stacked sums blocks
of rows of one width holding at most as many entries.  All of X is
formed before any row is summed, and each block sums into its own rows.
No amplitude is summed across blocks, so a worker count only decides
which thread computes which whole blocks, and every amplitude is summed
in the same order for any worker count (bitwise identical results).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .combinadics import FERMION
from .errors import FockError, SpaceMismatchError
from .fockspace import FermionConfig, SpaceDescriptor, StateVector, has_pair_space, hole_picture
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
    if not isinstance(space, SpaceDescriptor):
        raise SpaceMismatchError("a single-species operator applied to a state of another kind of space")
    for p in orbitals:
        if not 1 <= p <= space.m:
            raise FockError(f"orbital {p} outside [1, {space.m}]")


def transpose(gather):
    """E_qk's gather from E_kq's: the same rows and prefactors with ``act`` and ``src`` swapped.

    E_qk is the adjoint of E_kq, whose prefactors are real.  Adding a fixed
    occupation change keeps lexicographic order, so ``src`` is strictly
    increasing like ``act``, and :func:`sweep` can slice the swapped ``act``.
    """
    src, pref, _, act = gather
    return act, pref, None, src


def _build_gather(space, tb, k, q):
    """(source rows, prefactors, None, acting rows) of E_kq, 1-based orbitals, from the space's tables ``tb``.

    ``act`` lists the 0-based output rows on which E_kq acts; ``src`` and
    ``pref`` hold the source row and the prefactor of each of them, in the
    order of ``act``.  For k != q they come from rows k and q of the
    space's ladder table (module docstring).  The third slot is None; the
    tuple keeps four slots because callers read ``act`` at index 3.
    """
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
    :func:`_build_gather` tuple acting along ``axis``: along axis 0 the term
    reads source rows anywhere in ``amps``; along axis 1 (matrices only) it
    re-addresses columns within the same rows.
    """
    src, pref, _, act = gather
    if axis == 0:
        i, j = act.searchsorted((lo, hi))
        if j > i:
            weight = (coeff * pref[i:j]).reshape((-1,) + (1,) * (amps.ndim - 1))
            vals = amps.take(src[i:j], axis=0).astype(out.dtype, copy=False)
            np.multiply(weight, vals, out=vals)  # weight first: the product's bits as weight * vals
            out[act[i:j] - lo] += vals
    elif act.size:
        out[:, act] += (coeff * pref) * amps[lo:hi, src]


def apply_pair(space: SpaceDescriptor, k: int, q: int, amps: np.ndarray, axis: int = -1) -> np.ndarray:
    """E_kq = b†_k b_q (orbitals of ``space``, 1-based) acting on ``amps`` along ``axis``, as a new complex array."""
    _check_orbitals(space, (k, q))
    out = np.zeros_like(amps, dtype=np.complex128)
    sweep(_build_gather(space, space.tables(), k, q), axis % amps.ndim, amps, out, 0, amps.shape[0])
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
# split into blocks that workers can share.  Pair images are formed in
# blocks of about this many image entries, and a prepared operator's
# stacked sums in blocks of rows of one width holding at most this many
# entries (or one row), so their temporaries stay near one block of
# amplitudes.  On the hubbard-gs benchmark input (24,310 rows, 230,230
# entries) summing per row block gathered 139,199 entries at once, and the
# traced peak of a matvec was 1.7 MB above its inputs, against 0.7 MB for
# the per-pair sweeps and 0.5 MB for blocks of entries.
# A mixture species whose N_conf x N_conf matrix fits in one block is applied
# as that dense matrix (module docstring).
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


def pair_table(space: SpaceDescriptor, pairs) -> tuple[np.ndarray, np.ndarray]:
    """(src, weight), shape (len(pairs), N_conf of N -/+ 2): b_l b_q, or b†_l b†_q in the hole picture, for flat pairs l * M + q.

    Row p of the image of an amplitude vector C is C[src[p]] * weight[p]:
    the gather through row q of the space's ladder table composed with row
    l of the next one (:attr:`fockspace.SpaceTables.next_ladder`), weights
    multiplied.  Where the image has no source, src is 0 and weight 0.
    Each composed row is increasing where its weight is not 0, since both
    rows are: :func:`pair_returns` can slice its transposes.
    """
    tb = space.tables()
    table, weight, _ = tb.ladder
    outer, outer_weight, _ = tb.next_ladder
    l, q = np.divmod(np.asarray(pairs, dtype=np.intp), space.m)
    # flat indices of row q at the addresses of N -/+ 1 particles that b_l
    # leads to; where it leads nowhere (-1) outer_weight is 0, so any entry will do
    flat = outer[l] + (q * table.shape[1])[:, None]
    pref = outer_weight[l]
    pref *= weight.ravel().take(flat)  # 0 wherever either gather has no source
    src = table.ravel().take(flat)
    src[pref == 0] = 0
    return src, pref


def pair_returns(src: np.ndarray, weight: np.ndarray) -> list:
    """The transposed gathers of :func:`pair_table` rows: ``act`` rows of the space, ``src`` rows of the N -/+ 2 space.

    A row with a source everywhere (always, for bosons) shares one ``src``
    and keeps its weights as a view.
    """
    returns, every = [], np.arange(src.shape[1])
    for row, pref in zip(src, weight):
        keep = np.flatnonzero(pref)
        if keep.size == every.size:
            returns.append((every, pref, None, row.astype(np.intp)))
        else:
            returns.append((keep, pref[keep], None, row[keep].astype(np.intp)))
    return returns


def pair_matrix(row, col, values):
    """(rows, cols, mat): the matrix that sums ``values`` at coordinates (row, col), on the distinct ``rows`` and ``cols`` it touches."""
    rows, r = np.unique(row, return_inverse=True)
    cols, c = np.unique(col, return_inverse=True)
    mat = np.zeros((rows.size, cols.size), dtype=values.dtype)
    np.add.at(mat, (r, c), values)
    return rows, cols, mat


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


class PairPart(NamedTuple):
    """sum_r R_r sum_c mat[r, c] T_c C: T_c row c of ``src``, ``weight`` along ``axis``, R_r the gather ``rows[r]`` along ``row_axis``.

    A species' T_c is a :func:`pair_table` row, to N -/+ 2 particles, and its
    R_r a :func:`pair_returns` gather (in the stacked sums, once prepared);
    the inter-species T_c is E^B_c over all of B's configurations along
    axis 1 and R_r is E^A_r along axis 0 (:func:`mixtures.factor_inter`).
    """

    src: np.ndarray
    weight: np.ndarray
    mat: np.ndarray
    rows: list
    axis: int
    row_axis: int


class Factored(NamedTuple):
    """diag * C + hops (gather, axis, coefficient) + pair parts + ``dense`` on an amplitude matrix C over ``space``, in ``dtype``.

    The hops and pair parts are swept pair by pair.  ``dense`` holds
    (H, axis): a mixture species with N_conf^2 <= :data:`BLOCK_AMPLITUDES`
    as its whole N_conf x N_conf matrix, diagonal, hops and pair part
    included, applied along ``axis`` as H[lo:hi] @ C (axis 0) or
    C[lo:hi] @ H.T (axis 1), one GEMM per row block in place of its sweeps;
    the module docstring gives the crossover measured against them.
    """

    space: object
    diag: np.ndarray
    hops: list
    pairs: list[PairPart]
    dtype: np.dtype
    dense: list


class Sums(NamedTuple):
    """A block of stacked sums over rows of one width: ``out[rows] = add.reduce(sources.flat[src] * weight, axis=0)``.

    ``src`` and ``weight`` have shape (width, len(rows)), views into the one
    pair of arrays of all blocks: column i holds the entries of row
    ``rows[i]`` in the order they were placed, its diagonal first.
    """

    rows: np.ndarray
    src: np.ndarray
    weight: np.ndarray


class Stacked(NamedTuple):
    """H over ``space`` with its gathers stacked: chi = mat @ (pair images), then the sums over [psi, chi].

    ``pairs`` is None when H has no pair part left after factoring.
    """

    space: SpaceDescriptor
    pairs: PairPart | None
    sums: list[Sums]
    dtype: np.dtype


def stack_sums(space: SpaceDescriptor, diag: np.ndarray, hops, returns, dtype) -> list[Sums]:
    """diag + sum_p coeff_p E_p + the returns over the rows of ``space``, in blocks of rows of one width.

    ``hops`` holds (pair, coeff) for flat 0-based pairs k * M + q: E_kq
    reads psi, the first N_conf stacked sources.  ``returns`` holds
    (gather, offset): a gather of coefficient 1 whose sources are the
    stacked sources from ``offset`` on.  The diagonal is every row's first
    entry, so no row is without one.  A row's width is its number of
    entries, counted from the acting rows alone.  The rows are grouped by
    width, widest first and in address order within a width (one
    ``np.flatnonzero`` per width), and each group is cut into
    :func:`row_blocks` of at most :data:`BLOCK_AMPLITUDES` entries (or one
    row), so a sum's temporaries do not grow with the vector and the
    blocks do not depend on the worker count.  A block of L rows is stored
    column-major, a row's j-th entry L places after its (j-1)-th, so a
    counting sort places each part's entries after those placed before
    it, with no sorted or permuted copy.  The hops of one unordered pair
    are placed together, from its gather in the space's pool
    (:func:`pair_gathers`), which is then dropped from the pool.  The
    kept row lists are allocated after ``src`` and ``weight``: one
    ``np.argsort`` permutation made before them pinned glibc's heap 0.2 MB
    higher at the peak of a hubbard-gs operation.  Sources are int32 when
    that reaches them all: half the bytes of intp, for a matvec about 10%
    slower on the hubbard-gs benchmark input.
    """
    tb, n, m = space.tables(), space.n_conf, space.m
    count = np.ones(n, dtype=np.intp)
    by_key: dict = {}
    for pair, coeff in hops:
        k, q = divmod(int(pair), m)
        # E_kq, k != q, acts where n_k >= 1 (fermions: n_k = 1 and n_q = 0)
        count += tb.occ[:, k] > (tb.occ[:, q] if space.statistics == FERMION else 0)
        by_key.setdefault((min(k, q), max(k, q)), []).append((pair, coeff))
    for (g_src, _, _, act), _ in returns:
        count += np.bincount(act, minlength=n)
    reach = max([n] + [offset + int(g[0][-1]) + 1 for g, offset in returns if g[0].size])
    src = np.empty(int(count.sum()), dtype=np.int32 if reach <= 2**31 else np.intp)
    weight = np.empty(src.size, dtype=dtype)
    groups = [(width, np.flatnonzero(count == width))  # widest rows first, in address order within a width
              for width in np.flatnonzero(np.bincount(count))[::-1].tolist()]
    stride = count  # the counts are dead: stride[r] is the length of row r's block
    slot = np.empty(n, dtype=np.intp)  # slot[r]: where row r's next entry goes
    sums, base = [], 0
    for width, group in groups:
        for lo, hi in row_blocks(group.size, width):
            rows, end = group[lo:hi], base + width * (hi - lo)
            slot[rows] = np.arange(base, base + rows.size)
            stride[rows] = rows.size
            sums.append(Sums(rows, src[base:end].reshape(width, -1), weight[base:end].reshape(width, -1)))
            base = end

    def place(gather, offset, coeff):
        g_src, pref, _, act = gather
        at = slot[act]
        src[at] = g_src + offset
        weight[at] = coeff * pref
        slot[act] = at + stride[act]

    place((np.arange(n), diag, None, slice(None)), 0, 1.0)
    for (k, q), uses in by_key.items():
        for gather, (_, coeff) in zip(pair_gathers(space, [p for p, _ in uses]), uses):
            place(gather, 0, coeff)
        tb._gather_cache.pop((k + 1, q + 1), None)
    for gather, offset in returns:
        place(gather, offset, 1.0)
    return sums


class Coefficients(NamedTuple):
    """One species' H factored into its diagonal, its hops (pair, coefficient) and the pair matrix ``mat``.

    Hops are flat 0-based pairs k * M + q.  ``mat`` couples the unordered
    pairs ``rows`` to the unordered pairs ``cols``, flat l * M + q with
    l <= q: :func:`pair_table` forms the images of ``cols`` and the
    transposes of the rows of ``rows`` carry ``mat`` times them back.
    """

    diag: np.ndarray
    hop_pairs: np.ndarray
    hop_coeffs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mat: np.ndarray
    dtype: np.dtype


def factor_coefficients(space: SpaceDescriptor, one_body, two_body) -> Coefficients:
    """One species' Hamiltonian as d * C + sum_p h'_p E_p C + the pair part through N -/+ 2 particles.

    Entries below :data:`SKIP_THRESHOLD` are dropped first.  An entry
    w = W[k,s,q,l] / 2 of b†_k b†_s b_l b_q whose index pairs {k, s} and
    {l, q} agree is diagonal: k = q, s = l gives w n_k n_s and -w n_k on
    h'_kk when k = s; k = l, s = q (k != s) gives +/-w n_k n_s.  These and
    the diagonal of h' fold into the diagonal d, read off the occupation
    table.  Every other entry (for fermions with k != s and l != q, the
    rest vanish) goes into the pair matrix of the unordered pairs
    (min(k, s), max(k, s)) and (min(l, q), max(l, q)): in the particle
    picture b_l b_q is the image of the pair (l, q), and b†_k b†_s is the
    transpose of that of (k, s), fermions taking the sign
    (-1)^([k < s] + [l > q]), so ``rows`` create and ``cols`` annihilate.
    In the hole picture the identity of the module docstring turns the
    entry into b_l b_q b†_k b†_s, with the same sign, plus hops on h':
    ``rows`` annihilate and ``cols`` create.  A space without N -/+ 2
    particles (:func:`fockspace.has_pair_space`) has no pair matrix.
    When every kept entry is real (:func:`all_real`) every coefficient,
    and ``dtype``, is float64.
    """
    m, fermion, holes = space.m, space.statistics == FERMION, hole_picture(space)
    h = one_body.kept(SKIP_THRESHOLD)
    (k, s, q, l), v = two_body.kept(SKIP_THRESHOLD)
    if all_real(h, v):
        h, v = h.real, v.real
    v = 0.5 * v
    same = (k == q) & (s == l)
    swap = (k == l) & (s == q) & ~same
    con = same & (s == q)  # k = s = q = l: w n_k (n_k - 1)
    np.add.at(h, (k[con], l[con]), -v[con])
    wd = np.zeros((m, m), dtype=v.dtype)
    np.add.at(wd, (k[same], s[same]), v[same])
    np.add.at(wd, (k[swap], s[swap]), -v[swap] if fermion else v[swap])
    off = ~(same | swap) & ((k != s) & (l != q) if fermion else True)
    k, s, q, l, v = (a[off] for a in (k, s, q, l, v))
    if holes:  # b†_k b†_s b_l b_q = b_l b_q b†_k b†_s + δ_qk E_sl - δ_lk E_sq - δ_qs E_kl + δ_ls E_kq
        for a, b, i, j, sign in ((q, k, s, l, 1), (l, k, s, q, -1), (q, s, k, l, -1), (l, s, k, q, 1)):
            hit = a == b
            np.add.at(h, (i[hit], j[hit]), sign * v[hit])
    occ = space.tables().occ
    diag = real_linear(lambda lin, quad: occ @ lin + np.einsum("nk,nk->n", occ @ quad, occ),
                       h.diagonal(), wd)
    hop_pairs = np.flatnonzero(~np.eye(m, dtype=bool) & (h != 0))
    if not has_pair_space(space):
        k, s, q, l, v = (a[:0] for a in (k, s, q, l, v))
    if fermion:
        v = np.where((k < s) != (l > q), -v, v)
    create = np.minimum(k, s) * m + np.maximum(k, s)
    destroy = np.minimum(l, q) * m + np.maximum(l, q)
    rows, cols, mat = pair_matrix(*((destroy, create) if holes else (create, destroy)), v)
    return Coefficients(diag, hop_pairs, h.flat[hop_pairs], rows, cols, mat, np.result_type(h, v))


def pair_part(space: SpaceDescriptor, co: Coefficients, axis: int = 0) -> PairPart | None:
    """``co``'s pair matrix acting along ``axis``: one :func:`pair_table` for the pairs of ``rows`` and ``cols`` together."""
    if not co.rows.size:
        return None
    # with return_inverse, np.unique does not import numpy.ma (0.5 MB resident)
    both = np.unique(np.concatenate((co.rows, co.cols)), return_inverse=True)[0]
    src, weight = pair_table(space, both)
    on = lambda a, pairs: a if pairs.size == both.size else a[np.searchsorted(both, pairs)]  # noqa: E731
    return PairPart(on(src, co.cols), on(weight, co.cols), co.mat,
                    pair_returns(on(src, co.rows), on(weight, co.rows)), axis, axis)


def factor_species(space: SpaceDescriptor, one_body, two_body, axis: int = 0) -> Factored:
    """One species' Hamiltonian (:func:`factor_coefficients`) acting along ``axis`` of the amplitude matrix.

    Its hop gathers come from the space's pool (:func:`pair_gathers`).
    """
    co = factor_coefficients(space, one_body, two_body)
    hops = [(g, axis, c) for g, c in zip(pair_gathers(space, co.hop_pairs), co.hop_coeffs)]
    part = pair_part(space, co, axis)
    return Factored(space, co.diag, hops, [part] if part else [], co.dtype, [])


def prepare(spec) -> Stacked:
    """``spec``'s Hamiltonian factored once, its gathers stacked, to apply many times.

    The hop gathers come from the space's pool (:func:`pair_gathers`), and
    :func:`stack_sums` drops each one from the pool once it has placed it:
    a prepared operator leaves the pool empty, so it keeps no second copy
    of H's gathers.  The pair part keeps its table; its returns become
    stacked sums reading chi.
    """
    space, n = spec.space, spec.space.n_conf
    co = factor_coefficients(space, spec.one_body, spec.two_body)
    part = pair_part(space, co)
    returns = []
    if part is not None:
        n_mid = part.src.shape[1]
        returns = [(g, n + r * n_mid) for r, g in enumerate(part.rows)]
        part = part._replace(rows=[])
    sums = stack_sums(space, co.diag, list(zip(co.hop_pairs, co.hop_coeffs)), returns, co.dtype)
    space.tables()._gather_cache.clear()
    return Stacked(space, part, sums, co.dtype)


def _pair_blocks(part: PairPart, shape) -> list[tuple[int, int]]:
    """The fixed blocks in which :func:`_contract_pairs` forms ``part``'s images of an amplitude array of ``shape``.

    Along axis 0 they cut the table's columns, along axis 1 the rows; a
    block's images hold about :data:`BLOCK_AMPLITUDES` amplitudes.
    """
    n_mid = part.src.shape[1]
    if part.axis == 0:
        return row_blocks(n_mid, len(part.src) * int(np.prod(shape[1:], dtype=np.int64)))
    return row_blocks(shape[0], len(part.src) * n_mid)


def _contract_pairs(part: PairPart, amps: np.ndarray, chi: np.ndarray, lo: int, hi: int) -> None:
    """Block lo..hi-1 of chi = mat @ (``part``'s images of ``amps``): one gather, one multiply and one GEMM.

    chi[r] is shaped like ``amps`` with the table's columns along
    ``part.axis``.  Along axis 0 the block cuts those columns, along axis 1
    the rows.
    """
    if part.axis == 0:
        images = amps.take(part.src[:, lo:hi], axis=0)
        images *= part.weight[:, lo:hi].reshape((len(images), hi - lo) + (1,) * (amps.ndim - 1))
        chi[:, lo:hi] = (part.mat @ images.reshape(len(images), -1)).reshape((-1,) + images.shape[1:])
    else:
        images = amps[lo:hi].take(part.src, axis=1)
        images *= part.weight
        chi[:, lo:hi] = np.moveaxis(part.mat @ images, 1, 0)


def _apply_stacked(op: Stacked, amps: np.ndarray, workers: int) -> np.ndarray:
    """``op`` on the vector ``amps``: per block of the N -/+ 2 space the pair images and a GEMM, then the sums.

    The sources [psi, chi_0, ..., chi_{R-1}] are one flat array, so a block
    of sums reads the diagonal, the hops and the returns of its rows in one
    gather, multiplies them by their weights and adds them up along axis 0
    (its entries' order, the same for any worker count), and each row of
    the result is written once.
    """
    dtype = np.result_type(amps, op.dtype)
    part = op.pairs
    if part is None:
        flat = amps.astype(dtype, copy=False)
    else:
        flat = np.empty(amps.size + len(part.mat) * part.src.shape[1], dtype=dtype)
        flat[:amps.size] = amps
        chi = flat[amps.size:].reshape(len(part.mat), -1)
        run_blocks(lambda block: _contract_pairs(part, amps, chi, *block), _pair_blocks(part, amps.shape), workers)
    out = np.empty(amps.shape, dtype=dtype)

    def assemble(sums):
        vals = np.take(flat, sums.src)  # casts int32 indices at once: flat[sums.src] was 38% slower through them
        vals *= sums.weight
        out[sums.rows] = np.add.reduce(vals, axis=0)

    run_blocks(assemble, op.sums, workers)
    return out


def apply_factored(op: Factored, amps: np.ndarray, workers: int = 1) -> np.ndarray:
    """``op`` applied to the amplitude vector or matrix ``amps`` in fixed blocks, pair by pair.

    First each pair part's chi, per block of its images
    (:func:`_contract_pairs`).  Then each block of rows writes diag * C,
    every hop, every return of a chi and every dense part's GEMM into its
    own rows.  Every buffer takes the common dtype of ``amps`` and ``op``:
    a real operator on a real vector computes in float64.
    """
    diag = np.broadcast_to(op.diag, amps.shape)
    dtype = np.result_type(amps, op.dtype)
    chis = [np.empty((len(p.rows),) + amps.shape[:p.axis] + (p.src.shape[1],) + amps.shape[p.axis + 1:],
                     dtype=dtype) for p in op.pairs]
    out = np.empty(amps.shape, dtype=dtype)

    def assemble(lo, hi):
        block = out[lo:hi]
        np.multiply(diag[lo:hi], amps[lo:hi], out=block)
        for gather, axis, coeff in op.hops:
            sweep(gather, axis, amps, block, lo, hi, coeff)
        for part, chi in zip(op.pairs, chis):
            for gather, image in zip(part.rows, chi):
                sweep(gather, part.row_axis, image, block, lo, hi)
        for mat, axis in op.dense:
            block += mat[lo:hi] @ amps if axis == 0 else amps[lo:hi] @ mat.T

    for part, chi in zip(op.pairs, chis):
        run_blocks(lambda block: _contract_pairs(part, amps, chi, *block), _pair_blocks(part, amps.shape), workers)
    run_blocks(lambda block: assemble(*block), row_blocks(amps.shape[0], amps.size // amps.shape[0]), workers)
    return out


def apply_hamiltonian(spec, psi: StateVector, workers: int = 1) -> StateVector:
    """H|Psi> = sum_kq h_kq |Psi^{kq}> + (1/2) sum_ksql W_ksql |Psi^{kslq}>, H a spec or :func:`prepare`d.

    A prepared H (:class:`Stacked`) runs its stacked parts.  A spec is
    factored for this one call and swept pair by pair: stacking its gathers
    would cost more than the one apply saves.
    """
    if not isinstance(psi.space, SpaceDescriptor) or spec.space != psi.space:
        raise SpaceMismatchError("Hamiltonian and state belong to different spaces")
    if isinstance(spec, Stacked):
        return StateVector(spec.space, _apply_stacked(spec, psi.amplitudes, workers))
    op = factor_species(spec.space, spec.one_body, spec.two_body)
    return StateVector(spec.space, apply_factored(op, psi.amplitudes, workers))


def apply_one_body_operator(h, psi: StateVector) -> StateVector:
    """Total action of all one-body terms, sum_kq h_kq b†_k b_q |Psi>."""
    space = psi.space
    if not isinstance(space, SpaceDescriptor) or h.m != space.m:
        raise SpaceMismatchError(f"one-body table for M={h.m} applied to a state over {space!r}")
    op = factor_species(space, h, TwoBodyTable.zeros(h.m))
    return StateVector(space, apply_factored(op, psi.amplitudes))
