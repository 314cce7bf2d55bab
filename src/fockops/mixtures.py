"""The mixture engine: H^{(A)} + H^{(B)} + W^{(AB)} factored and applied on two-component states.

The data types live beside their single-species kin and are imported
here under their old names: :class:`fockspace.MixtureSpace`, the tensor
product of two complete single-species subspaces, one more compact
enumeration J = (J_A - 1) N^B_conf + J_B, J_B fastest, with
:func:`fockspace.mixture_address`; :class:`hamiltonian.InterSpeciesTable`
and :class:`hamiltonian.MixtureHamiltonianSpec`.  A mixture state is a
:class:`fockspace.StateVector` whose space is a :class:`MixtureSpace`, and
:meth:`MixtureSpace.matrix` views its amplitudes C_{J_A J_B} as an
(N^A_conf, N^B_conf) matrix.  Operator strings of the two species commute
(each species carries its own fermionic phase within its own orbital
set), so intra-species terms act on one axis of that matrix only and
inter-species terms re-address both with a product prefactor.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .errors import SpaceMismatchError
from .fockspace import MixtureSpace, StateVector, basis_state, mixture_address, random_state
from .hamiltonian import HamiltonianSpec, InterSpeciesTable, MixtureHamiltonianSpec


def mixture_basis_state(mspace: MixtureSpace, j_a: int, j_b: int) -> StateVector:
    return basis_state(mspace, mixture_address(j_a, j_b, mspace))


def mixture_random_state(mspace: MixtureSpace, seed: int = 0) -> StateVector:
    """:func:`fockspace.random_state` of ``mspace``, bit for bit."""
    return random_state(mspace, seed)


def product_state(u, v, mspace: MixtureSpace) -> StateVector:
    """u_A (x) v_B as a mixture vector."""
    if u.space != mspace.space_a or v.space != mspace.space_b:
        raise SpaceMismatchError("factors do not match the mixture space")
    return StateVector(mspace, np.outer(u.amplitudes, v.amplitudes).ravel())


# -- term application --------------------------------------------------------


def _species_pair(psi: StateVector, side: str, k: int, q: int, mat=None) -> np.ndarray:
    """E_kq of species ``side`` ("A" acts along axis 0, "B" along axis 1) on the amplitude matrix."""
    if not isinstance(psi.space, MixtureSpace):
        raise SpaceMismatchError("a mixture operator applied to a single-species state")
    space, axis = (psi.space.space_a, 0) if side == "A" else (psi.space.space_b, 1)
    return kernel.apply_pair(space, k, q, psi.space.matrix(psi.amplitudes) if mat is None else mat, axis=axis)


def apply_one_body_term_a(k: int, q: int, psi: StateVector) -> StateVector:
    """a†_k a_q |Psi>; orbitals outside [1, M_A] raise :class:`FockError`."""
    return StateVector(psi.space, _species_pair(psi, "A", k, q).ravel())


def apply_inter_term(k: int, q: int, kp: int, qp: int, psi: StateVector) -> StateVector:
    """a†_k a_q b†_{k'} b_{q'} |Psi>; k, q outside [1, M_A] or k', q' outside [1, M_B] raise :class:`FockError`."""
    mat = _species_pair(psi, "B", kp, qp)
    return StateVector(psi.space, _species_pair(psi, "A", k, q, mat).ravel())


def mixture_terms(mspec: MixtureHamiltonianSpec):
    """Canonical term list: A one-/two-body, B one-/two-body, then inter-species.

    Entries are (side, orbitals, orbitals of B or None, coefficient), with
    the orbitals of :func:`kernel.hamiltonian_terms`; an inter-species term
    is ("X", (k, q), (k', q'), W^{AB}_{kqk'q'}).
    """
    terms = [("A", orbitals, None, coeff) for orbitals, coeff in kernel.hamiltonian_terms(mspec.spec_a)]
    terms += [("B", orbitals, None, coeff) for orbitals, coeff in kernel.hamiltonian_terms(mspec.spec_b)]
    for k, q, kp, qp, v in mspec.inter.entries(kernel.SKIP_THRESHOLD):
        terms.append(("X", (k, q), (kp, qp), v))
    return terms


def _factor_species(mspace: MixtureSpace, spec: HamiltonianSpec, axis: int) -> kernel.Factored:
    """One species' H along ``axis`` of the amplitude matrix: swept, or one dense matrix if it fits in a block.

    A species with N_conf² <= :data:`kernel.BLOCK_AMPLITUDES` is its own H
    applied to the identity, by the kernel's sweeps (diagonal, hops, pair
    part), and acts as one GEMM per row block.
    """
    space = spec.space
    if space.n_conf ** 2 > kernel.BLOCK_AMPLITUDES:
        op = kernel.factor_species(space, spec.one_body, spec.two_body, axis)
        return op._replace(space=mspace, diag=op.diag[:, None] if axis == 0 else op.diag[None, :])
    # the 1-D diagonal d broadcasts along the last axis: on the identity d * I is the same either way
    mat = kernel.apply_factored(kernel.factor_species(space, spec.one_body, spec.two_body), np.eye(space.n_conf))
    return kernel.Factored(mspace, np.zeros((1, 1)), [], [], mat.dtype, [(mat, axis)])


def factor_inter(table: InterSpeciesTable, mspace: MixtureSpace) -> kernel.Factored:
    """W^{AB} as a (M_A², M_B²) pair matrix in one :class:`kernel.PairPart`: E^B images along J_B, E^A returns along J_A.

    The block k = q, k' = q' multiplies n^A_k n^B_k' and becomes the diagonal
    occ_A @ X_dd @ occ_B^T; row c of the part's table is E^B_c over all of
    B's configurations, source 0 and weight 0 where it does not act.
    Entries below :data:`kernel.SKIP_THRESHOLD` are dropped; a table whose
    kept entries are all real gives a float64 operator.
    """
    (k, q, kp, qp), v = table.kept(kernel.SKIP_THRESHOLD)
    if kernel.all_real(v):
        v = v.real
    on_diag = (k == q) & (kp == qp)
    xd = np.zeros((table.m_a, table.m_b), dtype=v.dtype)
    np.add.at(xd, (k[on_diag], kp[on_diag]), v[on_diag])
    off = ~on_diag
    rows, cols, xm = kernel.pair_matrix(k[off] * table.m_a + q[off], kp[off] * table.m_b + qp[off], v[off])
    space_a, space_b = mspace.space_a, mspace.space_b
    occ_a, occ_b = (s.tables().occ for s in (space_a, space_b))
    diag = kernel.real_linear(lambda x: occ_a @ x @ occ_b.T, xd)
    pairs = []
    if rows.size:
        src, weight = np.zeros((cols.size, space_b.n_conf), dtype=np.intp), np.zeros((cols.size, space_b.n_conf))
        for s, w, (g_src, pref, _, act) in zip(src, weight, kernel.pair_gathers(space_b, cols)):
            s[act], w[act] = g_src, pref
        pairs.append(kernel.PairPart(src, weight, xm, kernel.pair_gathers(space_a, rows), 1, 0))
    return kernel.Factored(mspace, diag, [], pairs, v.dtype, [])


def prepare(mspec: MixtureHamiltonianSpec) -> kernel.Factored:
    """H^{(A)} + H^{(B)} + W^{(AB)} factored once into one operator on the J_A x J_B amplitude matrix.

    A species with at most 128 configurations is one dense matrix (:func:`_factor_species`).
    """
    parts = [_factor_species(mspec.mspace, mspec.spec_a, 0), _factor_species(mspec.mspace, mspec.spec_b, 1),
             factor_inter(mspec.inter, mspec.mspace)]
    return kernel.Factored(mspec.mspace, sum(p.diag for p in parts), [h for p in parts for h in p.hops],
                           [x for p in parts for x in p.pairs], np.result_type(*[p.dtype for p in parts]),
                           [d for p in parts for d in p.dense])


def apply_intra_a(spec_a: HamiltonianSpec, psi: StateVector) -> StateVector:
    """Apply the A-species Hamiltonian to the A index for every fixed J_B."""
    if not isinstance(psi.space, MixtureSpace) or spec_a.space != psi.space.space_a:
        raise SpaceMismatchError("A-species spec does not match the mixture space")
    return apply_mixture_hamiltonian(_factor_species(psi.space, spec_a, 0), psi)


def apply_intra_b(spec_b: HamiltonianSpec, psi: StateVector) -> StateVector:
    """Mirror of :func:`apply_intra_a` for the B species."""
    if not isinstance(psi.space, MixtureSpace) or spec_b.space != psi.space.space_b:
        raise SpaceMismatchError("B-species spec does not match the mixture space")
    return apply_mixture_hamiltonian(_factor_species(psi.space, spec_b, 1), psi)


def apply_inter(table: InterSpeciesTable, psi: StateVector) -> StateVector:
    """sum W^{AB}_{kk'qq'} a†_k a_q b†_{k'} b_{q'} |Psi>."""
    if not isinstance(psi.space, MixtureSpace) or (table.m_a, table.m_b) != (psi.space.space_a.m, psi.space.space_b.m):
        raise SpaceMismatchError("inter-species table does not match the mixture space")
    return apply_mixture_hamiltonian(factor_inter(table, psi.space), psi)


def apply_mixture_hamiltonian(mspec, psi: StateVector, workers: int = 1) -> StateVector:
    """H^{(A)}|Psi> + H^{(B)}|Psi> + W^{(AB)}|Psi> in J_A row blocks; ``mspec`` is a spec or :func:`prepare`d.

    A state over a single-species space is refused, as a state of another
    mixture space is, with :class:`SpaceMismatchError`.
    """
    if not isinstance(psi.space, MixtureSpace) or mspec.space != psi.space:
        raise SpaceMismatchError("mixture spec and state live in different spaces")
    op = mspec if isinstance(mspec, kernel.Factored) else prepare(mspec)
    return StateVector(psi.space, kernel.apply_factored(op, psi.space.matrix(psi.amplitudes), workers).ravel())
