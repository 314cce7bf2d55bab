"""Two-component Fock spaces and inter-species operator application.

The total space is the tensor product of two complete single-species
subspaces; amplitudes C_{J_A J_B} are stored flat with J_B fastest, i.e.
linear index (J_A - 1) * N^B_conf + (J_B - 1) + 1.  Operator strings of the
two species commute (each species carries its own fermionic phase within
its own orbital set), so intra-species terms act on one address component
only and inter-species terms re-address both with a product prefactor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import AddressError, FockError, SpaceMismatchError, ValidationError
from .fockspace import _STAT_BYTE, SpaceDescriptor, read_exact, statistics_of_byte
from .hamiltonian import HamiltonianSpec, require_finite

_MIX_MAGIC = b"FOCKMIX1"


class MixtureSpace:
    """Tensor product of two complete single-species subspaces."""

    def __init__(self, space_a: SpaceDescriptor, space_b: SpaceDescriptor):
        self.space_a = space_a
        self.space_b = space_b
        self.n_conf_total = space_a.n_conf * space_b.n_conf

    def __repr__(self):
        return f"MixtureSpace(A={self.space_a!r}, B={self.space_b!r})"

    def __eq__(self, other):
        return (
            isinstance(other, MixtureSpace)
            and self.space_a == other.space_a
            and self.space_b == other.space_b
        )

    def __hash__(self):
        return hash((self.space_a, self.space_b))

    def address(self, j_a: int, j_b: int) -> int:
        return mixture_address(j_a, j_b, self)

    def split(self, j: int) -> tuple[int, int]:
        """Inverse of :func:`mixture_address`."""
        if not 1 <= j <= self.n_conf_total:
            raise AddressError(f"address {j} outside [1, {self.n_conf_total}]")
        j_a, j_b = divmod(j - 1, self.space_b.n_conf)
        return j_a + 1, j_b + 1


def mixture_address(j_a: int, j_b: int, mspace: MixtureSpace) -> int:
    """Row-major flattening of the two-component address, J_B fastest."""
    if not 1 <= j_a <= mspace.space_a.n_conf:
        raise AddressError(f"J_A={j_a} outside [1, {mspace.space_a.n_conf}]")
    if not 1 <= j_b <= mspace.space_b.n_conf:
        raise AddressError(f"J_B={j_b} outside [1, {mspace.space_b.n_conf}]")
    return (j_a - 1) * mspace.space_b.n_conf + (j_b - 1) + 1


class InterSpeciesTable:
    """W^{AB} tensor of shape (M_A, M_A, M_B, M_B).

    tensor[k-1, q-1, k'-1, q'-1] multiplies a†_k a_q b†_{k'} b_{q'}.
    """

    __slots__ = ("tensor",)

    def __init__(self, tensor):
        tensor = np.asarray(tensor, dtype=np.complex128)
        if tensor.ndim != 4 or tensor.shape[0] != tensor.shape[1] or tensor.shape[2] != tensor.shape[3]:
            raise ValidationError(f"inter-species table must be (MA,MA,MB,MB), got {tensor.shape}")
        require_finite(tensor, "inter-species")
        self.tensor = tensor

    @property
    def m_a(self) -> int:
        return self.tensor.shape[0]

    @property
    def m_b(self) -> int:
        return self.tensor.shape[2]

    def entries(self, threshold: float = 0.0):
        """(k, q, k', q', value) in storage order, nonzero with |value| >= threshold."""
        keep = (self.tensor != 0) & (np.abs(self.tensor) >= threshold)
        for k0, q0, kp0, qp0 in np.argwhere(keep):
            yield k0 + 1, q0 + 1, kp0 + 1, qp0 + 1, complex(self.tensor[k0, q0, kp0, qp0])


@dataclass
class MixtureHamiltonianSpec:
    """H^{(AB)} = H^{(A)} + H^{(B)} + W^{(AB)} over a mixture space."""

    mspace: MixtureSpace
    spec_a: HamiltonianSpec
    spec_b: HamiltonianSpec
    inter: InterSpeciesTable

    def __post_init__(self):
        if self.spec_a.space != self.mspace.space_a or self.spec_b.space != self.mspace.space_b:
            raise ValidationError("species specs do not match the mixture space")
        if self.inter.m_a != self.mspace.space_a.m or self.inter.m_b != self.mspace.space_b.m:
            raise ValidationError("inter-species table does not match the mixture space")

    @property
    def space(self) -> MixtureSpace:
        return self.mspace


class MixtureStateVector:
    """Dense amplitudes C_{J_A J_B} over a mixture space (J_B fastest)."""

    __slots__ = ("mspace", "amplitudes")

    def __init__(self, mspace: MixtureSpace, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (mspace.n_conf_total,):
            raise FockError(
                f"amplitude array of shape {amplitudes.shape} does not match "
                f"N_conf_total={mspace.n_conf_total}"
            )
        self.mspace = mspace
        self.amplitudes = amplitudes

    @property
    def space(self) -> MixtureSpace:
        return self.mspace

    def as_matrix(self) -> np.ndarray:
        """(N^A_conf, N^B_conf) view of the amplitudes."""
        return self.amplitudes.reshape(self.mspace.space_a.n_conf, self.mspace.space_b.n_conf)

    def copy(self) -> "MixtureStateVector":
        return MixtureStateVector(self.mspace, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __len__(self):
        return self.mspace.n_conf_total


def mixture_zero_state(mspace: MixtureSpace) -> MixtureStateVector:
    return MixtureStateVector(mspace, np.zeros(mspace.n_conf_total, dtype=np.complex128))


def mixture_basis_state(mspace: MixtureSpace, j_a: int, j_b: int) -> MixtureStateVector:
    amps = np.zeros(mspace.n_conf_total, dtype=np.complex128)
    amps[mixture_address(j_a, j_b, mspace) - 1] = 1.0
    return MixtureStateVector(mspace, amps)


def mixture_random_state(mspace: MixtureSpace, seed: int = 0) -> MixtureStateVector:
    rng = np.random.default_rng(seed)
    n = mspace.n_conf_total
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps /= np.linalg.norm(amps)
    return MixtureStateVector(mspace, amps)


def product_state(u, v, mspace: MixtureSpace) -> MixtureStateVector:
    """u_A (x) v_B as a mixture vector."""
    if u.space != mspace.space_a or v.space != mspace.space_b:
        raise SpaceMismatchError("factors do not match the mixture space")
    return MixtureStateVector(mspace, np.outer(u.amplitudes, v.amplitudes).ravel())


def mixture_dot(u: MixtureStateVector, v: MixtureStateVector) -> complex:
    if u.mspace != v.mspace:
        raise SpaceMismatchError("dot of vectors from different mixture spaces")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


# -- term application --------------------------------------------------------


def _apply_terms(psi: MixtureStateVector, terms, workers: int = 1) -> MixtureStateVector:
    """Sum of ``terms`` applied to ``psi``: one output buffer, J_A rows in fixed blocks.

    A block applies intra-A terms to its own J_A rows, and intra-B and
    inter-species terms to every J_B column of those rows.
    """
    space_a, space_b = psi.mspace.space_a, psi.mspace.space_b
    space_a.tables()  # built here, so block threads never race to build them
    space_b.tables()
    mat_in = psi.as_matrix()
    mat_out = np.zeros_like(mat_in)

    def run_block(lo, hi):
        for side, ops, ops_b, coeff in terms:
            if side == "A":
                gather = kernel.term_gather(space_a, ops)
                kernel.apply_gather(gather, mat_in, mat_out, coeff, lo, hi, axis=0)
            elif side == "B":
                gather = kernel.term_gather(space_b, ops)
                kernel.apply_gather(gather, mat_in[lo:hi], mat_out[lo:hi], coeff, axis=1)
            else:
                src_a, pref_a, _, act_a = kernel.term_gather(space_a, ops)
                src_b, pref_b, _, act_b = kernel.term_gather(space_b, ops_b)
                rows = kernel.rows_in(act_a, lo, hi)
                if rows.size and act_b.size:
                    gathered = mat_in[np.ix_(src_a[rows], src_b[act_b])]
                    weight = pref_a[rows][:, None] * pref_b[act_b][None, :]
                    mat_out[np.ix_(rows, act_b)] += coeff * (weight * gathered)

    kernel.run_row_blocks(run_block, space_a.n_conf, space_b.n_conf, workers)
    return MixtureStateVector(psi.mspace, mat_out.ravel())


def apply_one_body_term_a(k: int, q: int, psi: MixtureStateVector) -> MixtureStateVector:
    return _apply_terms(psi, [("A", kernel.one_body_ops(k, q), None, 1.0)])


def apply_one_body_term_b(k: int, q: int, psi: MixtureStateVector) -> MixtureStateVector:
    return _apply_terms(psi, [("B", kernel.one_body_ops(k, q), None, 1.0)])


def apply_two_body_term_a(k, s, l, q, psi: MixtureStateVector) -> MixtureStateVector:
    return _apply_terms(psi, [("A", kernel.two_body_ops(k, s, l, q), None, 1.0)])


def apply_two_body_term_b(k, s, l, q, psi: MixtureStateVector) -> MixtureStateVector:
    return _apply_terms(psi, [("B", kernel.two_body_ops(k, s, l, q), None, 1.0)])


def apply_inter_term(k: int, q: int, kp: int, qp: int, psi: MixtureStateVector) -> MixtureStateVector:
    """a†_k a_q b†_{k'} b_{q'} |Psi>."""
    term = ("X", kernel.one_body_ops(k, q), kernel.one_body_ops(kp, qp), 1.0)
    return _apply_terms(psi, [term])


def mixture_terms(mspec: MixtureHamiltonianSpec, skip_threshold: float = kernel.DEFAULT_SKIP_THRESHOLD):
    """Canonical term list: A one-/two-body, B one-/two-body, then inter-species."""
    terms = []
    for ops, coeff in kernel.hamiltonian_terms(mspec.spec_a, skip_threshold):
        terms.append(("A", ops, None, coeff))
    for ops, coeff in kernel.hamiltonian_terms(mspec.spec_b, skip_threshold):
        terms.append(("B", ops, None, coeff))
    for k, q, kp, qp, v in mspec.inter.entries(skip_threshold):
        terms.append(("X", kernel.one_body_ops(k, q), kernel.one_body_ops(kp, qp), v))
    return terms


def apply_intra_a(spec_a: HamiltonianSpec, psi: MixtureStateVector,
                  skip_threshold: float = kernel.DEFAULT_SKIP_THRESHOLD) -> MixtureStateVector:
    """Apply the A-species Hamiltonian to the A index for every fixed J_B."""
    if spec_a.space != psi.mspace.space_a:
        raise SpaceMismatchError("A-species spec does not match the mixture space")
    terms = [("A", ops, None, c) for ops, c in kernel.hamiltonian_terms(spec_a, skip_threshold)]
    return _apply_terms(psi, terms)


def apply_intra_b(spec_b: HamiltonianSpec, psi: MixtureStateVector,
                  skip_threshold: float = kernel.DEFAULT_SKIP_THRESHOLD) -> MixtureStateVector:
    """Mirror of :func:`apply_intra_a` for the B species."""
    if spec_b.space != psi.mspace.space_b:
        raise SpaceMismatchError("B-species spec does not match the mixture space")
    terms = [("B", ops, None, c) for ops, c in kernel.hamiltonian_terms(spec_b, skip_threshold)]
    return _apply_terms(psi, terms)


def apply_inter(table: InterSpeciesTable, psi: MixtureStateVector,
                skip_threshold: float = kernel.DEFAULT_SKIP_THRESHOLD) -> MixtureStateVector:
    """sum W^{AB}_{kk'qq'} a†_k a_q b†_{k'} b_{q'} |Psi>."""
    if table.m_a != psi.mspace.space_a.m or table.m_b != psi.mspace.space_b.m:
        raise SpaceMismatchError("inter-species table does not match the mixture space")
    terms = [
        ("X", kernel.one_body_ops(k, q), kernel.one_body_ops(kp, qp), v)
        for k, q, kp, qp, v in table.entries(skip_threshold)
    ]
    return _apply_terms(psi, terms)


def apply_mixture_hamiltonian(
    mspec: MixtureHamiltonianSpec,
    psi: MixtureStateVector,
    skip_threshold: float = kernel.DEFAULT_SKIP_THRESHOLD,
    workers: int = 1,
) -> MixtureStateVector:
    """H^{(A)}|Psi> + H^{(B)}|Psi> + W^{(AB)}|Psi> in one deterministic sweep."""
    if mspec.mspace != psi.mspace:
        raise SpaceMismatchError("mixture spec and state live in different spaces")
    return _apply_terms(psi, mixture_terms(mspec, skip_threshold), workers)


def apply_mixture_parts(
    spec_a: HamiltonianSpec,
    spec_b: HamiltonianSpec,
    inter: InterSpeciesTable,
    psi: MixtureStateVector,
    skip_threshold: float = kernel.DEFAULT_SKIP_THRESHOLD,
) -> MixtureStateVector:
    """Same action from the three parts without a pre-bundled spec."""
    mspec = MixtureHamiltonianSpec(psi.mspace, spec_a, spec_b, inter)
    return apply_mixture_hamiltonian(mspec, psi, skip_threshold)


# -- serialization -----------------------------------------------------------


def save_mixture_state(psi: MixtureStateVector, path) -> None:
    """Binary mixture vector: FOCKMIX1, statistics bytes, NA MA NB MB, N_conf."""
    sa, sb = psi.mspace.space_a, psi.mspace.space_b
    header = _MIX_MAGIC + struct.pack(
        "<BBQQQQQ",
        _STAT_BYTE[sa.statistics],
        _STAT_BYTE[sb.statistics],
        sa.n,
        sa.m,
        sb.n,
        sb.m,
        psi.mspace.n_conf_total,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(psi.amplitudes, dtype="<c16").tobytes())


def load_mixture_state(path) -> MixtureStateVector:
    with open(path, "rb") as fh:
        if fh.read(8) != _MIX_MAGIC:
            raise FockError(f"{path} is not a mixture vector file")
        sa_b, sb_b, na, ma, nb, mb, total = struct.unpack("<BBQQQQQ", read_exact(fh, 42, path))
        mspace = MixtureSpace(
            SpaceDescriptor(statistics_of_byte(sa_b), na, ma),
            SpaceDescriptor(statistics_of_byte(sb_b), nb, mb),
        )
        if mspace.n_conf_total != total:
            raise FockError("header dimension does not match the space")
        amps = np.frombuffer(read_exact(fh, 16 * total, path), dtype="<c16").astype(np.complex128)
    return MixtureStateVector(mspace, amps)
