"""Dense brute-force reference operators for verification.

Matrices are built by symbolic occupation-list algebra applied forward to
every basis configuration: annihilation/creation act step by step with
prefix-count fermionic phases and sqrt(n) bosonic factors, and the result
is ranked back to an address.  Nothing here shares the kernel's gather or
incremental re-ranking shortcuts; only rank/unrank label the basis.
"""

from __future__ import annotations

import math

import numpy as np

from .combinadics import FERMION
from .errors import SizeError, SpaceMismatchError, ValidationError
from .fockspace import StateVector
from .hamiltonian import HamiltonianSpec
from .mixtures import MixtureHamiltonianSpec

DENSE_CAP = 5000  # keeps an N_conf^2 complex matrix under ~400 MB


def _check_cap(dim: int, cap: int) -> None:
    if dim > cap:
        raise SizeError(f"dense oracle dimension {dim} exceeds cap {cap}")


def apply_ops_to_occupations(statistics: str, occ, ops):
    """Apply elementary ops (application order) to an occupation list.

    Returns (new_occupations, prefactor) or None if the string annihilates
    the configuration.  Fermionic phases are (-1)^(occupied below p) at each
    step; bosonic factors are sqrt(n_p) / sqrt(n_p + 1).
    """
    occ = list(occ)
    pref = 1.0
    for kind, p in ops:
        i = p - 1
        if statistics == FERMION:
            phase = -1.0 if sum(occ[:i]) % 2 else 1.0
            if kind == "a":
                if occ[i] == 0:
                    return None
                occ[i] = 0
            else:
                if occ[i] == 1:
                    return None
                occ[i] = 1
            pref *= phase
        else:
            if kind == "a":
                if occ[i] == 0:
                    return None
                pref *= math.sqrt(occ[i])
                occ[i] -= 1
            else:
                pref *= math.sqrt(occ[i] + 1)
                occ[i] += 1
    return occ, pref


def _term_list(obj):
    """(ops, coeff) pairs of a spec, a single term, or raw ops."""
    if isinstance(obj, HamiltonianSpec):
        terms = []
        for k, q, v in obj.one_body.entries():
            terms.append(((("a", q), ("c", k)), v))
        for k, s, q, l, v in obj.two_body.entries():
            terms.append(((("a", q), ("a", l), ("c", s), ("c", k)), 0.5 * v))
        return terms
    if isinstance(obj, tuple) and obj and isinstance(obj[0], tuple):
        return [(obj, 1.0)]
    raise TypeError(f"cannot interpret {obj!r} as an operator")


def build_dense(obj, space=None, cap: int = DENSE_CAP) -> np.ndarray:
    """Explicit matrix of an operator in the configuration basis (J order).

    ``obj`` is a :class:`HamiltonianSpec`, a :class:`MixtureHamiltonianSpec`,
    or a bare ops tuple such as (("a", q), ("c", k)) with ``space`` given.
    Element (J', J) is the coefficient of configuration J' in Op|J>.
    """
    if isinstance(obj, MixtureHamiltonianSpec):
        return _build_dense_mixture(obj, cap)
    if isinstance(obj, HamiltonianSpec):
        space = obj.space
    if space is None:
        raise TypeError("a space is required when passing bare ops")
    _check_cap(space.n_conf, cap)
    terms = _term_list(obj)
    dim = space.n_conf
    mat = np.zeros((dim, dim), dtype=np.complex128)
    occs = [space.occupations_at(j) for j in range(1, dim + 1)]
    index = {occ: j for j, occ in enumerate(occs, start=1)}
    for j, occ in enumerate(occs, start=1):
        for ops, coeff in terms:
            hit = apply_ops_to_occupations(space.statistics, occ, ops)
            if hit is None:
                continue
            new_occ, pref = hit
            j_out = index[tuple(new_occ)]
            mat[j_out - 1, j - 1] += coeff * pref
    return mat


def _build_dense_mixture(mspec: MixtureHamiltonianSpec, cap: int) -> np.ndarray:
    mspace = mspec.mspace
    _check_cap(mspace.n_conf, cap)
    sa, sb = mspace.space_a, mspace.space_b
    mat_a = build_dense(mspec.spec_a, cap=cap)
    mat_b = build_dense(mspec.spec_b, cap=cap)
    eye_a = np.eye(sa.n_conf)
    eye_b = np.eye(sb.n_conf)
    total = np.kron(mat_a, eye_b) + np.kron(eye_a, mat_b)
    for k, q, kp, qp, v in mspec.inter.entries():
        op_a = build_dense((("a", q), ("c", k)), sa, cap=cap)
        op_b = build_dense((("a", qp), ("c", kp)), sb, cap=cap)
        total += v * np.kron(op_a, op_b)
    return total


def dense_eig(op: np.ndarray, tol: float = 1e-10):
    """Full spectrum of a Hermitian dense operator (ascending eigenvalues)."""
    op = np.asarray(op)
    scale = max(1.0, float(np.abs(op).max()) if op.size else 1.0)
    if np.abs(op - op.conj().T).max() > tol * scale:
        raise ValidationError("dense_eig requires a Hermitian operator")
    return np.linalg.eigh(op)


def dense_expm_apply(op: np.ndarray, psi, t: float, cap: int = DENSE_CAP, *, space=None):
    """exp(-i op t) psi via the spectral decomposition of a Hermitian op.

    ``space``, when given, is the space ``op`` was built over: a
    :class:`StateVector` of another space raises :class:`SpaceMismatchError`.
    """
    if space is not None and isinstance(psi, StateVector) and psi.space != space:
        raise SpaceMismatchError("dense operator and state belong to different spaces")
    amps = psi.amplitudes if hasattr(psi, "amplitudes") else np.asarray(psi)
    _check_cap(amps.shape[0], cap)
    w, u = dense_eig(op)
    phases = np.exp(-1j * w * t)
    out = u @ (phases * (u.conj().T @ amps))
    if isinstance(psi, StateVector):
        return StateVector(psi.space, out)
    return out
