"""Reduced density matrices and expectation values.

Every element comes from the one-body gathers of E_kq = b†_k b_q that the
Hamiltonian kernel also sweeps, with the same sign conventions.  The
one-body density reads rho_kk = <n_k> off the occupation table and
rho_kq = <Psi|E_kq Psi> from E_kq's gather for k < q only; E_qk is the
adjoint of E_kq, so rho_qk = conj(rho_kq) and rho is exactly Hermitian.
The two-body density is one Gram product of the images phi_kq = E_kq Psi,
rho_kslq = <phi_qk|phi_sl> - δ_qs rho_kl.
"""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np

from . import kernel, mixtures
from .errors import SpaceMismatchError
from .fockspace import StateVector, dot

NORM_WARN_TOL = 1e-8


def _warn_if_unnormalized(psi) -> None:
    nrm = psi.norm()
    if abs(nrm - 1.0) > NORM_WARN_TOL:
        warnings.warn(f"state norm {nrm:.3e} differs from 1; densities scale with it")


def _occupations(space, mat: np.ndarray, axis: int) -> np.ndarray:
    """<n_k> of the species along ``axis`` of the amplitude vector or matrix, from the configuration table."""
    weights = np.abs(mat) ** 2
    if weights.ndim > 1:
        weights = weights.sum(axis=1 - axis)
    return weights @ space.tables().occ


def _one_body(space, mat: np.ndarray, axis: int) -> np.ndarray:
    """rho[k-1, q-1] = <Psi|E_kq Psi> along ``axis``, from the gathers of E_kq with k < q only."""
    upper = np.zeros((space.m, space.m), dtype=np.complex128)
    shape = [1] * mat.ndim
    for k, q in zip(*np.triu_indices(space.m, 1)):
        src, pref, _, act = kernel.term_gather(space, k + 1, q + 1)
        shape[axis] = act.size
        upper[k, q] = np.vdot(mat.take(act, axis), pref.reshape(shape) * mat.take(src, axis))
    return np.diag(_occupations(space, mat, axis)) + upper + upper.conj().T


def one_body_density(psi: StateVector) -> np.ndarray:
    """rho[k-1, q-1] = <Psi| b†_k b_q |Psi> (M x M complex)."""
    _warn_if_unnormalized(psi)
    return _one_body(psi.space, psi.amplitudes, 0)


def two_body_density(psi: StateVector) -> np.ndarray:
    """rho2[k-1, s-1, l-1, q-1] = <Psi| b†_k b†_s b_l b_q |Psi> (M^4 complex).

    b†_k b†_s b_l b_q = E_kq E_sl - δ_qs E_kl, so
    rho2[k, s, l, q] = <E_qk Psi|E_sl Psi> - δ_qs rho[k, l]: the Gram matrix
    of the M^2 images phi_kq = E_kq Psi, which are swept into one array and
    held once; E_qk's image comes from E_kq's gather, transposed, and
    E_kk's is n_k Psi, so a cold call builds M(M-1)/2 gathers.  The Gram
    product conjugates M of them at a time.
    """
    _warn_if_unnormalized(psi)
    space, amps = psi.space, psi.amplitudes
    m, n_conf = space.m, space.n_conf
    phi = np.zeros((m * m, n_conf), dtype=np.complex128)  # row (k-1) * M + q-1 holds E_kq Psi
    for k, q in zip(*np.triu_indices(m, 1)):  # E_qk is the transpose of E_kq: one gather per pair
        gather = kernel.term_gather(space, k + 1, q + 1)
        kernel.sweep(gather, 0, amps, phi[k * m + q], 0, n_conf)
        kernel.sweep(kernel.transpose(gather), 0, amps, phi[q * m + k], 0, n_conf)
    occ = space.tables().occ_float
    for k in range(m):  # E_kk = n_k
        phi[k * m + k] = occ[:, k] * amps
    rho = (phi @ amps.conj()).reshape(m, m)
    gram = np.empty((m * m, m * m), dtype=np.complex128)
    for lo in range(0, m * m, m):  # M conjugated images at a time, so the images are held once
        np.matmul(phi[lo:lo + m].conj(), phi.T, out=gram[lo:lo + m])
    gram = gram.reshape(m, m, m, m)  # [q, k, s, l] = <E_qk Psi|E_sl Psi>
    return np.transpose(gram, (1, 2, 3, 0)) - np.einsum("kl,sq->kslq", rho, np.eye(m))


def reorder_two_body(rho2: np.ndarray, convention: str) -> np.ndarray:
    """Reindex the stored rho_kslq tensor.

    "stored":    [k, s, l, q] = <b†_k b†_s b_l b_q>   (pairing k<->q, s<->l)
    "physicist": [k, s, q, l] = <b†_k b†_s b_l b_q>   (bra indices, ket indices)
    "chemist":   [k, q, s, l] = <b†_k b†_s b_l b_q>   (pairs adjacent)
    """
    if convention == "stored":
        return rho2
    if convention == "physicist":
        return np.transpose(rho2, (0, 1, 3, 2))
    if convention == "chemist":
        return np.transpose(rho2, (0, 3, 1, 2))
    raise ValueError(f"unknown convention {convention!r}")


def natural_occupations(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of the one-body density, descending."""
    return np.linalg.eigvalsh(rho)[::-1]


def energy(spec, psi) -> complex:
    """<Psi|H|Psi> as a dot-product with the kernel-applied vector."""
    if isinstance(psi, mixtures.MixtureStateVector):
        hpsi = mixtures.apply_mixture_hamiltonian(spec, psi)
        return mixtures.mixture_dot(psi, hpsi)
    if spec.space != psi.space:
        raise SpaceMismatchError("energy of a state from a different space")
    return dot(psi, kernel.apply_hamiltonian(spec, psi))


def mixture_densities(psi: mixtures.MixtureStateVector) -> tuple[np.ndarray, np.ndarray]:
    """Species-resolved one-body densities (rho_A, rho_B); traces N_A and N_B."""
    _warn_if_unnormalized(psi)
    mat = psi.as_matrix()
    return _one_body(psi.mspace.space_a, mat, 0), _one_body(psi.mspace.space_b, mat, 1)


def site_densities(psi) -> np.ndarray:
    """Diagonal occupations <n_k> straight from the configuration table."""
    if isinstance(psi, mixtures.MixtureStateVector):
        mat = psi.as_matrix()
        return np.concatenate([_occupations(psi.mspace.space_a, mat, 0), _occupations(psi.mspace.space_b, mat, 1)])
    return _occupations(psi.space, psi.amplitudes, 0)


# -- emission ----------------------------------------------------------------

SPARSE_RHO2_ABOVE_M = 8


def density_report(rho: np.ndarray, rho2: np.ndarray | None = None) -> dict:
    """JSON-ready document with rho, natural occupations, and optionally rho2.

    rho2 switches to a sparse coordinate list above M = 8 orbitals.
    """
    doc = {
        "format": "fockops-density/1",
        "rho": [[[v.real, v.imag] for v in row] for row in rho],
        "natural_occupations": [float(x) for x in natural_occupations(rho)],
    }
    if rho2 is not None:
        m = rho2.shape[0]
        if m > SPARSE_RHO2_ABOVE_M:
            entries = []
            for idx in np.argwhere(rho2 != 0):
                v = rho2[tuple(idx)]
                entries.append([int(i) + 1 for i in idx] + [v.real, v.imag])
            doc["rho2_coordinates"] = entries
        else:
            doc["rho2"] = [
                [[[[v.real, v.imag] for v in a3] for a3 in a2] for a2 in a1] for a1 in rho2
            ]
    return doc


def write_density_json(path, rho, rho2=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(density_report(rho, rho2), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_density_csv(path, rho) -> None:
    """rho as rows `k,q,re,im` plus trailing natural-occupation rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# fockops-density-csv", "1"])
        writer.writerow(["k", "q", "re", "im"])
        m = rho.shape[0]
        for k in range(m):
            for q in range(m):
                writer.writerow([k + 1, q + 1, repr(rho[k, q].real), repr(rho[k, q].imag)])
        for i, occ in enumerate(natural_occupations(rho), start=1):
            writer.writerow(["natural", i, repr(float(occ)), "0.0"])
