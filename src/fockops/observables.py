"""Reduced density matrices and expectation values.

Both densities are Gram products of states with one or two particles
fewer, as in direct CI (Olsen et al., J. Chem. Phys. 89, 2185, 1988).
b_q maps the compact enumeration of N particles onto that of N - 1 in
closed form: the space's ladder table (:func:`fockspace.ladder_table`) gives,
for every (N-1)-particle configuration m, the address of m + e_q and b_q's
weight there, sqrt(n_q) (bosons) or the parity (-1)^{S_q} of the particles
below q (fermions), with the kernel's sign conventions.  So A_q = b_q Psi
is one weighted gather for all q at once.  Then

    rho_kq = <b_k Psi|b_q Psi>,    rho2_kslq = <b_s b_k Psi|b_l b_q Psi>,

where b_l b_q Psi comes from A by the ladder table of the (N-1)-particle
space.  A fermion space above half filling takes the hole picture: its
table leads to N + 1 particles, B_q = b†_q Psi, and with
Z_kslq = <b†_q b†_l Psi|b†_k b†_s Psi>,

    rho_kq = -<b†_q Psi|b†_k Psi>   (k != q),
    rho2_kslq = Z_kslq + δ_qk rho_sl - δ_qs rho_kl - δ_lk rho_sq + δ_ls rho_kq
                + (δ_qs δ_lk - δ_qk δ_ls) <Psi|Psi>,

so no table or state is larger than the space's own.  The diagonal of
rho is read off the occupation table and its upper triangle mirrored, so
rho is exactly Hermitian.  Both Gram products run over fixed blocks of the
neighbouring space's configurations, so no pair gather is built and rho2
holds the M single-ladder states whole but never the M^2 double ones.
The space's ladder tables are the ones its SpaceTables keep for H: the
space's own for the pair gathers, and the next one, of N -/+ 1 particles,
for the pair part.  No call builds a neighbour space's SpaceTables.
"""

from __future__ import annotations

import csv
import json
import warnings

import numpy as np

from . import kernel, mixtures
from .errors import SpaceMismatchError
from .fockspace import StateVector, dot, has_pair_space

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


def _ladder(table, weight, mat: np.ndarray, axis: int) -> np.ndarray:
    """b_q, or b†_q in the hole picture, along ``axis`` of ``mat`` for every orbital q: ``axis`` becomes (q, j).

    ``table`` and ``weight`` are columns of the space's ladder table
    (:func:`fockspace.ladder_table`): entry (q, j) is the amplitude at
    address table[q, j] times weight[q, j], which is 0 where the table
    holds -1.
    """
    out = mat.take(table, axis)
    out *= weight.reshape(weight.shape + (1,) * (mat.ndim - axis - 1))
    return out


def _gram(ladder, mat: np.ndarray, axis: int, rows: int) -> np.ndarray:
    """conj(X) X^T for X = :func:`_ladder` of ``mat`` along ``axis`` through ``ladder``, reshaped to ``rows`` rows.

    X is formed and summed in fixed blocks of about
    :data:`kernel.BLOCK_AMPLITUDES` entries, so its temporaries do not grow
    with the space, and the order of the sum depends on the space alone.
    """
    table, weight, _ = ladder
    gram = np.zeros((rows, rows), dtype=mat.dtype)
    width = len(table) * (mat.size // mat.shape[axis])  # entries of X per column of the table
    for lo, hi in kernel.row_blocks(table.shape[1], width):
        images = _ladder(table[:, lo:hi], weight[:, lo:hi], mat, axis).reshape(rows, -1)
        gram += images.conj() @ images.T
    return gram


def _one_body(space, mat: np.ndarray, axis: int) -> np.ndarray:
    """rho[k-1, q-1] = <Psi|b†_k b_q|Psi> along ``axis``: k < q from the Gram product through the space's ladder table, the diagonal its occupations."""
    ladder = space.tables().ladder
    gram = _gram(ladder, np.moveaxis(mat, axis, 0), 0, space.m)
    upper = np.triu(-gram.T if ladder[2] else gram, 1).astype(np.complex128)
    return np.diag(_occupations(space, mat, axis)) + upper + upper.conj().T


def one_body_density(psi: StateVector) -> np.ndarray:
    """rho[k-1, q-1] = <Psi| b†_k b_q |Psi> (M x M complex)."""
    _warn_if_unnormalized(psi)
    return _one_body(psi.space, psi.amplitudes, 0)


def two_body_density(psi: StateVector) -> np.ndarray:
    """rho2[k-1, s-1, l-1, q-1] = <Psi| b†_k b†_s b_l b_q |Psi> (M^4 complex).

    The Gram matrix of the M^2 states b_l b_q Psi of N - 2 particles, or in
    the hole picture of b†_k b†_s Psi of N + 2 (module docstring).  They
    are formed from the M states of N -/+ 1 particles, held whole, in
    blocks of the configurations of N -/+ 2 (:func:`_gram`).
    """
    _warn_if_unnormalized(psi)
    space, m, amps = psi.space, psi.space.m, psi.amplitudes
    table, weight, holes = space.tables().ladder
    if has_pair_space(space):
        gram = _gram(space.tables().next_ladder, _ladder(table, weight, amps, 0), 1, m * m)
    else:
        gram = np.zeros((m * m, m * m), dtype=amps.dtype)
    # row (q-1) M + l-1 holds b_l b_q Psi (holes: b†_l b†_q Psi), so
    # rho2[k, s, l, q] = gram[k, s, q, l] (holes: Z_kslq = gram[l, q, s, k])
    order = (3, 2, 0, 1) if holes else (0, 1, 3, 2)
    rho2 = np.ascontiguousarray(np.transpose(gram.reshape(m, m, m, m), order), dtype=np.complex128)
    if holes:  # in this order the terms cancel exactly where k = s or l = q
        rho, one, nrm = _one_body(space, amps, 0), np.eye(m), psi.norm() ** 2
        for pattern, factor, other in (("qk,ls->kslq", -nrm, one), ("qs,lk->kslq", nrm, one),
                                       ("qk,sl->kslq", 1.0, rho), ("qs,kl->kslq", -1.0, rho),
                                       ("lk,sq->kslq", -1.0, rho), ("ls,kq->kslq", 1.0, rho)):
            rho2 += factor * np.einsum(pattern, one, other)
    return rho2


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
    return tuple(_one_body(space, mat, axis) for axis, space in enumerate((psi.mspace.space_a, psi.mspace.space_b)))


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
