"""Krylov solvers built solely on the matrix-free apply, dot, and axpy.

Ground states come from a Lanczos iteration with full reorthogonalization;
time propagation uses short iterative Lanczos (SIL): each step spans a fresh
Krylov subspace of the current state and applies exp(-i T dt) in it, so loss
of orthogonality cannot accumulate across steps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernel, mixtures, observables
from .errors import ConvergenceError, StepFailureError
from .fockspace import StateVector
from .mixtures import MixtureHamiltonianSpec, MixtureStateVector

_BREAKDOWN_TOL = 1e-13


def _operator(spec, workers: int = 1):
    """(matvec on raw arrays, wrap array -> state, dimension) for either spec kind."""
    if isinstance(spec, MixtureHamiltonianSpec):
        mspace = spec.mspace

        def matvec(arr):
            return mixtures.apply_mixture_hamiltonian(
                spec, MixtureStateVector(mspace, arr), workers=workers
            ).amplitudes

        return matvec, lambda arr: MixtureStateVector(mspace, arr), mspace.n_conf_total
    space = spec.space

    def matvec(arr):
        return kernel.apply_hamiltonian(spec, StateVector(space, arr), workers=workers).amplitudes

    return matvec, lambda arr: StateVector(space, arr), space.n_conf


def _tridiagonal(alphas, betas) -> np.ndarray:
    t = np.diag(np.asarray(alphas, dtype=np.float64))
    if betas:
        b = np.asarray(betas, dtype=np.float64)
        t += np.diag(b, 1) + np.diag(b, -1)
    return t


class GroundStateResult(NamedTuple):
    energy: float
    state: StateVector | MixtureStateVector
    residual: float
    iterations: int


def ground_state(
    spec, tol: float = 1e-10, max_iter: int = 300, seed: int = 0, workers: int = 1
) -> GroundStateResult:
    """Lowest eigenpair of H with residual ||H psi - E psi|| <= tol.

    Deterministic for a given seed.  Raises :class:`ConvergenceError` with
    the best residual if ``max_iter`` Krylov vectors do not suffice.
    """
    matvec, wrap, dim = _operator(spec, workers)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    best_res = np.inf
    best_est = np.inf
    m_cap = max(1, min(max_iter, dim))
    for it in range(1, m_cap + 1):
        w = matvec(basis[-1])
        alpha = float(np.vdot(basis[-1], w).real)
        alphas.append(alpha)
        w = w - alpha * basis[-1]
        if len(basis) > 1:
            w -= betas[-1] * basis[-2]
        for _ in range(2):  # full reorthogonalization, twice for safety
            for b in basis:
                w -= np.vdot(b, w) * b
        beta = float(np.linalg.norm(w))
        evals, evecs = np.linalg.eigh(_tridiagonal(alphas, betas))
        theta, y = float(evals[0]), evecs[:, 0]
        res_est = beta * abs(y[-1])
        best_est = min(best_est, res_est)
        breakdown = beta <= _BREAKDOWN_TOL * max(1.0, abs(theta))
        if res_est <= tol or breakdown or it == dim:
            x = np.zeros(dim, dtype=np.complex128)
            for coef, b in zip(y, basis):
                x += coef * b
            x /= np.linalg.norm(x)
            hx = matvec(x)
            energy = float(np.vdot(x, hx).real)
            res = float(np.linalg.norm(hx - energy * x))
            best_res = min(best_res, res)
            if res <= tol or breakdown or it == dim:
                if res > tol:
                    raise ConvergenceError(
                        f"Krylov space exhausted at dimension {it} with residual {res:.3e}",
                        best_residual=res,
                    )
                return GroundStateResult(energy, wrap(x), res, it)
        # non-breakdown guarantees beta well above zero here
        betas.append(beta)
        basis.append(w / beta)
    best = best_res if np.isfinite(best_res) else best_est
    raise ConvergenceError(
        f"no convergence to {tol:.1e} within {m_cap} iterations; best residual {best:.3e}",
        best_residual=float(best),
    )


@dataclass
class PropagationResult:
    """Time grid, recorded observables, and per-step error estimates."""

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    site_densities: np.ndarray
    error_estimates: np.ndarray
    final_state: StateVector | MixtureStateVector
    states: list | None = None

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


def _sil_step(matvec, y: np.ndarray, dt: float, m_max: int):
    """One exp(-i H dt) application in a fresh Krylov subspace.

    The error estimate is the 2-norm difference between the propagated
    coefficients at subspace dimensions m and m-1 (weighted by the state
    norm); a breakdown makes the step exact and the estimate zero.
    """
    nrm = float(np.linalg.norm(y))
    if nrm == 0.0:
        return y.copy(), 0.0
    dim = y.shape[0]
    m_max = max(1, min(m_max, dim))
    basis = [y / nrm]
    alphas: list[float] = []
    betas: list[float] = []
    breakdown = False
    for _ in range(m_max):
        w = matvec(basis[-1])
        alpha = float(np.vdot(basis[-1], w).real)
        alphas.append(alpha)
        w = w - alpha * basis[-1]
        if len(basis) > 1:
            w -= betas[-1] * basis[-2]
        for b in basis:  # reorthogonalize within the step
            w -= np.vdot(b, w) * b
        beta = float(np.linalg.norm(w))
        if len(alphas) == m_max:
            break
        if beta <= _BREAKDOWN_TOL * max(1.0, abs(alpha)):
            breakdown = True
            break
        betas.append(beta)
        basis.append(w / beta)
    m = len(alphas)
    u = _expm_tridiag(alphas, betas, dt)
    if breakdown or m >= dim:
        err = 0.0  # the Krylov space is invariant (or complete): exact step
    elif m == 1:
        err = nrm * beta * abs(dt)  # leakage amplitude toward the first neglected vector
    else:
        u_small = _expm_tridiag(alphas[:-1], betas[:-1], dt)
        err = nrm * float(np.linalg.norm(u - np.concatenate([u_small, [0.0]])))
    out = np.zeros(dim, dtype=np.complex128)
    for coef, b in zip(u, basis):
        out += coef * b
    return nrm * out, err


def _expm_tridiag(alphas, betas, dt: float) -> np.ndarray:
    w, v = np.linalg.eigh(_tridiagonal(alphas, betas))
    return v @ (np.exp(-1j * w * dt) * v[0].conj())


def propagate(
    spec,
    psi0,
    t_final: float,
    dt: float,
    krylov_dim: int = 15,
    err_tol: float = 1e-9,
    store_states: bool = False,
    workers: int = 1,
) -> PropagationResult:
    """Propagate psi(t) = exp(-i H t) psi0 on the grid t = 0, dt, 2 dt, ..., t_final.

    Each grid step is internally subdivided whenever the SIL error estimate
    exceeds its share of ``err_tol``; if halving reaches dt / 2^30 a
    :class:`StepFailureError` is raised.
    """
    if dt <= 0 or t_final < 0:
        raise ValueError("need dt > 0 and t_final >= 0")
    matvec, wrap, _ = _operator(spec, workers)
    y = psi0.amplitudes.copy()
    n_steps = int(round(t_final / dt))
    times = [0.0]
    norms = [float(np.linalg.norm(y))]
    energies = [float(np.vdot(y, matvec(y)).real)]
    dens = [observables.site_densities(wrap(y))]
    errs = [0.0]
    states = [wrap(y.copy())] if store_states else None
    h_min = dt / 2**30
    eps_floor = 64 * np.finfo(np.float64).eps
    for step in range(1, n_steps + 1):
        remaining = dt
        h = dt
        acc_err = 0.0
        while remaining > 1e-12 * dt:
            h = min(h, remaining)
            y_try, err = _sil_step(matvec, y, h, krylov_dim)
            # subdividing cannot push the estimate below roundoff noise
            budget = max(err_tol * (h / dt), eps_floor * max(1.0, float(np.linalg.norm(y))))
            if err > budget:
                if h / 2 < h_min:
                    raise StepFailureError(
                        f"error estimate {err:.3e} above tolerance at minimal substep {h:.3e}"
                    )
                h /= 2
                continue
            y = y_try
            acc_err += err
            remaining -= h
        times.append(step * dt)
        norms.append(float(np.linalg.norm(y)))
        energies.append(float(np.vdot(y, matvec(y)).real))
        dens.append(observables.site_densities(wrap(y)))
        errs.append(acc_err)
        if store_states:
            states.append(wrap(y.copy()))
    return PropagationResult(
        times=np.array(times),
        norms=np.array(norms),
        energies=np.array(energies),
        site_densities=np.array(dens),
        error_estimates=np.array(errs),
        final_state=wrap(y),
        states=states,
    )


def write_series_csv(result: PropagationResult, path_or_file, oracle_deviation=None) -> None:
    """Columns: time, norm, energy, density_1..density_K [, oracle_deviation]."""
    n_sites = result.site_densities.shape[1]
    if hasattr(path_or_file, "write"):
        _write_series(csv.writer(path_or_file), result, n_sites, oracle_deviation)
        return
    with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
        _write_series(csv.writer(fh), result, n_sites, oracle_deviation)


def _write_series(writer, result, n_sites, oracle_deviation):
    writer.writerow(["# fockops-series", "1"])
    header = ["time", "norm", "energy"] + [f"density_{k}" for k in range(1, n_sites + 1)]
    if oracle_deviation is not None:
        header.append("oracle_deviation")
    writer.writerow(header)
    for i, t in enumerate(result.times):
        row = [repr(float(t)), repr(float(result.norms[i])), repr(float(result.energies[i]))]
        row += [repr(float(x)) for x in result.site_densities[i]]
        if oracle_deviation is not None:
            row.append(repr(float(oracle_deviation[i])))
        writer.writerow(row)
