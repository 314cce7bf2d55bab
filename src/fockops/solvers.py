"""Krylov solvers built solely on the matrix-free apply.

Ground states come from a Lanczos iteration with full reorthogonalization;
time propagation uses short iterative Lanczos (SIL): each step spans a fresh
Krylov subspace of the current state and applies exp(-i T dt) in it, so loss
of orthogonality cannot accumulate across steps.  The basis is kept as rows
of contiguous blocks, so each reorthogonalization pass (classical
Gram-Schmidt), Ritz vector and SIL result is one BLAS-2 call per block.
Lanczos runs a second pass only when the first one cancels most of the new
vector (the DGKS criterion); SIL runs one.  Lanczos grows the basis by
:data:`BASIS_BLOCK_ROWS` rows; ``propagate`` reuses one ``krylov_dim``-row
block in every step.  Each SIL space grows one vector at a time and stops at
the first dimension whose error estimate meets the substep's budget, so
``krylov_dim`` is only a cap; a rejected substep (possible only once the
space is full) is retried on the same space.  The matvec that gives each
grid point's energy is also the first Krylov product of the next step.

Each solve factors H once (:func:`kernel.prepare`, :func:`mixtures.prepare`)
and passes the prepared operator to every matvec.  When its dtype is
float64 (every coefficient the kernel keeps is real), H maps real vectors
to real vectors, so ``ground_state`` runs in float64: start vector, basis
and matvecs, at half the memory traffic of complex128.  ``propagate`` is
always complex.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernel, mixtures, observables
from .errors import ConvergenceError, SolverArgumentError, StepFailureError
from .fockspace import StateVector
from .mixtures import MixtureHamiltonianSpec, MixtureStateVector

_BREAKDOWN_TOL = 1e-13
_DGKS_RATIO = 2**-0.5  # a pass that keeps less than this share of ||w|| is repeated
BASIS_BLOCK_ROWS = 16  # rows per block of a growing Lanczos basis


def _check_arguments(*rules) -> None:
    """Raise :class:`SolverArgumentError` for the first (name, value, holds, requirement) that does not hold."""
    for name, value, holds, requirement in rules:
        if not holds:
            raise SolverArgumentError(f"{name} must be {requirement}, got {value!r}")


def _operator(spec, workers: int = 1):
    """(matvec on raw arrays, wrap array -> state, dimension, dtype) of H prepared once, for either spec kind.

    The matvec passes the prepared operator to the module's apply entry
    point; ``dtype`` is float64 when every coefficient the kernel keeps is real.
    """
    mix = isinstance(spec, MixtureHamiltonianSpec)
    op = (mixtures if mix else kernel).prepare(spec)
    state = MixtureStateVector if mix else StateVector

    def wrap(arr):
        return state(op.space, arr)

    def matvec(arr):  # looked up per call, so a wrapper set on the module attribute sees every matvec
        apply = mixtures.apply_mixture_hamiltonian if mix else kernel.apply_hamiltonian
        return apply(op, wrap(arr), workers=workers).amplitudes

    return matvec, wrap, op.space.n_conf_total if mix else op.space.n_conf, op.dtype


class _Lanczos:
    """Lanczos recurrence whose orthonormal basis rows live in contiguous blocks.

    Blocks of ``block_rows`` rows of ``dtype`` are allocated as the basis
    grows and reused by :meth:`start`; rows beyond ``size`` are never read.
    """

    def __init__(self, matvec, dim: int, block_rows: int, dtype=np.complex128):
        self.matvec, self.dim, self.block_rows, self.dtype = matvec, dim, block_rows, dtype
        self.blocks: list[np.ndarray] = []

    def start(self, v: np.ndarray, nrm: float) -> None:
        self.size, self.alphas, self.betas = 0, [], []
        self._append(v, nrm)

    def row(self, i: int) -> np.ndarray:
        return self.blocks[i // self.block_rows][i % self.block_rows]

    def step(self, dgks: bool, hv: np.ndarray | None = None):
        """(w, ||w||) for w = H times the last row, orthogonalized against every row; appends alpha.

        ``hv``, if given, is that product already computed; it becomes w and
        is modified in place.  One classical Gram-Schmidt pass always runs.
        With ``dgks`` a second one follows when the first shrinks ||w||
        below ||w|| / sqrt(2) (Daniel, Gragg, Kaufman & Stewart, Math.
        Comp. 30, 1976): only then has cancellation left w far from
        orthogonal to the basis.
        """
        v = self.row(self.size - 1)
        w = self.matvec(v) if hv is None else hv
        self.alphas.append(float(np.vdot(v, w).real))
        w -= self.alphas[-1] * v
        if self.betas:
            w -= self.betas[-1] * self.row(self.size - 2)
        before = np.linalg.norm(w) if dgks else 0.0
        self._orthogonalize(w)
        nrm = float(np.linalg.norm(w))
        if dgks and nrm < _DGKS_RATIO * before:
            self._orthogonalize(w)
            nrm = float(np.linalg.norm(w))
        return w, nrm

    def _orthogonalize(self, w: np.ndarray) -> None:
        """One classical Gram-Schmidt pass in place, w -= V (V^H w): two GEMVs per block."""
        for rows in self._filled():
            w -= (rows @ w.conj()).conj() @ rows

    def push(self, w: np.ndarray, beta: float) -> None:
        """Extend the basis by w / beta."""
        self.betas.append(beta)
        self._append(w, beta)

    def combine(self, coef) -> np.ndarray:
        """sum_j coef[j] * row j: one GEMV per block."""
        k = self.block_rows
        return sum(coef[b * k : (b + 1) * k] @ rows for b, rows in enumerate(self._filled()))

    def _append(self, w, scale) -> None:
        if self.size == len(self.blocks) * self.block_rows:
            self.blocks.append(np.empty((self.block_rows, self.dim), dtype=self.dtype))
        np.divide(w, scale, out=self.row(self.size))
        self.size += 1

    def _filled(self) -> list[np.ndarray]:
        k = self.block_rows
        return [blk[: self.size - b * k] for b, blk in enumerate(self.blocks[: -(-self.size // k)])]


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
    the best residual if ``max_iter`` Krylov vectors do not suffice.  The
    solve runs in float64 when every kept coefficient is real; the state is
    returned as complex128 either way.  A ``tol`` that is negative or not
    finite, or a ``max_iter`` below 1, raises :class:`SolverArgumentError`.
    """
    _check_arguments(
        ("tol", tol, math.isfinite(tol) and tol >= 0, "finite and >= 0"),
        ("max_iter", max_iter, max_iter >= 1, ">= 1"),
    )
    matvec, wrap, dim, dtype = _operator(spec, workers)
    real = dtype == np.float64
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) if real else rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    m_cap = min(max_iter, dim)
    lz = _Lanczos(matvec, dim, BASIS_BLOCK_ROWS, v.dtype)
    lz.start(v, np.linalg.norm(v))
    del v  # the basis holds its own copy
    best_res = np.inf
    best_est = np.inf
    for it in range(1, m_cap + 1):
        w, beta = lz.step(dgks=True)  # full reorthogonalization
        evals, evecs = np.linalg.eigh(_tridiagonal(lz.alphas, lz.betas))
        theta, y = float(evals[0]), evecs[:, 0]
        res_est = beta * abs(y[-1])
        best_est = min(best_est, res_est)
        breakdown = beta <= _BREAKDOWN_TOL * max(1.0, abs(theta))
        if res_est <= tol or breakdown or it == dim:
            x = lz.combine(y)
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
                return GroundStateResult(energy, wrap(x.astype(np.complex128, copy=False)), res, it)
        if it < m_cap:  # non-breakdown guarantees beta well above zero here
            lz.push(w, beta)
    best = best_res if np.isfinite(best_res) else best_est
    raise ConvergenceError(
        f"no convergence to {tol:.1e} within {m_cap} iterations; best residual {best:.3e}",
        best_residual=float(best),
    )


@dataclass
class PropagationResult:
    """Time grid, recorded observables, and per-step error estimates.

    ``substeps`` and ``rejections`` count, per grid step, the SIL substeps
    accepted and those the error estimate rejected, and ``krylov_dims`` the
    Lanczos vectors built for them (all 0 at t = 0).  A propagation of a
    nonzero state makes ``1 + krylov_dims.sum()`` matvecs.
    """

    times: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    site_densities: np.ndarray
    error_estimates: np.ndarray
    final_state: StateVector | MixtureStateVector
    states: list | None = None
    substeps: np.ndarray | None = None
    rejections: np.ndarray | None = None
    krylov_dims: np.ndarray | None = None

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies - self.energies[0])))


def _sil_space(lz: _Lanczos, y: np.ndarray, m_max: int, hy: np.ndarray | None = None):
    """Start the Krylov space of y in ``lz``; return (dt, budget) -> (exp(-i H dt) y, error estimate, dimension).

    Each call adds Lanczos vectors one at a time until the error estimate
    is at most ``budget``, the space breaks down or it holds ``m_max``
    vectors; a retry with a shorter dt reuses every vector already built.
    The estimate (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997) is the
    2-norm difference between the propagated coefficients at subspace
    dimensions m and m-1, weighted by the state norm, or the leakage
    ``nrm beta |dt|`` toward the first neglected vector at m = 1; a
    breakdown makes the step exact and the estimate zero.  ``hy``, if given,
    is H y and saves the first matvec.
    """
    nrm = float(np.linalg.norm(y))
    if nrm == 0.0:
        return lambda dt, budget: (y.copy(), 0.0, 0)
    lz.start(y, nrm)
    # one Gram-Schmidt pass: the space is rebuilt every step
    w, beta = lz.step(dgks=False, hv=None if hy is None else hy / nrm)

    def step(dt, budget):
        nonlocal w, beta
        u_small = None  # coefficients at dimension m - 1 for this dt, once known
        while True:
            alphas, betas = lz.alphas, lz.betas
            m = len(alphas)
            u = _expm_tridiag(alphas, betas, dt)
            if m >= lz.dim or beta <= _BREAKDOWN_TOL * max(1.0, abs(alphas[-1])):
                err = 0.0  # the Krylov space is invariant (or complete): exact step
            elif m == 1:
                err = nrm * beta * abs(dt)  # leakage amplitude toward the first neglected vector
            else:
                if u_small is None:
                    u_small = _expm_tridiag(alphas[:-1], betas[:-1], dt)
                err = nrm * float(np.linalg.norm(u - np.concatenate([u_small, [0.0]])))
            if err <= budget or m == m_max:
                return nrm * lz.combine(u), err, m
            lz.push(w, beta)
            w, beta = lz.step(dgks=False)
            u_small = u

    return step


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

    Each substep's Krylov space stops growing at the first dimension, at
    most ``krylov_dim``, whose SIL error estimate is within the substep's
    share of ``err_tol``.  A grid step is subdivided whenever the full space
    still exceeds it; a rejected substep is retried on the same Krylov
    space.  If halving reaches dt / 2^30 a :class:`StepFailureError` is
    raised.  ``dt`` must be finite and > 0, ``t_final`` and ``err_tol``
    finite and >= 0, and ``krylov_dim`` >= 1, or
    :class:`SolverArgumentError` is raised.
    """
    _check_arguments(
        ("dt", dt, math.isfinite(dt) and dt > 0, "finite and > 0"),
        ("t_final", t_final, math.isfinite(t_final) and t_final >= 0, "finite and >= 0"),
        ("krylov_dim", krylov_dim, krylov_dim >= 1, ">= 1"),
        ("err_tol", err_tol, math.isfinite(err_tol) and err_tol >= 0, "finite and >= 0"),
    )
    matvec, wrap, dim, _ = _operator(spec, workers)
    m_max = min(krylov_dim, dim)
    lz = _Lanczos(matvec, dim, m_max)
    y = psi0.amplitudes.astype(np.complex128)  # a copy, complex even for a real psi0
    n_steps = int(round(t_final / dt))
    times = [0.0]
    norms = [float(np.linalg.norm(y))]
    hy = matvec(y)  # H y: gives the energy, then starts the next step's first Krylov space
    energies = [float(np.vdot(y, hy).real)]
    dens = [observables.site_densities(wrap(y))]
    errs = [0.0]
    substeps, rejections, krylov_dims = [0], [0], [0]
    states = [wrap(y.copy())] if store_states else None
    h_min = dt / 2**30
    eps_floor = 64 * np.finfo(np.float64).eps
    for step in range(1, n_steps + 1):
        remaining = dt
        h = dt
        acc_err = 0.0
        accepted = rejected = built = 0
        sil = None
        while remaining > 1e-12 * dt:
            h = min(h, remaining)
            if sil is None:
                sil, hy = _sil_space(lz, y, m_max, hy), None
                # subdividing cannot push the estimate below roundoff noise
                floor = eps_floor * max(1.0, float(np.linalg.norm(y)))
            budget = max(err_tol * (h / dt), floor)
            y_try, err, m = sil(h, budget)
            if err > budget:
                if h / 2 < h_min:
                    raise StepFailureError(
                        f"error estimate {err:.3e} above tolerance at minimal substep {h:.3e}"
                    )
                h /= 2
                rejected += 1
                continue
            y, sil = y_try, None
            acc_err += err
            accepted += 1
            built += m
            remaining -= h
        times.append(step * dt)
        norms.append(float(np.linalg.norm(y)))
        hy = matvec(y)
        energies.append(float(np.vdot(y, hy).real))
        dens.append(observables.site_densities(wrap(y)))
        errs.append(acc_err)
        substeps.append(accepted)
        rejections.append(rejected)
        krylov_dims.append(built)
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
        substeps=np.array(substeps),
        rejections=np.array(rejections),
        krylov_dims=np.array(krylov_dims),
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
