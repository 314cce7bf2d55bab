"""Krylov solvers built solely on the matrix-free apply.

Ground states come from a Lanczos iteration with partial reorthogonalization;
time propagation uses short iterative Lanczos (SIL): each step spans a fresh
Krylov subspace of the current state and applies exp(-i T dt) in it, so loss
of orthogonality cannot accumulate across steps.  The basis is kept as rows
of contiguous blocks, so each reorthogonalization pass (classical
Gram-Schmidt), Ritz vector and SIL result is one BLAS-2 call per block.
A step runs a pass only when Simon's recurrence (Math. Comp. 42, 1984)
estimates that the new vector has drifted from orthogonality with some row
by more than a limit set by the solve's tolerance, and then on the next
step too; it always runs one on the first step of a space, on the step
whose vector a restart keeps, and on every step in a space of at most
:data:`RESTART_MIN_DIM` configurations.  Lanczos follows a pass with a
second one only when the first cancels most of the new vector (the DGKS
criterion); SIL runs one.  Lanczos grows the basis by
:data:`BASIS_BLOCK_ROWS` rows up to :data:`BASIS_MAX_ROWS`; a full basis is
thick-restarted (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000) from its
:data:`BASIS_KEEP_ROWS` lowest Ritz vectors and the residual direction, so
the memory of ``ground_state`` does not grow with the iteration count.  A
Krylov space that fits under the cap never restarts, nor does a space of
dimension at most :data:`RESTART_MIN_DIM`, whose whole basis is small.
``propagate`` reuses one ``krylov_dim``-row block in every step.  Each SIL
space grows one vector at a time and stops at the first dimension whose
error estimate meets the substep's budget, so ``krylov_dim`` is only a cap;
a rejected substep (possible only once the space is full) is retried on the
same space, and only an accepted one forms its state.  The matvec that
gives each grid point's energy is also the first Krylov product of the next
step.

Each solve factors H once (:func:`executor.prepare` picks the engine) and
passes the prepared operator to :func:`executor.parallel_apply` in every
matvec.  When its dtype is float64 (every coefficient kept is real), H maps
real vectors to real vectors, so ``ground_state`` runs in float64: start
vector, basis and matvecs, at half the memory traffic of complex128.
``propagate`` is always complex.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import executor, observables
from .errors import ConvergenceError, SolverArgumentError, SpaceMismatchError, StepFailureError
from .fockspace import StateVector

_BREAKDOWN_TOL = 1e-13
_EPS = float(np.finfo(np.float64).eps)
_DGKS_RATIO = 2**-0.5  # a pass that keeps less than this share of ||w|| is repeated
BASIS_BLOCK_ROWS = 16  # rows per block of a growing Lanczos basis
BASIS_MAX_ROWS = 2 * BASIS_BLOCK_ROWS  # ground_state's basis is restarted when it holds this many rows
BASIS_KEEP_ROWS = 12  # Ritz vectors a restart keeps; at most BASIS_BLOCK_ROWS, so they fit the first block
RESTART_MIN_DIM = 4 * BASIS_MAX_ROWS  # a smaller space keeps its whole basis (at most 256 KB) and never restarts


def _check_arguments(*rules) -> None:
    """Raise :class:`SolverArgumentError` for the first (name, value, holds, requirement) that does not hold."""
    for name, value, holds, requirement in rules:
        if not holds:
            raise SolverArgumentError(f"{name} must be {requirement}, got {value!r}")


def _operator(spec, workers: int | None = 1):
    """(matvec on raw arrays, wrap array -> state, dimension, dtype) of H prepared once; ``workers`` checked here."""
    workers = executor.resolve_workers(workers)
    op = executor.prepare(spec)

    def wrap(arr):
        return StateVector(op.space, arr)

    def matvec(arr):  # looked up per call, so a wrapper set on the module attribute sees every matvec
        return executor.parallel_apply(op, wrap(arr), workers).amplitudes

    return matvec, wrap, op.space.n_conf, op.dtype


class _Lanczos:
    """Lanczos recurrence whose basis rows live in contiguous blocks.

    Blocks of ``block_rows`` rows of ``dtype`` are allocated as the basis
    grows and reused by :meth:`start` and :meth:`restart`; rows beyond
    ``size`` are never read.  After a restart the basis holds Ritz vectors
    with values ``ritz`` followed by a Lanczos recurrence (``alphas``,
    ``betas``) whose first row couples to them by ``arrow``: the projected
    matrix V^H H V is that arrowhead-plus-tridiagonal (:meth:`projected`).
    ``omega`` and ``omega_prev`` estimate |v_i^H v_j| of the last two rows
    j against every row i, with 1 for i = j; :meth:`step` keeps them within
    the limit it is given.
    """

    def __init__(self, matvec, dim: int, block_rows: int, dtype=np.complex128):
        self.matvec, self.dim, self.block_rows, self.dtype = matvec, dim, block_rows, dtype
        self.blocks: list[np.ndarray] = []

    def start(self, v: np.ndarray, nrm: float) -> None:
        self.size, self.alphas, self.betas = 0, [], []
        self.ritz = self.arrow = np.zeros(0)
        self._append(v, nrm)
        self.omega, self.omega_prev, self.owed = np.ones(1), np.zeros(0), 1

    def row(self, i: int) -> np.ndarray:
        return self.blocks[i // self.block_rows][i % self.block_rows]

    def step(self, limit: float, dgks: bool = False, hv: np.ndarray | None = None):
        """(w, ||w||) for w = H times the last row, less its recurrence terms; appends alpha.

        ``hv``, if given, is that product already computed; it becomes w and
        is modified in place.  A classical Gram-Schmidt pass against every
        row runs when a pass is owed (the first step of a space, or the step
        after a pass the estimate asked for), when ``limit`` is 0, or when
        the estimate of w's drift from orthogonality (:meth:`_drift`) passes
        ``limit``; the last also owes one on the next step (Simon's rule).
        With ``dgks`` a second pass follows when the first shrinks ||w||
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
        nrm = float(np.linalg.norm(w))
        omega = None if self.owed or limit <= 0 or nrm == 0 else self._drift(nrm)
        if omega is None or omega[:-1].max() > limit:
            self.owed = 0 if omega is None else 1
            before = nrm
            self._orthogonalize(w)
            nrm = float(np.linalg.norm(w))
            if dgks and nrm < _DGKS_RATIO * before:
                self._orthogonalize(w)
                nrm = float(np.linalg.norm(w))
            omega = _orthogonalized(self.size + 1)
        self.omega_prev, self.omega = self.omega, omega
        return w, nrm

    def _drift(self, beta: float) -> np.ndarray:
        """Simon's estimate of |v_i^H w| / beta for every row i, from the projected matrix P; 1 for w itself.

        For i below the last row j it is (|(omega P)_i - alpha omega_i -
        beta_j omega_prev_i| + eps (|alpha| + beta)) / beta, and eps for i = j,
        with alpha and beta_j the recurrence's last terms.  A Ritz row i reads
        (omega P)_i = ritz_i omega_i + arrow_i omega_k, k the first Lanczos row.
        """
        k, n, o = self.ritz.size, self.size, self.omega
        po = np.empty(n)
        po[:k] = self.ritz * o[:k] + self.arrow * o[k]
        x, b = o[k:], np.asarray(self.betas)
        t = po[k:]
        np.multiply(self.alphas, x, out=t)
        t[:-1] += b * x[1:]
        t[1:] += b * x[:-1]
        t[0] += self.arrow @ o[:k]
        alpha = self.alphas[-1]
        new = np.empty(n + 1)
        new[: n - 1] = (np.abs(po[:-1] - alpha * o[:-1] - self.betas[-1] * self.omega_prev)
                        + _EPS * (abs(alpha) + beta)) / beta
        new[n - 1 :] = _EPS, 1.0
        return new

    def _orthogonalize(self, w: np.ndarray) -> None:
        """One classical Gram-Schmidt pass in place, w -= V (V^H w): two GEMVs per block."""
        for rows in self._filled():
            w -= (rows @ w.conj()).conj() @ rows

    def push(self, w: np.ndarray, beta: float) -> None:
        """Extend the basis by w / beta."""
        self.betas.append(beta)
        self._append(w, beta)

    def combine(self, coef, cols=slice(None)) -> np.ndarray:
        """sum_j coef[..., j] * row j, on the columns ``cols``: one GEMV (or GEMM) per block."""
        k = self.block_rows
        return sum(coef[..., b * k : (b + 1) * k] @ rows[:, cols] for b, rows in enumerate(self._filled()))

    def restart(self, ritz: np.ndarray, y: np.ndarray, w: np.ndarray, beta: float) -> None:
        """Keep the Ritz vectors V y[:, i] (values ``ritz``) as the first rows, then w / beta.

        ``y`` holds eigenvectors of :meth:`projected` and w / beta is the
        residual direction of the last step.  The rows are rotated in place,
        one column slice at a time, so no temporary is much larger than one
        vector.  By H V = V P + w e_last^T, the Ritz vector V y[:, i] couples
        to w / beta by ``beta y[-1, i]``: that is the arrowhead column, so a
        restart costs no matvec.  The recurrence then starts afresh from
        w / beta.
        """
        k = len(ritz)
        width = -(-self.dim // k)
        for c in range(0, self.dim, width):
            cols = slice(c, c + width)
            self.blocks[0][:k, cols] = self.combine(y.T, cols)
        self.size, self.alphas, self.betas = k, [], []
        self.ritz, self.arrow = ritz, beta * y[-1]
        self._append(w, beta)
        self.omega, self.owed = _orthogonalized(k + 1), 1  # the arrow couplings are removed by a pass

    def projected(self) -> np.ndarray:
        """V^H H V: diag(ritz) bordered by ``arrow`` on the first row of the tridiagonal (alphas, betas)."""
        t = _tridiagonal(self.alphas, self.betas)
        k = self.ritz.size
        if not k:
            return t
        p = np.zeros((k + len(t), k + len(t)))
        p[k:, k:] = t
        p[:k, :k] = np.diag(self.ritz)
        p[:k, k] = p[k, :k] = self.arrow
        return p

    def _append(self, w, scale) -> None:
        if self.size == len(self.blocks) * self.block_rows:
            self.blocks.append(np.empty((self.block_rows, self.dim), dtype=self.dtype))
        np.multiply(w, 1.0 / scale, out=self.row(self.size))
        self.size += 1

    def _filled(self) -> list[np.ndarray]:
        k = self.block_rows
        return [blk[: self.size - b * k] for b, blk in enumerate(self.blocks[: -(-self.size // k)])]


def _orthogonalized(n: int) -> np.ndarray:
    """The drift estimate of a row just orthogonalized against the n - 1 before it: eps, then 1 for itself."""
    omega = np.full(n, _EPS)
    omega[-1] = 1.0
    return omega


def _pass_limit(dim: int, tol: float, scale: float) -> float:
    """The drift a step allows before it reorthogonalizes: min(sqrt(eps), 0.1 tol / scale), 0 for a small space.

    A restart keeps V^H H V as diag(ritz) plus the arrow and drops the
    O(||H|| omega) couplings that a basis omega from orthogonal carries, so
    ``scale`` is ||H|| or what multiplies the error.  A space of at most
    :data:`RESTART_MIN_DIM` configurations reorthogonalizes every step: its
    basis is cheap, and the test for an exhausted space assumes it orthonormal.
    """
    if dim <= RESTART_MIN_DIM:
        return 0.0
    return min(_EPS**0.5, 0.1 * tol / scale) if scale > 0 else _EPS**0.5


def _tridiagonal(alphas, betas) -> np.ndarray:
    t = np.diag(np.asarray(alphas, dtype=np.float64))
    if betas:
        b = np.asarray(betas, dtype=np.float64)
        t += np.diag(b, 1) + np.diag(b, -1)
    return t


class GroundStateResult(NamedTuple):
    """``iterations`` counts recurrence steps; ``matvecs`` every product with H, residual checks included."""

    energy: float
    state: StateVector
    residual: float
    iterations: int
    matvecs: int = 0


def ground_state(
    spec, tol: float = 1e-10, max_iter: int = 300, seed: int = 0, workers: int | None = 1
) -> GroundStateResult:
    """Lowest eigenpair of H with residual ||H psi - E psi|| <= tol.

    Deterministic for a given seed.  ``max_iter`` caps the recurrence
    iterations (one matvec each; every residual check costs one more).
    Raises :class:`ConvergenceError` with the best residual if they do not
    suffice.  The basis holds at most :data:`BASIS_MAX_ROWS` rows and is
    thick-restarted when full, unless the space has at most
    :data:`RESTART_MIN_DIM` configurations.  The solve runs in float64 when
    every kept coefficient is real; the state is returned as complex128
    either way.  A ``tol`` that is negative or not finite, a ``max_iter``
    below 1, or a ``seed`` that is not an integer >= 0 raises
    :class:`SolverArgumentError`; ``workers`` is read as
    :func:`executor.resolve_workers` reads it.
    """
    _check_arguments(
        ("tol", tol, math.isfinite(tol) and tol >= 0, "finite and >= 0"),
        ("max_iter", max_iter, max_iter >= 1, ">= 1"),
        ("seed", seed, isinstance(seed, (int, np.integer)) and seed >= 0, "an integer >= 0"),
    )
    matvec, wrap, dim, dtype = _operator(spec, workers)
    real = dtype == np.float64
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) if real else rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lz = _Lanczos(matvec, dim, BASIS_BLOCK_ROWS, v.dtype)
    lz.start(v, np.linalg.norm(v))
    del v  # the basis holds its own copy
    best_res = np.inf
    best_est = np.inf
    checks = 0
    norm_t = 0.0  # the largest |Ritz value| so far, for ||H||
    for it in range(1, max_iter + 1):
        keep = lz.size >= BASIS_MAX_ROWS and dim > RESTART_MIN_DIM  # a restart keeps w: orthogonalize it
        w, beta = lz.step(0.0 if keep else _pass_limit(dim, tol, norm_t), dgks=True)
        evals, evecs = np.linalg.eigh(lz.projected())
        norm_t = max(norm_t, abs(evals[0]), abs(evals[-1]))
        theta, y = float(evals[0]), evecs[:, 0]
        res_est = beta * abs(y[-1])
        best_est = min(best_est, res_est)
        breakdown = beta <= _BREAKDOWN_TOL * max(1.0, abs(theta))
        exhausted = lz.size == dim
        if res_est <= tol or breakdown or exhausted:
            x = lz.combine(y)
            x /= np.linalg.norm(x)
            hx = matvec(x)
            checks += 1
            energy = float(np.vdot(x, hx).real)
            res = float(np.linalg.norm(hx - energy * x))
            best_res = min(best_res, res)
            if res <= tol or breakdown or exhausted:
                if res > tol:
                    raise ConvergenceError(
                        f"Krylov space exhausted at dimension {lz.size} with residual {res:.3e}",
                        best_residual=res,
                    )
                state = wrap(x.astype(np.complex128, copy=False))
                return GroundStateResult(energy, state, res, it, it + checks)
        if it == max_iter:
            break
        if keep:
            lz.restart(evals[:BASIS_KEEP_ROWS], evecs[:, :BASIS_KEEP_ROWS], w, beta)
        else:  # non-breakdown: beta well above zero here
            lz.push(w, beta)
    best = best_res if np.isfinite(best_res) else best_est
    raise ConvergenceError(
        f"no convergence to {tol:.1e} within {max_iter} iterations; best residual {best:.3e}",
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
    final_state: StateVector
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
    """Start the Krylov space of y in ``lz``; return (dt, budget) -> (state, error estimate, dimension).

    Each call adds Lanczos vectors one at a time until the error estimate
    is at most ``budget``, the space breaks down or it holds ``m_max``
    vectors; a retry with a shorter dt reuses every vector already built.
    The estimate (Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997) is the
    2-norm difference between the propagated coefficients at subspace
    dimensions m and m-1, weighted by the state norm, or the leakage
    ``nrm beta |dt|`` toward the first neglected vector at m = 1; a
    breakdown makes the step exact and the estimate zero.  ``hy``, if given,
    is H y and saves the first matvec.
    ``state()`` forms exp(-i H dt) y from the space as it is then, so a
    caller forms it only for an accepted substep, before the next call.
    """
    nrm = float(np.linalg.norm(y))
    if nrm == 0.0:
        return lambda dt, budget: (y.copy, 0.0, 0)
    lz.start(y, nrm)
    # no second pass: the space is rebuilt every step; the first step always runs one
    w, beta = lz.step(0.0, hv=None if hy is None else hy / nrm)

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
                return (lambda: nrm * lz.combine(u)), err, m
            lz.push(w, beta)
            w, beta = lz.step(_pass_limit(lz.dim, budget, nrm))
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
    workers: int | None = 1,
) -> PropagationResult:
    """Propagate psi(t) = exp(-i H t) psi0 on the grid t = 0, dt, 2 dt, ..., ending at t_final.

    A ``t_final`` within 1e-9 (relative) of a multiple of ``dt`` is on the
    grid; any other gets one last, shorter step.

    Each substep's Krylov space stops growing at the first dimension, at
    most ``krylov_dim``, whose SIL error estimate is within the substep's
    share of ``err_tol``.  A grid step is subdivided whenever the full space
    still exceeds it; a rejected substep is retried on the same Krylov
    space.  If halving reaches dt / 2^30 a :class:`StepFailureError` is
    raised.  ``dt`` must be finite and > 0, ``t_final`` and ``err_tol``
    finite and >= 0, ``t_final / dt`` finite, and ``krylov_dim`` >= 1, or
    :class:`SolverArgumentError` is raised.  A ``psi0`` of another space
    raises :class:`SpaceMismatchError`, and ``workers`` is read as
    :func:`executor.resolve_workers` reads it.
    """
    if psi0.space != spec.space:
        raise SpaceMismatchError("initial state and Hamiltonian belong to different spaces")
    _check_arguments(
        ("dt", dt, math.isfinite(dt) and dt > 0, "finite and > 0"),
        ("t_final", t_final, math.isfinite(t_final) and t_final >= 0, "finite and >= 0"),
        ("krylov_dim", krylov_dim, krylov_dim >= 1, ">= 1"),
        ("err_tol", err_tol, math.isfinite(err_tol) and err_tol >= 0, "finite and >= 0"),
    )
    ratio = t_final / dt
    _check_arguments(("t_final / dt", ratio, math.isfinite(ratio), "finite"))
    n_steps, last = round(ratio), dt  # the grid's steps and the length of the last
    if abs(ratio - n_steps) > 1e-9 * ratio:  # off the grid: one last, shorter step ends at t_final
        n_steps = math.floor(ratio) + 1
        last = t_final - (n_steps - 1) * dt
    matvec, wrap, dim, _ = _operator(spec, workers)
    m_max = min(krylov_dim, dim)
    lz = _Lanczos(matvec, dim, m_max)
    y = psi0.amplitudes.astype(np.complex128)  # a copy, complex even for a real psi0
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
        remaining = h = dt if step < n_steps else last
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
            state, err, m = sil(h, budget)
            if err > budget:
                if h / 2 < h_min:
                    raise StepFailureError(
                        f"error estimate {err:.3e} above tolerance at minimal substep {h:.3e}"
                    )
                h /= 2
                rejected += 1
                continue
            y, sil = state(), None
            acc_err += err
            accepted += 1
            built += m
            remaining -= h
        times.append(step * dt if step < n_steps else t_final)
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
