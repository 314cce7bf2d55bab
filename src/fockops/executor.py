"""Worker-count resolution and the parallel entry point of H|psi>.

The kernels cut the output vector into fixed blocks of rows that do not
depend on the worker count (see :func:`kernel.run_row_blocks`); workers only
decide which thread computes which whole blocks, and no amplitude is ever
summed across threads, so the result is bitwise identical for any number of
workers and identical to the serial kernel.  Worker count comes from the
argument, else the FOCK_WORKERS environment variable, else 1.
"""

from __future__ import annotations

import os

from . import kernel, mixtures
from .errors import WorkerCountError
from .mixtures import MixtureHamiltonianSpec

WORKERS_ENV = "FOCK_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins over FOCK_WORKERS; default 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise WorkerCountError(f"{WORKERS_ENV}={env!r} is not an integer") from None
    if workers < 1:
        raise WorkerCountError(f"worker count must be >= 1, got {workers}")
    return workers


def parallel_apply(spec, psi, workers: int | None = None):
    """H|psi> with row blocks spread over ``workers`` threads; bitwise equal to serial."""
    workers = resolve_workers(workers)
    if isinstance(spec, MixtureHamiltonianSpec):
        return mixtures.apply_mixture_hamiltonian(spec, psi, workers=workers)
    return kernel.apply_hamiltonian(spec, psi, workers=workers)
