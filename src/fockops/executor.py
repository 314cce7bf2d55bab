"""The one map from a kind of space to H's engine, and worker-count resolution.

:func:`prepare` and :func:`parallel_apply` send a single-species space to
:mod:`kernel` and a mixture space to :mod:`mixtures`.  The kernels cut
the output vector into fixed blocks of rows that do not depend on the
worker count (see :func:`kernel.row_blocks`); workers only decide which
thread computes which whole blocks, and no amplitude is ever summed across
threads, so the result is bitwise identical for any number of workers and
identical to the serial kernel.  Worker count comes from the argument, else
the FOCK_WORKERS environment variable, else 1.
"""

from __future__ import annotations

import os

import numpy as np

from . import kernel, mixtures
from .errors import WorkerCountError
from .fockspace import MixtureSpace

WORKERS_ENV = "FOCK_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins over FOCK_WORKERS; default 1.

    A count that is not an ``int`` or ``np.integer`` (a ``bool`` included),
    or is below 1, raises :class:`WorkerCountError`.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise WorkerCountError(f"{WORKERS_ENV}={env!r} is not an integer") from None
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise WorkerCountError(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise WorkerCountError(f"worker count must be >= 1, got {workers}")
    return int(workers)


def prepare(spec):
    """``spec``'s H factored once by the engine of its kind of space, to pass to :func:`parallel_apply`."""
    return (mixtures if isinstance(spec.space, MixtureSpace) else kernel).prepare(spec)


def parallel_apply(spec, psi, workers: int | None = None):
    """H|psi> with row blocks spread over ``workers`` threads; bitwise equal to serial.

    The kind of ``psi``'s space picks the engine, so ``spec`` may be a spec
    or a prepared operator of either kind; one that does not fit ``psi`` is
    a SpaceMismatchError.  The engine's apply is read off its module per call.
    """
    workers = resolve_workers(workers)
    if isinstance(psi.space, MixtureSpace):
        return mixtures.apply_mixture_hamiltonian(spec, psi, workers=workers)
    return kernel.apply_hamiltonian(spec, psi, workers=workers)
