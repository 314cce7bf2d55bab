"""The four benchmark workloads, each shaped like one ``fockops`` CLI call.

An operation does what one ``fockops gs|apply|prop`` invocation does, in
the CLI's order, through the library functions the CLI calls: it parses
the integral file afresh, so per-space tables and gather caches start cold
as they do for a CLI user, and it writes the CLI's output file.  All calls
go through module attributes (``hamiltonian.load_integrals``, not a name
imported from it) so that the span wrappers in ``spans`` see them.

Each workload also knows its set-up (parse plus table build), an untimed
reference for its output checks, and a sibling small enough for the dense
oracle (``N_conf <= oracle.DENSE_CAP``).  Why each workload was chosen is
written down in README.md beside this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import inputs
from fockops import (combinadics, executor, fockspace, hamiltonian, kernel, mixtures, observables,
                     oracle, solvers)
from fockops.combinadics import BOSON, FERMION
from fockops.fockspace import SpaceDescriptor

# tolerances of the output checks
TRACE_TOL = 1e-8
ENERGY_TOL = 1e-8
ORACLE_APPLY_TOL = 1e-10
ORACLE_PROP_TOL = 1e-7


def _space(kind) -> SpaceDescriptor:
    statistics, n, m = kind
    return SpaceDescriptor(statistics, n, m)


def term_count(spec) -> int:
    if isinstance(spec, mixtures.MixtureHamiltonianSpec):
        return len(mixtures.mixture_terms(spec))
    return len(kernel.hamiltonian_terms(spec))


def spaces_of(spec) -> list[SpaceDescriptor]:
    if isinstance(spec, mixtures.MixtureHamiltonianSpec):
        return [spec.mspace.space_a, spec.mspace.space_b]
    return [spec.space]


def _oracle_size(spec) -> bool:
    dim = spec.mspace.n_conf_total if isinstance(spec, mixtures.MixtureHamiltonianSpec) else spec.space.n_conf
    return dim <= oracle.DENSE_CAP


class Workload:
    """Interface every workload implements; ``inp`` is the dict ``generate`` returns."""

    name = ""

    def generate(self, workdir: Path, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inp: dict):
        """What a CLI user pays before the first matvec: parse plus table build."""
        spec = hamiltonian.load_integrals(inp["ints"])
        for space in spaces_of(spec):
            space.tables()
        return spec

    def reference(self, inp: dict):
        """Untimed data the output checks compare against."""
        return None

    def operation(self, inp: dict) -> dict:
        raise NotImplementedError

    def check(self, inp: dict, ref, out: dict) -> list[str]:
        """Failed output checks, as one message each; empty when all hold."""
        raise NotImplementedError

    def sibling(self) -> "Workload":
        """The same code path on an input small enough for the dense oracle."""
        raise NotImplementedError

    def apply_input(self, inp: dict):
        """(spec, vector) for the executor's one-apply measurements, freshly parsed."""
        spec = hamiltonian.load_integrals(inp["ints"])
        if isinstance(spec, mixtures.MixtureHamiltonianSpec):
            return spec, mixtures.mixture_random_state(spec.mspace, seed=inp["seed"])
        return spec, fockspace.random_state(spec.space, seed=inp["seed"])


def _gs_report(path: Path, result, rho) -> None:
    report = {
        "format": "fockops-gs-report/1",
        "energy": result.energy,
        "residual": result.residual,
        "iterations": result.iterations,
        "natural_occupations": [float(x) for x in observables.natural_occupations(rho)],
    }
    path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _oracle_ground_energy(inp: dict) -> float | None:
    spec = hamiltonian.load_integrals(inp["ints"])
    if not _oracle_size(spec):
        return None
    evals, _ = oracle.dense_eig(oracle.build_dense(spec))
    return float(evals[0])


@dataclass(frozen=True)
class DenseGS(Workload):
    """``fockops gs`` on dense random h and W, then rho and rho2."""

    name = "dense-gs"
    space: tuple = (FERMION, 4, 8)
    tol: float = 1e-9

    def generate(self, workdir, seed):
        ints = workdir / f"{self.name}.ints"
        inputs.write_integrals(inputs.dense_spec(_space(self.space), np.random.default_rng(seed)), ints)
        return {"ints": ints, "seed": seed, "report": workdir / f"{self.name}.json"}

    def reference(self, inp):
        return _oracle_ground_energy(inp)

    def operation(self, inp):
        spec = hamiltonian.load_integrals(inp["ints"])
        result = solvers.ground_state(spec, tol=self.tol, seed=inp["seed"])
        rho = observables.one_body_density(result.state)
        rho2 = observables.two_body_density(result.state)
        _gs_report(inp["report"], result, rho)
        return {"spec": spec, "result": result, "rho": rho, "rho2": rho2}

    def check(self, inp, ref, out):
        n = self.space[1]
        fails = []
        energy = out["result"].energy
        if ref is None or not abs(energy - ref) <= ENERGY_TOL:
            fails.append(f"energy {energy!r} differs from dense_eig {ref!r}")
        tr = complex(np.trace(out["rho"]))
        if not abs(tr - n) <= TRACE_TOL:
            fails.append(f"tr rho = {tr} != {n}")
        pair = complex(np.einsum("kssk->", out["rho2"]))
        if not abs(pair - n * (n - 1)) <= TRACE_TOL:
            fails.append(f"tr rho2 = {pair} != {n * (n - 1)}")
        return fails

    def sibling(self):
        return replace(self, space=(FERMION, 3, 6))


@dataclass(frozen=True)
class DenseApply(Workload):
    """``fockops apply --workers 2``: read a vector, apply H once, write the result."""

    name = "dense-apply"
    space: tuple = (BOSON, 8, 8)
    workers: int = 2

    def generate(self, workdir, seed):
        rng = np.random.default_rng(seed)
        space = _space(self.space)
        ints, vec = workdir / f"{self.name}.ints", workdir / f"{self.name}.in.fvec"
        inputs.write_integrals(inputs.dense_spec(space, rng), ints)
        inputs.write_random_vector(space, rng, vec)
        return {"ints": ints, "vec": vec, "seed": seed, "out": workdir / f"{self.name}.out.fvec"}

    def reference(self, inp):
        """Single-threaded kernel result, plus the dense matrix product when small."""
        spec = hamiltonian.load_integrals(inp["ints"])
        psi = fockspace.load_state(inp["vec"])
        serial = kernel.apply_hamiltonian(spec, psi).amplitudes
        dense = oracle.build_dense(spec) @ psi.amplitudes if _oracle_size(spec) else None
        return serial, dense

    def operation(self, inp):
        spec = hamiltonian.load_integrals(inp["ints"])
        psi = fockspace.load_state(inp["vec"])
        if psi.space != spec.space:
            raise ValueError("vector space does not match the integral file")
        hpsi = executor.parallel_apply(spec, psi, workers=self.workers)
        fockspace.save_state(hpsi, inp["out"])
        expectation = complex(np.vdot(psi.amplitudes, hpsi.amplitudes))
        return {"hpsi": hpsi.amplitudes, "expectation": expectation}

    def check(self, inp, ref, out):
        serial, dense = ref
        fails = []
        hpsi = out["hpsi"]
        if not np.array_equal(hpsi, serial):
            fails.append(f"{self.workers}-worker result differs from the serial kernel")
        if not np.array_equal(fockspace.load_state(inp["out"]).amplitudes, hpsi):
            fails.append("saved vector does not reload bitwise")
        e = out["expectation"]
        if not abs(e.imag) <= 1e-9 * max(1.0, abs(e)):
            fails.append(f"Im <psi|H|psi> = {e.imag!r}")
        if dense is not None:
            dev = float(np.linalg.norm(hpsi - dense))
            if not dev <= ORACLE_APPLY_TOL * max(1.0, float(np.linalg.norm(dense))):
                fails.append(f"result differs from the dense oracle by {dev:.3e}")
        return fails

    def sibling(self):
        return replace(self, space=(BOSON, 4, 4))

    def apply_input(self, inp):
        return hamiltonian.load_integrals(inp["ints"]), fockspace.load_state(inp["vec"])


@dataclass(frozen=True)
class HubbardGS(Workload):
    """``fockops gs`` on a disordered Bose-Hubbard chain, then rho."""

    name = "hubbard-gs"
    n: int = 9
    m: int = 9
    hopping: float = 1.0
    interaction: float = 2.0
    disorder: float = 0.5
    tol: float = 1e-9

    def generate(self, workdir, seed):
        ints = workdir / f"{self.name}.ints"
        spec = inputs.hubbard_spec(self.n, self.m, self.hopping, self.interaction, self.disorder,
                                   np.random.default_rng(seed))
        inputs.write_integrals(spec, ints)
        return {"ints": ints, "seed": seed, "report": workdir / f"{self.name}.json"}

    def reference(self, inp):
        return _oracle_ground_energy(inp)

    def operation(self, inp):
        spec = hamiltonian.load_integrals(inp["ints"])
        result = solvers.ground_state(spec, tol=self.tol, seed=inp["seed"])
        rho = observables.one_body_density(result.state)
        _gs_report(inp["report"], result, rho)
        return {"spec": spec, "result": result, "rho": rho}

    def check(self, inp, ref, out):
        fails = []
        result = out["result"]
        x = result.state
        hx = kernel.apply_hamiltonian(out["spec"], x).amplitudes
        e = float(np.vdot(x.amplitudes, hx).real)
        res = float(np.linalg.norm(hx - e * x.amplitudes))
        if not res <= self.tol:
            fails.append(f"recomputed residual {res:.3e} above tol {self.tol:.1e}")
        if not abs(e - result.energy) <= ENERGY_TOL:
            fails.append(f"recomputed energy {e!r} differs from {result.energy!r}")
        tr = complex(np.trace(out["rho"]))
        if not abs(tr - self.n) <= TRACE_TOL:
            fails.append(f"tr rho = {tr} != {self.n}")
        if ref is not None and not abs(result.energy - ref) <= ENERGY_TOL:
            fails.append(f"energy {result.energy!r} differs from dense_eig {ref!r}")
        return fails

    def sibling(self):
        return replace(self, n=4, m=5)


@dataclass(frozen=True)
class MixtureProp(Workload):
    """``fockops prop`` of a Bose-Fermi Hubbard chain from a seeded configuration pair."""

    name = "mixture-prop"
    space_a: tuple = (BOSON, 5, 8)
    space_b: tuple = (FERMION, 4, 8)
    hopping: float = 1.0
    u_aa: float = 2.0
    u_ab: float = 1.0
    dt: float = 0.1
    t_final: float = 0.5
    krylov_dim: int = 15
    err_tol: float = 1e-9

    def generate(self, workdir, seed):
        rng = np.random.default_rng(seed)
        space_a, space_b = _space(self.space_a), _space(self.space_b)
        ints = workdir / f"{self.name}.ints"
        inputs.write_integrals(
            inputs.bose_fermi_spec(space_a, space_b, self.hopping, self.u_aa, self.u_ab), ints
        )
        occ = (inputs.random_occupations(space_a, rng), inputs.random_occupations(space_b, rng))
        return {"ints": ints, "seed": seed, "initial": occ, "series": workdir / f"{self.name}.csv"}

    @staticmethod
    def _rank(space, occ) -> int:
        if space.statistics == FERMION:
            return combinadics.fermion_rank(combinadics.occupations_to_holes(occ), space)
        return combinadics.boson_rank(occ, space)

    def _initial(self, spec, inp):
        mspace = spec.mspace
        occ_a, occ_b = inp["initial"]
        return mixtures.mixture_basis_state(
            mspace, self._rank(mspace.space_a, occ_a), self._rank(mspace.space_b, occ_b)
        )

    def reference(self, inp):
        spec = hamiltonian.load_integrals(inp["ints"])
        if not _oracle_size(spec):
            return None
        return oracle.dense_expm_apply(oracle.build_dense(spec), self._initial(spec, inp), self.t_final)

    def operation(self, inp):
        spec = hamiltonian.load_integrals(inp["ints"])
        psi0 = self._initial(spec, inp)
        result = solvers.propagate(spec, psi0, t_final=self.t_final, dt=self.dt,
                                   krylov_dim=self.krylov_dim, err_tol=self.err_tol)
        solvers.write_series_csv(result, inp["series"])
        return {"spec": spec, "result": result}

    def check(self, inp, ref, out):
        fails = []
        result = out["result"]
        steps = len(result.times) - 1
        drift_tol = self.err_tol * max(steps, 1)
        if not result.norm_drift <= drift_tol:
            fails.append(f"norm drift {result.norm_drift:.3e} above {drift_tol:.1e}")
        e_tol = drift_tol * max(1.0, abs(float(result.energies[0])))
        if not result.energy_drift <= e_tol:
            fails.append(f"energy drift {result.energy_drift:.3e} above {e_tol:.1e}")
        m_a = self.space_a[2]
        dens = result.site_densities
        for label, part, n in (("A", dens[:, :m_a], self.space_a[1]), ("B", dens[:, m_a:], self.space_b[1])):
            worst = float(np.max(np.abs(part.sum(axis=1) - n)))
            if not worst <= TRACE_TOL:
                fails.append(f"species {label} site densities miss N={n} by {worst:.3e}")
        if ref is not None:
            dev = float(np.linalg.norm(result.final_state.amplitudes - ref.amplitudes))
            if not dev <= ORACLE_PROP_TOL:
                fails.append(f"final state differs from dense_expm_apply by {dev:.3e}")
        return fails

    def sibling(self):
        return replace(self, space_a=(BOSON, 2, 4), space_b=(FERMION, 2, 4))


WORKLOADS = {wl.name: wl for wl in (DenseGS(), DenseApply(), HubbardGS(), MixtureProp())}
