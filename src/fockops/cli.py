"""Command-line driver: enum, gs, prop, apply.

Exit codes: 0 success, 1 usage, 2 file/parse errors, 3 solver
non-convergence, 4 propagation step failure.  Identical inputs, seed, and
worker count produce byte-identical outputs (no timestamps anywhere).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import combinadics as cmb
from . import executor, observables, oracle, solvers
from .combinadics import BOSON, FERMION
from .errors import (
    AddressError,
    ConvergenceError,
    FockError,
    IntegralFormatError,
    InvalidConfigurationError,
    InvalidSpaceError,
    SizeError,
    SolverArgumentError,
    StepFailureError,
    ValidationError,
    WorkerCountError,
)
from .fockspace import (
    MAX_SPACE_TABLE,
    MixtureSpace,
    SpaceDescriptor,
    basis_state,
    load_state,
    occupation_table,
    save_state,
)
from .hamiltonian import HERMITICITY_TOL, MixtureHamiltonianSpec, load_integrals, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_STEP = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="fockops", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enum", help="rank/unrank configurations", parents=[])
    stat = enum.add_mutually_exclusive_group(required=True)
    stat.add_argument("--fermion", action="store_true")
    stat.add_argument("--boson", action="store_true")
    stat.add_argument("--mix", action="store_true")
    enum.add_argument("-N", type=int, required=True, help="particle count (species A for --mix)")
    enum.add_argument("-M", type=int, required=True, help="orbital count (species A for --mix)")
    enum.add_argument("-NB", type=int, help="species B particle count")
    enum.add_argument("-MB", type=int, help="species B orbital count")
    enum.add_argument("--mix-stats", default="boson,boson",
                      help="statistics pair for --mix, e.g. fermion,boson")
    enum.add_argument("--holes", help="comma-separated hole positions to rank")
    enum.add_argument("--occ", help="comma-separated occupations to rank")
    enum.add_argument("--bits", help="occupation bit string to rank, orbital 1 leftmost")
    enum.add_argument("-J", type=int, help="address to unrank")
    enum.add_argument("--all", action="store_true", help="list every configuration")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--file", required=True, help="integral file")
    common.add_argument("--workers", type=int, default=None)
    common.add_argument("--oracle", action="store_true",
                        help="compare against the dense brute-force reference")
    common.add_argument("--out", help="output path (default: stdout for reports)")

    gs = sub.add_parser("gs", help="ground state via Lanczos", parents=[common])
    gs.add_argument("--tol", type=float, default=1e-10)
    gs.add_argument("--max-iter", type=int, default=300)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--densities", action="store_true", help="include rho in the report")

    prop = sub.add_parser("prop", help="SIL time propagation", parents=[common])
    prop.add_argument("--initial", required=True,
                      help="configuration literal (occupations/bits, ';' between species) or vector file")
    prop.add_argument("--t-final", type=float, required=True)
    prop.add_argument("--dt", type=float, required=True)
    prop.add_argument("--krylov-dim", type=int, default=15,
                      help="largest Krylov dimension per substep; each space stops as soon as its "
                           "error estimate meets the substep's share of --err-tol")
    prop.add_argument("--err-tol", type=float, default=1e-9,
                      help="error budget per grid step; it sets the accuracy, and with it the "
                           "Krylov dimension and the substeps each step uses")
    prop.add_argument("--save-state", help="write the final state vector here")

    app = sub.add_parser("apply", help="apply H to a vector file", parents=[common])
    app.add_argument("--in", dest="infile", required=True, help="input vector file")
    return p


def _parse_csv_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InvalidConfigurationError(f"bad integer list {text!r}") from None


def _config_string(space: SpaceDescriptor, occ) -> str:
    sep = "" if space.statistics == FERMION else ","
    return "|" + sep.join(str(v) for v in occ) + ">"


def _config_strings(space: SpaceDescriptor) -> list[str]:
    """Every configuration of ``space`` as printed, in address order."""
    occ = occupation_table(space.statistics, space.n, space.m)[0]
    return [_config_string(space, row) for row in occ.tolist()]


def _check_listing(*spaces: SpaceDescriptor) -> None:
    """Refuse ``--all`` when an occupation table (N_conf M entries) or the listing exceeds MAX_SPACE_TABLE."""
    lines = math.prod(space.n_conf for space in spaces)
    if lines > MAX_SPACE_TABLE or any(space.n_conf * space.m > MAX_SPACE_TABLE for space in spaces):
        raise InvalidSpaceError(f"--all would list {lines} configurations: the listing is too large")


def _decimal(value: int) -> str:
    """``value`` in decimal, refused (exit 1) beyond Python's integer-to-string digit limit."""
    try:
        return str(value)
    except ValueError:
        raise InvalidSpaceError(
            f"a number of more than {sys.get_int_max_str_digits()} decimal digits cannot be printed"
        ) from None


def _check_printable_count(*spaces: tuple[str, int, int]) -> None:
    """Refuse, as :func:`_decimal` would, a count of (statistics, N, M) ``spaces`` counted only up to the limit."""
    cap = 10 ** sys.get_int_max_str_digits() - 1  # 0 when there is no limit
    for statistics, n, m in spaces:
        cmb._check_space(statistics, n, m)
        if cap and cmb.capped_dimension(statistics, n, m, cap) > cap:
            _decimal(cap + 1)  # one digit past the limit: raises


def cmd_enum(args) -> int:
    """One species, or with ``--mix`` a mixture whose addresses J list (J_A, J_B), J_B fastest."""
    if args.mix:
        if any(v is not None for v in (args.holes, args.occ, args.bits)):
            raise InvalidConfigurationError("--holes, --occ and --bits rank one species' configuration; with --mix use -J")
        stats = [s.strip().lower() for s in args.mix_stats.split(",")]
        if len(stats) != 2 or any(s not in (FERMION, BOSON) for s in stats):
            raise InvalidSpaceError(f"bad --mix-stats {args.mix_stats!r}")
        if args.NB is None or args.MB is None:
            raise InvalidSpaceError("--mix requires -NB and -MB")
        counts = list(zip(stats, (args.N, args.NB), (args.M, args.MB)))
    else:
        counts = [(FERMION if args.fermion else BOSON, args.N, args.M)]
    if args.J is not None or (all(v is None for v in (args.holes, args.occ, args.bits)) and not args.all):
        _check_printable_count(*counts)
    species = [SpaceDescriptor(*c) for c in counts]
    space = MixtureSpace(*species) if args.mix else species[0]

    def line(j, picks):  # J, then each species' address if there are two, then each configuration
        addresses = [str(j_s) for j_s, _ in picks] if args.mix else []
        return " ".join([str(j), *addresses, *(text for _, text in picks)])

    lines = []
    if args.holes is not None:
        if space.statistics != FERMION:
            raise InvalidConfigurationError("--holes labels fermionic configurations only")
        lines.append(_decimal(cmb.fermion_rank(_parse_csv_ints(args.holes), space)))
    if args.occ is not None:
        lines.append(_decimal(_rank_occupations(space, _parse_csv_ints(args.occ))))
    if args.bits is not None:
        if any(c not in "01" for c in args.bits):
            raise InvalidConfigurationError(f"bit string must be 0/1, got {args.bits!r}")
        lines.append(_decimal(_rank_occupations(space, [int(c) for c in args.bits])))
    if args.J is not None:
        js = space.split(args.J) if args.mix else (args.J,)
        lines.append(line(args.J, [(j, _config_string(s, s.occupations_at(j))) for s, j in zip(species, js)]))
    if args.all:
        _check_listing(*species)
        listings = [list(enumerate(_config_strings(s), start=1)) for s in species]
        lines += [line(j, picks) for j, picks in enumerate(itertools.product(*listings), start=1)]
    if not lines:
        lines.append(f"N_conf{'_total' if args.mix else ''} {_decimal(space.n_conf)}")
    print("\n".join(lines))
    return EXIT_OK


def _resolve_initial(spec, text: str):
    """Initial state from a configuration literal or a vector file path."""
    import os

    if os.path.exists(text):
        return _load_vector(spec, text)
    if isinstance(spec, MixtureHamiltonianSpec):
        parts = text.split(";")
        if len(parts) != 2:
            raise InvalidConfigurationError("mixture literal needs 'A;B'")
        j_a = _literal_to_address(spec.mspace.space_a, parts[0])
        j_b = _literal_to_address(spec.mspace.space_b, parts[1])
        return basis_state(spec.mspace, spec.mspace.address(j_a, j_b))
    return basis_state(spec.space, _literal_to_address(spec.space, text))


def _literal_to_address(space: SpaceDescriptor, text: str) -> int:
    text = text.strip()
    if "," in text:
        return _rank_occupations(space, _parse_csv_ints(text))
    try:
        occ = [int(c) for c in text]
    except ValueError:
        raise InvalidConfigurationError(f"bad occupation string {text!r}") from None
    return _rank_occupations(space, occ)


def _rank_occupations(space: SpaceDescriptor, occ) -> int:
    if space.statistics == FERMION:
        occ = cmb.validate_occupations(occ, space.n, space.m, fermionic=True)
        return cmb.fermion_rank(cmb.occupations_to_holes(occ), space)
    return cmb.boson_rank(occ, space)


def _load_vector(spec, path):
    """A vector file for ``spec``'s space (single species or mixture)."""
    psi = load_state(path)
    if psi.space != spec.space:
        raise FockError(f"{path}: vector space does not match the integral file")
    return psi


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _require_hermitian(spec) -> None:
    """Refuse a Hamiltonian that is not self-adjoint before any solve (exit 2, one line)."""
    mix = isinstance(spec, MixtureHamiltonianSpec)
    checks = []
    for label, part in [("A ", spec.spec_a), ("B ", spec.spec_b)] if mix else [("", spec)]:
        report = validate(part)
        checks.append((f"{label}one-body table h[k,q]", report.one_body_deviation, report.one_body_worst))
        checks.append((f"{label}two-body table W[k,s,q,l]", report.two_body_deviation, report.two_body_worst))
    if mix:
        checks.append(("inter-species table X[k,q,k',q']", *spec.inter.hermiticity()))
    for what, dev, worst in checks:
        if dev > HERMITICITY_TOL:
            raise ValidationError(f"{what} is not self-adjoint: deviation {dev:.3e} at index {worst}")


def cmd_gs(args) -> int:
    spec = load_integrals(args.file)
    _require_hermitian(spec)
    workers = executor.resolve_workers(args.workers)
    result = solvers.ground_state(
        spec, tol=args.tol, max_iter=args.max_iter, seed=args.seed, workers=workers
    )
    report = {
        "format": "fockops-gs-report/1",
        "energy": result.energy,
        "residual": result.residual,
        "iterations": result.iterations,
        "seed": args.seed,
        "workers": workers,
    }
    if isinstance(result.state.space, MixtureSpace):
        rhos = zip(("_a", "_b"), observables.mixture_densities(result.state))
    else:
        rhos = [("", observables.one_body_density(result.state))]
    for suffix, rho in rhos:
        report["natural_occupations" + suffix] = [float(x) for x in observables.natural_occupations(rho)]
        if args.densities:
            report["rho" + suffix] = [[[v.real, v.imag] for v in row] for row in rho]
    if args.oracle:
        mat = oracle.build_dense(spec)
        evals, _ = oracle.dense_eig(mat)
        report["oracle"] = {
            "energy": float(evals[0]),
            "deviation": abs(result.energy - float(evals[0])),
        }
    _emit(args, json.dumps(report, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_prop(args) -> int:
    spec = load_integrals(args.file)
    _require_hermitian(spec)
    workers = executor.resolve_workers(args.workers)
    psi0 = _resolve_initial(spec, args.initial)
    result = solvers.propagate(
        spec,
        psi0,
        t_final=args.t_final,
        dt=args.dt,
        krylov_dim=args.krylov_dim,
        err_tol=args.err_tol,
        store_states=args.oracle,
        workers=workers,
    )
    deviation = None
    if args.oracle:
        mat = oracle.build_dense(spec)
        deviation = []
        for t, state in zip(result.times, result.states):
            exact = oracle.dense_expm_apply(mat, psi0, float(t), space=spec.space)
            deviation.append(float(np.linalg.norm(state.amplitudes - exact.amplitudes)))
    if args.out:
        solvers.write_series_csv(result, args.out, oracle_deviation=deviation)
    else:
        solvers.write_series_csv(result, sys.stdout, oracle_deviation=deviation)
    if args.save_state:
        save_state(result.final_state, args.save_state)
    return EXIT_OK


def cmd_apply(args) -> int:
    spec = load_integrals(args.file)
    workers = executor.resolve_workers(args.workers)
    psi = _load_vector(spec, args.infile)
    hpsi = executor.parallel_apply(spec, psi, workers=workers)
    if args.out:
        save_state(hpsi, args.out)
    expectation = complex(np.vdot(psi.amplitudes, hpsi.amplitudes))
    report = {
        "format": "fockops-apply/1",
        "expectation": [expectation.real, expectation.imag],
        "workers": workers,
    }
    if args.oracle:
        mat = oracle.build_dense(spec)
        exact = mat @ psi.amplitudes
        report["oracle_deviation"] = float(np.linalg.norm(hpsi.amplitudes - exact))
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "enum":
            return cmd_enum(args)
        if args.command == "gs":
            return cmd_gs(args)
        if args.command == "prop":
            return cmd_prop(args)
        if args.command == "apply":
            return cmd_apply(args)
        parser.error(f"unknown command {args.command!r}")
    except (InvalidSpaceError, InvalidConfigurationError, AddressError, WorkerCountError,
            SolverArgumentError) as exc:
        print(f"fockops: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"fockops: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except StepFailureError as exc:
        print(f"fockops: {exc}", file=sys.stderr)
        return EXIT_STEP
    except (IntegralFormatError, SizeError, FockError, OSError) as exc:
        print(f"fockops: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
