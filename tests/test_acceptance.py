"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
the recorded benchmark numbers.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fockops import (
    HamiltonianSpec,
    MixtureSpace,
    OneBodyTable,
    SpaceDescriptor,
    TwoBodyTable,
    apply_hamiltonian,
    apply_mixture_hamiltonian,
    apply_two_body_term,
    basis_state,
    boson_rank,
    boson_to_fermion,
    build_bose_hubbard,
    build_dense,
    dense_eig,
    dense_expm_apply,
    fermion_rank,
    ground_state,
    iterate_configurations,
    mixture_random_state,
    one_body_density,
    parallel_apply,
    propagate,
    random_state,
    two_body_density,
)
from fockops.fockspace import FermionConfig
from conftest import (
    random_hermitian_spec,
    random_mixture_spec,
    suite_mixture_spaces,
    suite_single_spaces,
)

SWEEP_CAP = 16  # N and M bound for the exhaustive boson sweeps


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _oracle_suite():
    """The seven verification spaces of the oracle-equivalence criterion."""
    return suite_single_spaces() + suite_mixture_spaces()


def _scaled_hermitian(space_or_mix, seed):
    """Random Hermitian spec with unit-scale spectral width plus its dense matrix."""
    if isinstance(space_or_mix, MixtureSpace):
        spec = random_mixture_spec(space_or_mix, seed)
        mat = build_dense(spec)
        scale = float(np.linalg.norm(mat, 2))
        spec.spec_a.one_body.matrix /= scale
        spec.spec_a.two_body.values /= scale
        spec.spec_b.one_body.matrix /= scale
        spec.spec_b.two_body.values /= scale
        spec.inter.tensor /= scale
        return spec, mat / scale
    spec = random_hermitian_spec(space_or_mix, seed)
    mat = build_dense(spec)
    scale = float(np.linalg.norm(mat, 2))
    spec.one_body.matrix /= scale
    spec.two_body.values /= scale
    return spec, mat / scale


def test_criterion_1_paper_worked_example():
    space = SpaceDescriptor.fermion(7, 10)
    t0 = time.perf_counter()
    j = fermion_rank((2, 6, 8), space)
    elapsed = time.perf_counter() - t0
    assert j == 65
    _report("1 worked-example", f"J(2,6,8) = 65 in {elapsed*1e6:.0f} us")


def test_criterion_2_enumeration_bijectivity():
    t0 = time.perf_counter()
    spaces = [
        SpaceDescriptor.fermion(n, m) for m in range(1, 17) for n in range(0, m + 1)
    ]
    spaces += [
        SpaceDescriptor.boson(n, m)
        for n in range(0, SWEEP_CAP + 1)
        for m in range(1, SWEEP_CAP + 1)
        if math.comb(n + m - 1, n) <= 50_000
    ]
    checked = 0
    for space in spaces:
        expect = 1
        for j, cfg in iterate_configurations(space):
            assert j == expect  # rank hits 1..N_conf in order (bijection)
            assert space.rank(cfg) == j
            ref = space.unrank(j)
            if isinstance(cfg, FermionConfig):
                assert ref.holes == cfg.holes
            else:
                assert ref == cfg
            expect += 1
        assert expect - 1 == space.n_conf
        checked += space.n_conf
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("2 bijectivity", f"{len(spaces)} spaces, {checked} configurations, {elapsed:.1f} s")


def test_criterion_3_isomorphism():
    checked = 0
    for n in range(0, SWEEP_CAP + 1):
        for m in range(1, SWEEP_CAP + 1):
            if math.comb(n + m - 1, n) > 10_000:
                continue
            bspace = SpaceDescriptor.boson(n, m)
            if m == 1:
                checked += 1
                continue  # the isomorphic fermion space is the trivial M' = N one
            fspace = SpaceDescriptor.fermion(n, n + m - 1)
            for _, occ in iterate_configurations(bspace):
                assert boson_rank(occ, bspace) == fermion_rank(boson_to_fermion(occ), fspace)
                checked += 1
    _report("3 isomorphism", f"{checked} configurations, exact integer equality")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for space in _oracle_suite():
        mix = isinstance(space, MixtureSpace)
        for spec_seed in range(20):
            if mix:
                spec = random_mixture_spec(space, 1000 + spec_seed)
                dim = space.n_conf_total
            else:
                spec = random_hermitian_spec(space, 1000 + spec_seed)
                dim = space.n_conf
            mat = build_dense(spec)
            for vec_seed in range(5):
                if mix:
                    psi = mixture_random_state(space, seed=vec_seed)
                    got = apply_mixture_hamiltonian(spec, psi).amplitudes
                else:
                    psi = random_state(space, seed=vec_seed)
                    got = apply_hamiltonian(spec, psi).amplitudes
                ref = mat @ psi.amplitudes
                rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                worst = max(worst, rel)
                assert rel <= 1e-12, f"{space}: relative error {rel}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("4 oracle-equivalence", f"7 spaces x 20 specs x 5 vectors, worst rel {worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_closed_form_equivalence():
    spaces = [
        SpaceDescriptor.fermion(2, 4),
        SpaceDescriptor.fermion(2, 6),
        SpaceDescriptor.fermion(3, 6),
        SpaceDescriptor.boson(2, 4),
        SpaceDescriptor.boson(3, 4),
        SpaceDescriptor.boson(2, 5),
    ]
    checked = 0
    for space in spaces:
        assert space.n_conf <= 200
        m = space.m
        index = {space.occupations_at(j): j for j in range(1, space.n_conf + 1)}
        for j in range(1, space.n_conf + 1):
            occ = space.occupations_at(j)
            psi = basis_state(space, j)
            for k, s, l, q in itertools.permutations(range(1, m + 1), 4):
                out = apply_two_body_term(k, s, l, q, psi).amplitudes
                checked += 1
                acts = occ[q - 1] >= 1 and occ[l - 1] >= 1
                if space.statistics == "fermion":
                    acts = acts and occ[k - 1] == 0 and occ[s - 1] == 0
                if not acts:
                    assert np.all(out == 0)
                    continue
                tgt = list(occ)
                tgt[q - 1] -= 1
                tgt[l - 1] -= 1
                tgt[s - 1] += 1
                tgt[k - 1] += 1
                jt = index[tuple(tgt)]
                if space.statistics == "fermion":
                    d_sl = sum(tgt[i] for i in range(min(s, l), max(s, l) - 1))
                    inter = list(tgt)
                    inter[s - 1] = 0
                    inter[l - 1] = 1
                    d_kq = sum(inter[i] for i in range(min(k, q), max(k, q) - 1))
                    expected = (-1.0) ** (d_sl + d_kq)
                else:
                    expected = math.sqrt(tgt[k - 1] * tgt[s - 1] * (tgt[l - 1] + 1) * (tgt[q - 1] + 1))
                assert abs(out[jt - 1] - expected) <= 1e-14 * max(1.0, abs(expected))
    _report("5 closed-form", f"{checked} (basis, quadruple) pairs at 1e-14")


def test_criterion_6_density_matrix_laws():
    worst = {"trace": 0.0, "herm": 0.0, "pair": 0.0, "partial": 0.0}
    for space in suite_single_spaces():
        n, m = space.n, space.m
        for seed in range(10):
            psi = random_state(space, seed=seed)
            rho = one_body_density(psi)
            rho2 = two_body_density(psi)
            dev_t = abs(np.trace(rho) - n)
            dev_h = float(np.abs(rho - rho.conj().T).max())
            pair = sum(rho2[k, s, s, k] for k in range(m) for s in range(m))
            dev_p = abs(pair - n * (n - 1))
            contracted = np.einsum("kssq->kq", rho2)
            dev_pt = float(np.abs(contracted - (n - 1) * rho).max())
            assert dev_t <= 1e-12
            assert dev_h <= 1e-12
            assert dev_p <= 1e-10
            assert dev_pt <= 1e-10
            worst["trace"] = max(worst["trace"], dev_t)
            worst["herm"] = max(worst["herm"], dev_h)
            worst["pair"] = max(worst["pair"], dev_p)
            worst["partial"] = max(worst["partial"], dev_pt)
    _report(
        "6 density-laws",
        "10 states x 4 spaces; worst trace {trace:.1e}, herm {herm:.1e}, "
        "pair {pair:.1e}, partial {partial:.1e}".format(**worst),
    )


def test_criterion_7_solver_correctness():
    worst_gs = 0.0
    worst_prop = 0.0
    worst_drift = 0.0
    horizon, dt = 10.0, 0.5
    for space in _oracle_suite():
        mix = isinstance(space, MixtureSpace)
        spec, mat = _scaled_hermitian(space, seed=7)
        evals, _ = dense_eig(mat)
        result = ground_state(spec, tol=1e-11, max_iter=400, seed=1)
        dev = abs(result.energy - float(evals[0]))
        assert dev <= 1e-10
        worst_gs = max(worst_gs, dev)
        psi0 = mixture_random_state(space, seed=2) if mix else random_state(space, seed=2)
        prop = propagate(spec, psi0, t_final=horizon, dt=dt, krylov_dim=15, store_states=True)
        for t, state in zip(prop.times, prop.states):
            exact = dense_expm_apply(mat, psi0, float(t))
            worst_prop = max(worst_prop, float(np.linalg.norm(state.amplitudes - exact.amplitudes)))
        assert worst_prop <= 1e-8
        drift_rate = prop.norm_drift / horizon
        assert drift_rate <= 1e-10
        worst_drift = max(worst_drift, drift_rate)
    _report(
        "7 solvers",
        f"E0 dev {worst_gs:.1e} (<=1e-10), SIL dev {worst_prop:.1e} (<=1e-8), "
        f"norm drift {worst_drift:.1e}/t (<=1e-10)",
    )


def test_criterion_8_physics_desk_check():
    spec = build_bose_hubbard(4, 2, hopping=1.0, interaction=0.0)
    psi0 = basis_state(spec.space, boson_rank((4, 0), spec.space))
    period = math.pi  # site density period of cos^2(J t) at J = 1
    result = propagate(spec, psi0, t_final=period, dt=0.02, krylov_dim=8)
    expected = 4.0 * np.cos(result.times) ** 2
    dev = float(np.abs(result.site_densities[:, 0] - expected).max())
    assert dev <= 1e-6
    _report("8 desk-check", f"site-1 density vs 4 cos^2(J t): max dev {dev:.1e}")


def test_criterion_9_parallel_determinism():
    for space in _oracle_suite():
        mix = isinstance(space, MixtureSpace)
        if mix:
            spec = random_mixture_spec(space, seed=4)
            psi = mixture_random_state(space, seed=5)
        else:
            spec = random_hermitian_spec(space, seed=4)
            psi = random_state(space, seed=5)
        ref = parallel_apply(spec, psi, workers=1).amplitudes
        for w in (2, 4, 8):
            out = parallel_apply(spec, psi, workers=w).amplitudes
            assert np.array_equal(ref, out), f"{space}: workers={w} differs bitwise"
    _report("9 determinism", "workers 1/2/4/8 bitwise identical on all 7 suite spaces")


def test_criterion_10_performance_smoke():
    space = SpaceDescriptor.boson(8, 8)
    assert space.n_conf == 6435
    spec = random_hermitian_spec(space, seed=12)
    psi = random_state(space, seed=13)
    t0 = time.perf_counter()
    out = apply_hamiltonian(spec, psi)
    single = time.perf_counter() - t0
    assert np.isfinite(out.norm())
    assert single < 5.0
    scaling = {}
    for w in (1, 2, 4, 8):
        t0 = time.perf_counter()
        parallel_apply(spec, psi, workers=w)
        scaling[w] = time.perf_counter() - t0
    detail = ", ".join(f"{w}w {t:.2f}s" for w, t in scaling.items())
    _report("10 performance", f"single apply {single:.2f} s (< 5 s); scaling: {detail}")
