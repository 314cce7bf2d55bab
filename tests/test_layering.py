"""No back-edges: a space's tables do not refer to the space, and no module imports one that imports it.

A space's tables are plain data that every operator and solver reads, so
they must be freed with the space's last reference, not whenever Python's
cyclic collector happens to run.  The package's modules import each other
only at module level and without a cycle, so the dense oracle, the arbiter
of every result, imports no operator engine.
"""

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import fockops
from fockops import (
    SpaceDescriptor,
    apply_hamiltonian,
    build_bose_hubbard,
    fockspace,
    ground_state,
    hamiltonian,
    mixtures,
    one_body_density,
    propagate,
    random_state,
    two_body_density,
)
from fockops.fockspace import ladder_table
from test_lieb_wu import hubbard_ring

PACKAGE = Path(fockops.__file__).parent
ORACLE_LAYERS = {"combinadics", "errors", "fockspace", "hamiltonian"}


@pytest.fixture
def no_gc():
    """The cyclic collector off for the test, after collecting what is already unreachable."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_solving_leaves_no_cyclic_garbage(no_gc):
    """ground_state, rho, rho2 and one apply on boson(5,6), then prop on F(2,4) x F(1,4): nothing left for gc."""
    spec = build_bose_hubbard(5, 6, hopping=1.0, interaction=2.0)
    psi = ground_state(spec).state
    one_body_density(psi)
    two_body_density(psi)
    apply_hamiltonian(spec, psi)
    mspec = hubbard_ring(2, 1, 4, 4.0)
    propagate(mspec, random_state(mspec.space, seed=1), t_final=1.0, dt=0.1)
    del spec, psi, mspec
    assert gc.collect() == 0


@pytest.mark.parametrize("mixture", [False, True], ids=["single", "mixture"])
def test_tables_die_with_their_space(no_gc, mixture):
    """The tables of a solved space are freed when the last spec and state holding it go, with no collection."""
    spec = hubbard_ring(2, 1, 4, 4.0) if mixture else build_bose_hubbard(5, 6, hopping=1.0, interaction=2.0)
    psi = ground_state(spec).state
    if not mixture:
        two_body_density(psi)
    tables = [weakref.ref(s.tables()) for s in spec.space.species]
    del spec, psi
    assert [ref() for ref in tables] == [None] * len(tables)


@pytest.mark.parametrize("space", [SpaceDescriptor.fermion(3, 6), SpaceDescriptor.fermion(4, 6),
                                   SpaceDescriptor.boson(3, 3)], ids=str)
def test_tables_outlive_their_space(space):
    """Tables kept past their space still build both ladder tables, as the space's own ladder_table."""
    tb = SpaceDescriptor(space.statistics, space.n, space.m).tables()
    gc.collect()
    neighbour = SpaceDescriptor(space.statistics, space.n + (1 if tb.ladder[2] else -1), space.m)
    for got, ref in zip((*tb.ladder, *tb.next_ladder), (*ladder_table(space), *ladder_table(neighbour))):
        np.testing.assert_array_equal(got, ref)


def test_the_mixture_types_are_one_class_each():
    assert mixtures.MixtureSpace is fockspace.MixtureSpace is fockops.MixtureSpace
    assert mixtures.mixture_address is fockspace.mixture_address is fockops.mixture_address
    assert mixtures.InterSpeciesTable is hamiltonian.InterSpeciesTable is fockops.InterSpeciesTable
    assert mixtures.MixtureHamiltonianSpec is hamiltonian.MixtureHamiltonianSpec is fockops.MixtureHamiltonianSpec


def _package_imports():
    """(module -> the package modules it imports anywhere, [(module, line) of each import inside a function])."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph, nested = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deps = set()
        for node in ast.walk(tree):  # the package imports itself relatively: from .module import, from . import module
            if isinstance(node, ast.ImportFrom) and node.level:
                deps |= {a.name for a in node.names} & modules if node.module is None else {node.module.split(".")[0]}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [(path.stem, node.lineno) for node in ast.walk(func)
                           if isinstance(node, ast.ImportFrom) and node.level]
        graph[path.stem] = deps
    return graph, nested


def _closure(graph, start: str) -> set:
    seen, todo = set(), [start]
    while todo:
        for dep in graph[todo.pop()] - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_no_module_imports_the_package_inside_a_function():
    assert _package_imports()[1] == []


def test_the_package_imports_form_no_cycle():
    graph = _package_imports()[0]
    assert {"fockspace", "hamiltonian", "kernel", "mixtures", "oracle"} <= set(graph)
    cyclic = sorted(name for name in graph if name in _closure(graph, name))
    assert cyclic == []


def test_the_oracle_imports_no_engine():
    assert _closure(_package_imports()[0], "oracle") <= ORACLE_LAYERS
