"""Coefficient tables, validation, the integral file format, and builders."""

import numpy as np
import pytest

from fockops import (
    HamiltonianSpec,
    IntegralFormatError,
    OneBodyTable,
    SpaceDescriptor,
    TwoBodyTable,
    ValidationError,
    build_bose_hubbard,
    load_integrals,
    random_state,
    save_integrals,
    symmetrize_two_body,
    validate,
)
from fockops import apply_hamiltonian, dense_eig, build_dense
from conftest import random_hermitian_spec


class TestValidate:
    def test_real_symmetric_is_hermitian(self):
        space = SpaceDescriptor.boson(2, 3)
        h = np.array([[1.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, -1.0]])
        spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.zeros(3))
        report = validate(spec)
        assert report.hermitian_one_body
        assert report.hermitian

    def test_antisymmetric_imaginary_part_rejected(self):
        space = SpaceDescriptor.boson(2, 2)
        h = np.array([[0.0, 1j], [1j, 0.0]])
        spec = HamiltonianSpec(space, OneBodyTable(h), TwoBodyTable.zeros(2))
        report = validate(spec)
        assert not report.hermitian_one_body
        assert report.one_body_deviation == pytest.approx(2.0)

    def test_perturbed_entry_is_pinpointed(self):
        spec = random_hermitian_spec(SpaceDescriptor.boson(2, 4), seed=3)
        assert validate(spec).hermitian
        spec.one_body.matrix[1, 2] += 1e-6
        report = validate(spec)
        assert not report.hermitian_one_body
        assert report.one_body_worst in ((2, 3), (3, 2))
        spec2 = random_hermitian_spec(SpaceDescriptor.boson(2, 4), seed=4)
        spec2.two_body.dense[0, 1, 2, 3] += 1e-6
        report2 = validate(spec2)
        assert not report2.self_adjoint_two_body
        assert report2.two_body_worst in ((1, 2, 3, 4), (3, 4, 1, 2))

    def test_symmetrize_restores_self_adjointness(self):
        spec = random_hermitian_spec(SpaceDescriptor.boson(2, 3), seed=5)
        spec.two_body.dense[0, 0, 1, 1] += 0.5
        assert not validate(spec).self_adjoint_two_body
        fixed = HamiltonianSpec(spec.space, spec.one_body, symmetrize_two_body(spec.two_body))
        assert validate(fixed).self_adjoint_two_body

    def test_table_size_mismatch(self):
        space = SpaceDescriptor.boson(2, 3)
        with pytest.raises(ValidationError):
            HamiltonianSpec(space, OneBodyTable(np.zeros((2, 2))), TwoBodyTable.zeros(3))


class TestIntegralFile:
    def test_two_site_hopping(self, tmp_path):
        path = tmp_path / "hop.ints"
        path.write_text("STATISTICS FERMION\nN 1\nM 2\nH 1 2 -1.0\nH 2 1 -1.0\n")
        spec = load_integrals(path)
        assert spec.space.statistics == "fermion"
        assert spec.one_body.get(1, 2) == -1.0
        assert spec.one_body.get(2, 1) == -1.0
        assert spec.one_body.get(1, 1) == 0.0

    def test_on_site_interaction(self, tmp_path):
        path = tmp_path / "u.ints"
        path.write_text("STATISTICS BOSON\nN 2\nM 1\nW 1 1 1 1 1.0\n")
        spec = load_integrals(path)
        assert spec.two_body.get(1, 1, 1, 1) == 1.0

    def test_comments_and_imaginary_parts(self, tmp_path):
        path = tmp_path / "c.ints"
        path.write_text(
            "# header comment\nSTATISTICS BOSON\nN 2\nM 2\n"
            "H 1 2 0.5 -0.25  # hopping\n"
        )
        spec = load_integrals(path)
        assert spec.one_body.get(1, 2) == 0.5 - 0.25j

    def test_roundtrip_lossless(self, tmp_path):
        spec = random_hermitian_spec(SpaceDescriptor.fermion(2, 4), seed=9)
        path = tmp_path / "rt.ints"
        save_integrals(spec, path)
        back = load_integrals(path)
        assert back.space == spec.space
        np.testing.assert_array_equal(back.one_body.matrix, spec.one_body.matrix)
        np.testing.assert_array_equal(back.two_body.to_dense(), spec.two_body.to_dense())

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.ints"
        path.write_text("STATISTICS BOSON\nN 2\nM 2\nH 1 oops 1.0\n")
        with pytest.raises(IntegralFormatError) as exc:
            load_integrals(path)
        assert exc.value.line == 4

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "bad2.ints"
        path.write_text("STATISTICS BOSON\nN 2\nM 2\nZ 1 1 1.0\n")
        with pytest.raises(IntegralFormatError):
            load_integrals(path)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = tmp_path / "bad3.ints"
        path.write_text("STATISTICS BOSON\nN 2\nM 2\nH 1 3 1.0\n")
        with pytest.raises(IntegralFormatError) as exc:
            load_integrals(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("record", ["H 1 2 nan", "H 1 2 1.0 inf", "W 1 2 1 2 -inf"])
    def test_non_finite_coefficient_rejected(self, tmp_path, record):
        path = tmp_path / "nan.ints"
        path.write_text(f"STATISTICS BOSON\nN 2\nM 2\nH 1 1 1.0\n{record}\n")
        with pytest.raises(IntegralFormatError) as exc:
            load_integrals(path)
        assert exc.value.line == 5

    def test_non_finite_mixture_coefficient_rejected(self, tmp_path):
        path = tmp_path / "nan.ints"
        path.write_text("STATISTICS MIX BOSON BOSON\nNA 1\nMA 2\nNB 1\nMB 2\nX 1 1 1 1 nan\n")
        with pytest.raises(IntegralFormatError) as exc:
            load_integrals(path)
        assert exc.value.line == 6

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad4.ints"
        path.write_text("N 2\nM 2\n")
        with pytest.raises(IntegralFormatError):
            load_integrals(path)

    def test_mixture_roundtrip(self, tmp_path):
        from conftest import random_mixture_spec, suite_mixture_spaces

        mspec = random_mixture_spec(suite_mixture_spaces()[2], seed=21)
        path = tmp_path / "mix.ints"
        save_integrals(mspec, path)
        back = load_integrals(path)
        assert back.mspace == mspec.mspace
        np.testing.assert_array_equal(back.spec_a.one_body.matrix, mspec.spec_a.one_body.matrix)
        np.testing.assert_array_equal(back.spec_b.two_body.to_dense(), mspec.spec_b.two_body.to_dense())
        np.testing.assert_array_equal(back.inter.tensor, mspec.inter.tensor)


class TestNonFiniteTables:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_constructors_reject(self, bad):
        from fockops import InterSpeciesTable

        h = np.zeros((2, 2), dtype=np.complex128)
        h[0, 1] = bad
        with pytest.raises(ValidationError):
            OneBodyTable(h)
        w = np.zeros((2, 2, 2, 2), dtype=np.complex128)
        w[1, 0, 1, 0] = bad
        with pytest.raises(ValidationError):
            TwoBodyTable.from_dense(w)
        with pytest.raises(ValidationError):
            InterSpeciesTable(w)
        with pytest.raises(ValidationError):
            TwoBodyTable.from_entries(2, [(1, 2, 1, 2, bad)])
        with pytest.raises(ValidationError):
            TwoBodyTable.from_entries(40, [(1, 2, 1, 2, bad)])
        with pytest.raises(ValidationError):
            TwoBodyTable.zeros(2).set(1, 1, 1, 1, bad)


class TestSparseTwoBody:
    def test_coordinate_storage_above_dense_limit(self):
        tab = TwoBodyTable.from_entries(40, [(1, 2, 3, 4, 1.5), (40, 40, 40, 40, -2.0)])
        assert tab.dense is None
        assert tab.get(1, 2, 3, 4) == 1.5
        assert tab.get(40, 40, 40, 40) == -2.0
        assert tab.get(2, 2, 2, 2) == 0.0
        assert list(tab.entries()) == [
            (1, 2, 3, 4, 1.5 + 0j),
            (40, 40, 40, 40, -2.0 + 0j),
        ]

    def test_duplicate_entries_accumulate(self):
        tab = TwoBodyTable.from_entries(3, [(1, 1, 1, 1, 1.0), (1, 1, 1, 1, 0.5)])
        assert tab.get(1, 1, 1, 1) == 1.5


class TestBoseHubbard:
    def test_two_site_tables(self):
        spec = build_bose_hubbard(2, 2, hopping=1.5, interaction=0.7)
        np.testing.assert_array_equal(
            spec.one_body.matrix, np.array([[0, -1.5], [-1.5, 0]], dtype=complex)
        )
        assert spec.two_body.get(1, 1, 1, 1) == 0.7
        assert spec.two_body.get(2, 2, 2, 2) == 0.7
        assert spec.two_body.get(1, 2, 1, 2) == 0.0

    def test_single_particle_spectrum(self):
        # U is irrelevant for N=1; spectrum of the 2x2 hopping matrix is -J, +J
        spec = build_bose_hubbard(1, 2, hopping=0.8, interaction=3.0)
        evals, _ = dense_eig(build_dense(spec))
        np.testing.assert_allclose(evals, [-0.8, 0.8], atol=1e-12)

    def test_ring_closure(self):
        spec = build_bose_hubbard(2, 3, hopping=1.0, interaction=0.0, ring=True)
        assert spec.one_body.get(1, 3) == -1.0
        assert spec.one_body.get(3, 1) == -1.0
        open_spec = build_bose_hubbard(2, 3, hopping=1.0, interaction=0.0, ring=False)
        assert open_spec.one_body.get(1, 3) == 0.0

    def test_interaction_form(self):
        # (1/2) W_kkkk b†_k b†_k b_k b_k = (U/2) n_k (n_k - 1): on |2,0> this is U
        spec = build_bose_hubbard(2, 2, hopping=0.0, interaction=1.3)
        from fockops import basis_state, dot

        psi = basis_state(spec.space, 1)  # |2,0>
        assert dot(psi, apply_hamiltonian(spec, psi)) == pytest.approx(1.3)


def test_all_zero_tables_give_zero_vector():
    space = SpaceDescriptor.boson(3, 3)
    spec = HamiltonianSpec(space, OneBodyTable(np.zeros((3, 3))), TwoBodyTable.zeros(3))
    psi = random_state(space, seed=1)
    out = apply_hamiltonian(spec, psi)
    assert np.all(out.amplitudes == 0)
