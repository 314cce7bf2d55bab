"""Coefficient tables, validation, the integral file format, and builders."""

import tracemalloc

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
from fockops import apply_hamiltonian, basis_state, dense_eig, build_dense, dot
from conftest import random_hermitian_spec


def _plus(table, entry):
    """``table`` with the 1-based (k, s, q, l, value) ``entry`` added to it."""
    return TwoBodyTable.from_entries(table.m, [*table.entries(), entry])


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
        spec2.two_body = _plus(spec2.two_body, (1, 2, 3, 4, 1e-6))
        report2 = validate(spec2)
        assert not report2.self_adjoint_two_body
        assert report2.two_body_worst in ((1, 2, 3, 4), (3, 4, 1, 2))

    def test_symmetrize_restores_self_adjointness(self):
        spec = random_hermitian_spec(SpaceDescriptor.boson(2, 3), seed=5)
        spec.two_body = _plus(spec.two_body, (1, 1, 2, 2, 0.5))
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

    def test_repeated_records(self, tmp_path):
        """A repeated H, HA, HB or X record replaces the earlier one; repeated W, WA or WB records add up."""
        path = tmp_path / "dup.ints"
        path.write_text("STATISTICS BOSON\nN 2\nM 2\nH 1 2 1.0\nW 1 1 1 1 0.5\n"
                        "H 1 2 3.0 -1.0\nW 1 1 1 1 0.25 0.5\n")
        spec = load_integrals(path)
        assert spec.one_body.get(1, 2) == 3.0 - 1.0j
        assert spec.two_body.get(1, 1, 1, 1) == 0.75 + 0.5j
        path.write_text("STATISTICS MIX BOSON FERMION\nNA 1\nMA 2\nNB 1\nMB 2\n"
                        "HA 1 2 1.0\nHB 2 1 1.0\nWA 2 2 2 2 1.0\nWB 1 2 1 2 1.0\nX 1 1 2 2 1.0\n"
                        "X 1 1 2 2 -2.0\nWB 1 2 1 2 2.0\nWA 2 2 2 2 4.0\nHB 2 1 5.0\nHA 1 2 6.0\n")
        mspec = load_integrals(path)
        assert mspec.spec_a.one_body.get(1, 2) == 6.0
        assert mspec.spec_b.one_body.get(2, 1) == 5.0
        assert mspec.spec_a.two_body.get(2, 2, 2, 2) == 5.0
        assert mspec.spec_b.two_body.get(1, 2, 1, 2) == 3.0
        assert mspec.inter.tensor[0, 0, 1, 1] == -2.0

    def test_repeats_across_record_widths(self, tmp_path):
        """The duplicate rules follow line order, also when the repeats are written with and without ``im``."""
        path = tmp_path / "dup.ints"
        fold = ((0.0 + 1e16) + 1.0) + -1e16  # file order loses the 1.0; the two 7-token records first keep it
        path.write_text("STATISTICS BOSON\nN 2\nM 2\nH 1 2 1.0 0.5\nW 1 2 1 2 1e16 0.0\n"
                        "H 1 2 3.0\nW 1 2 1 2 1.0\nW 1 2 1 2 -1e16 0.0\nW 2 2 2 2 2.0\nW 2 2 2 2 0.5 1.0\n")
        spec = load_integrals(path)
        assert spec.one_body.get(1, 2) == 3.0 and spec.one_body.matrix.nonzero()[0].size == 1
        assert spec.two_body.get(1, 2, 1, 2) == fold == 0.0
        assert list(spec.two_body.entries()) == [(2, 2, 2, 2, 2.5 + 1j)]
        path.write_text("STATISTICS MIX BOSON FERMION\nNA 1\nMA 2\nNB 1\nMB 2\n"
                        "HA 1 2 1.0 0.5\nHB 2 1 1.0\nX 1 2 2 1 1.0\nWA 1 1 1 1 1e16 0.0\nWB 2 1 2 1 1e16\n"
                        "HA 1 2 3.0\nHB 2 1 4.0 -1.0\nX 1 2 2 1 5.0 0.0\nWA 1 1 1 1 1.0\nWB 2 1 2 1 1.0 0.0\n"
                        "WA 1 1 1 1 -1e16 0.0\nWB 2 1 2 1 -1e16\nWA 2 2 2 2 1.0\nWA 2 2 2 2 0.5 0.5\n")
        mspec = load_integrals(path)
        assert mspec.spec_a.one_body.get(1, 2) == 3.0
        assert mspec.spec_b.one_body.get(2, 1) == 4.0 - 1.0j
        assert mspec.inter.tensor[0, 1, 1, 0] == 5.0 and mspec.inter.tensor.nonzero()[0].size == 1
        assert list(mspec.spec_a.two_body.entries()) == [(2, 2, 2, 2, 1.5 + 0.5j)]
        assert list(mspec.spec_b.two_body.entries()) == []

    # (header, body, (line, message)): each body holds several bad lines; the first
    # in file order is reported, worded by the first check it fails
    _SINGLE = "STATISTICS BOSON\nN 2\nM 2\n"
    _MIX = "STATISTICS MIX BOSON FERMION\nNA 1\nMA 2\nNB 1\nMB 3\n"
    _BAD_FILES = [
        (_SINGLE, "H 1 1 1.0\nW 1 1 1 3 1.0\nZ 1\nH 1 x 1.0\n", (5, "orbital index 3 outside [1, 2]")),
        (_SINGLE, "H 1 1 1.0\nQ 1 2\nH 1 9 1.0\n", (5, "unknown record 'Q'")),
        (_SINGLE, "W 1 1 1 1 1.0 0.0\nW 1 1 1 1 nan\nW 1 1 1 5 1.0 0.0\n", (5, "non-finite coefficient 'nan'")),
        (_SINGLE, "W 1 1 1 1 1.0\nW 2 2 2 2 1.0 inf\nW 1 1 1 1 x\n", (5, "non-finite coefficient '1.0 inf'")),
        (_SINGLE, "H 1 2 1.0\nW 1 1 1 1 1.0 2.0 3.0\nH 1 2\n", (5, "W record needs k s q l re [im]")),
        (_SINGLE, "H 1 1 1.0\n# comment\n\nH 2 2 1.0  # trailing\nW 1 x 9 1 nan\nW 1 9 1 1 nan\n",
         (8, "expected integer, got 'x'")),
        (_SINGLE, "W 1 9 1 1 nan\nW 1 x 9 1 nan\n", (4, "orbital index 9 outside [1, 2]")),
        (_SINGLE, "H 3 x 1.0\nH 5 3 1.0\n", (4, "expected integer, got 'x'")),
        (_SINGLE, "H 2 1 0.5\nH 1 1 abc nan\nH 1 1 nan abc\n", (5, "bad coefficient 'abc nan'")),
        (_SINGLE, "H 1 1 nan abc\n", (4, "bad coefficient 'nan abc'")),
        (_SINGLE, "H 1 100000000000000000000000 1.0\nH 0 1 1.0\n",
         (4, "orbital index 100000000000000000000000 outside [1, 2]")),
        (_SINGLE, "W 1 1 1 1 1.0\nH 1 1 1.0\nh -1 1 1.0\nW 1 1 1 1 1e999\n", (6, "orbital index -1 outside [1, 2]")),
        (_SINGLE, "H 1 1 1.0\nW\nH 1 1 1.0 2.0 3.0\n", (5, "W record needs k s q l re [im]")),
        (_SINGLE, "h 1 1 1.0\nhx 1 1 1.0\n", (5, "unknown record 'hx'")),
        (_SINGLE, "H 1 1 1.0\nN 2\n", (5, "unknown record 'N'")),
        (_MIX, "HA 1 1 1.0\nX 1 1 3 3 1.0\nX 3 1 1 1 1.0\nX 1 1 1 4 1.0\n", (8, "orbital index 3 outside [1, 2]")),
        (_MIX, "HB 3 3 1.0\nX 1 1 1 4 1.0 0.0\nHA 3 3 1.0\n", (7, "orbital index 4 outside [1, 3]")),
        (_MIX, "WB 3 3 3 3 1.0\nWA 1 1 1 1 1.0 0.0\nWB 1 1 1 4 inf\nWA 1 1 1 3 1.0\n",
         (8, "orbital index 4 outside [1, 3]")),
        (_MIX, "WA 1 1 1 1 1.0\nH 1 1 1.0\nX 1 1 1 1 nan\n", (7, "unknown record 'H'")),
        (_MIX, "X 1 1 1 1 1.0\nX 1 1 1 1 1.0 nan\nXB 1 1\nWB 1 x 4 1 nan\n", (7, "non-finite coefficient '1.0 nan'")),
        (_MIX, "HB 1 1 2.0 1.0\nHB 1 1 x 2.0 1.0\nWA 1 2 1 2 1.0 0.0 0.0\n", (7, "H record needs k q re [im]")),
    ]

    @pytest.mark.parametrize("header,body,expected", _BAD_FILES)
    def test_first_bad_line_in_file_order(self, tmp_path, header, body, expected):
        path = tmp_path / "bad.ints"
        path.write_text(header + body)
        with pytest.raises(IntegralFormatError) as exc:
            load_integrals(path)
        line, message = expected
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")

    _BAD_HEADERS = [
        ("STATISTICS BOSON\nN 1\nN 2\nM 2\n", (3, "expected a size line M, got 'N 2'")),
        ("STATISTICS MIX BOSON FERMION\nNA 1\nNA 2\nMA 2\nNB 1\nMB 2\n",
         (3, "expected a size line MA/NB/MB, got 'NA 2'")),
        ("STATISTICS BOSON\nN 2 3\nM 2\n", (2, "bad size line 'N 2 3'")),
        ("STATISTICS MIX BOSON FERMION\nNA 2 3\nMA 2\nNB 1\nMB 2\n", (2, "bad size line 'NA 2 3'")),
        ("STATISTICS FERMION\nN 1\nH 1 1 1.0\nM 2\n", (3, "expected a size line M, got 'H 1 1 1.0'")),
        ("STATISTICS MIX BOSON BOSON\nMB 2\nNB 1\nNA x\nMA 2\n", (4, "expected integer, got 'x'")),
        ("STATISTICS BOSON\nN 2\n", (None, "header must provide the size lines N/M")),
    ]

    @pytest.mark.parametrize("text,expected", _BAD_HEADERS)
    def test_each_size_line_once_right_after_statistics(self, tmp_path, text, expected):
        """Both kinds of file read their size lines by one rule, and a bad one is named by its line."""
        path = tmp_path / "bad.ints"
        path.write_text(text)
        with pytest.raises(IntegralFormatError) as exc:
            load_integrals(path)
        line, message = expected
        assert (exc.value.line, str(exc.value)) == (line, message if line is None else f"line {line}: {message}")

    def test_size_lines_in_any_order(self, tmp_path):
        path = tmp_path / "any.ints"
        path.write_text("STATISTICS MIX BOSON FERMION\nMB 3\nNA 2\nNB 1\nMA 2\nX 1 1 3 3 1.0\n")
        mspec = load_integrals(path)
        assert (mspec.mspace.space_a, mspec.mspace.space_b) == (SpaceDescriptor.boson(2, 2), SpaceDescriptor.fermion(1, 3))
        path.write_text("STATISTICS FERMION\nM 3\nN 1\n")
        assert load_integrals(path).space == SpaceDescriptor.fermion(1, 3)

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
            TwoBodyTable(2, indices=[[0, 0, 0, 0]], values=[bad])


class TestSparseTwoBody:
    def test_coordinate_storage_above_dense_limit(self):
        tab = TwoBodyTable.from_entries(40, [(1, 2, 3, 4, 1.5), (40, 40, 40, 40, -2.0)])
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


class TestCoordinateConstructor:
    def test_checks_merges_and_sorts(self):
        """Out-of-range and negative orbitals are refused; repeats merge, entries sort, and get agrees with the apply."""
        for bad in ([[2, 2, 2, 3]], [[0, -1, 0, 0]]):
            with pytest.raises(ValidationError):
                TwoBodyTable(3, indices=bad, values=[1.0])
        with pytest.raises(ValidationError):
            TwoBodyTable(3, indices=[0, 0, 0, 0], values=[1.0])
        tab = TwoBodyTable(3, indices=[[2, 2, 2, 2], [0, 0, 0, 0], [0, 0, 0, 0]], values=[5.0, 1.0, 1.0])
        assert list(tab.entries()) == [(1, 1, 1, 1, 2 + 0j), (3, 3, 3, 3, 5 + 0j)]
        space = SpaceDescriptor.boson(2, 3)
        spec = HamiltonianSpec(space, OneBodyTable(np.zeros((3, 3))), tab)
        for k in (1, 3):  # (1/2) W_kkkk n_k (n_k - 1) on both bosons in orbital k is W_kkkk
            occ = tuple(2 * int(p == k) for p in (1, 2, 3))
            j = next(j for j in range(1, space.n_conf + 1) if space.occupations_at(j) == occ)
            psi = basis_state(space, j)
            assert dot(psi, apply_hamiltonian(spec, psi)) == tab.get(k, k, k, k)


    @pytest.mark.parametrize("layout", ["sorted", "reversed"])
    def test_repeats_sum_in_the_order_given(self, layout):
        """In storage order or not, repeats add up as given, a lone -0.0 part reads +0.0, and the table owns its arrays."""
        indices = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 0, 0], [1, 1, 1, 1]])
        values = np.array([1e16, 1.0, -1e16, complex(2.0, -0.0), 3.0])
        if layout == "reversed":
            indices, values = indices[::-1], values[::-1]
        tab = TwoBodyTable(2, indices, values)
        a, b, c = values[(indices == [0, 1, 0, 1]).all(axis=1)].real
        fold = ((0.0 + a) + b) + c
        assert list(tab.entries()) == ([] if fold == 0 else [(1, 2, 1, 2, complex(fold))]) + [
            (2, 1, 1, 1, 2 + 0j), (2, 2, 2, 2, 3 + 0j)]
        assert np.copysign(1.0, tab.values[-2].imag) == 1.0
        indices[:] = 0
        assert tab.get(2, 2, 2, 2) == 3.0


@pytest.mark.parametrize("bad", [0, -1, 4])
def test_getters_check_orbitals(bad):
    """M = 3: orbitals 0, -1 and M + 1 are refused, not wrapped or read as zero."""
    h = OneBodyTable(np.eye(3))
    w = TwoBodyTable.from_entries(3, [(1, 1, 1, 1, 1.0)])
    for get in (lambda: h.get(bad, 1), lambda: h.get(1, bad), lambda: w.get(bad, 1, 1, 1),
                lambda: w.get(1, 1, 1, bad)):
        with pytest.raises(ValidationError):
            get()


class TestDenseKept:
    def test_no_m4_temporary(self):
        tab = TwoBodyTable.zeros(24)
        tracemalloc.start()
        try:
            idx, values = tab.kept(1e-15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.size == 0 and all(i.size == 0 for i in idx)
        assert peak < 100_000  # a dense 24^4 table would hold 24^4 * 16 = 5.3 MB

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_same_entries_as_a_dense_mask(self, threshold, layout):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6,) * 4) + 1j * rng.standard_normal((6,) * 4)
        dense[rng.random(dense.shape) < 0.4] = 0.0
        if layout == "transposed":
            dense = dense.transpose(2, 0, 3, 1)
        idx, values = TwoBodyTable.from_dense(dense).kept(threshold)
        keep = (dense != 0) & (np.abs(dense) >= threshold)
        for got, want in zip(idx, np.nonzero(keep)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(values, dense[keep])


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
        psi = basis_state(spec.space, 1)  # |2,0>
        assert dot(psi, apply_hamiltonian(spec, psi)) == pytest.approx(1.3)


def test_all_zero_tables_give_zero_vector():
    space = SpaceDescriptor.boson(3, 3)
    spec = HamiltonianSpec(space, OneBodyTable(np.zeros((3, 3))), TwoBodyTable.zeros(3))
    psi = random_state(space, seed=1)
    out = apply_hamiltonian(spec, psi)
    assert np.all(out.amplitudes == 0)
