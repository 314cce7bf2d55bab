"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fockops import cli, load_state
from fockops.cli import EXIT_CONVERGENCE, EXIT_OK, EXIT_PARSE, EXIT_STEP, EXIT_USAGE


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnum:
    def test_paper_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "--fermion", "-N", "7", "-M", "10", "--holes", "2,6,8"
        )
        assert code == EXIT_OK
        assert out.strip() == "65"

    def test_boson_all_lists_three_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enum", "--boson", "-N", "2", "-M", "2", "--all")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "1 |2,0>"
        assert lines[2] == "3 |0,2>"

    def test_unrank_first_fermion_configuration(self, capsys):
        code, out, _ = run_cli(capsys, "enum", "--fermion", "-N", "2", "-M", "4", "-J", "1")
        assert code == EXIT_OK
        assert out.strip() == "1 |1100>"

    def test_occupation_and_bit_literals_agree(self, capsys):
        code1, out1, _ = run_cli(capsys, "enum", "--fermion", "-N", "2", "-M", "4", "--bits", "0110")
        code2, out2, _ = run_cli(capsys, "enum", "--fermion", "-N", "2", "-M", "4", "--occ", "0,1,1,0")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_invalid_space_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "enum", "--fermion", "-N", "5", "-M", "3", "--all")
        assert code == EXIT_USAGE
        assert "M >= N" in err

    def test_mix_enum(self, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "--mix", "-N", "1", "-M", "2", "-NB", "1", "-MB", "2",
            "--mix-stats", "fermion,boson", "--all",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4


class TestGs:
    def test_report_with_oracle(self, capsys, bose_hubbard_file):
        code, out, _ = run_cli(
            capsys, "gs", "--file", str(bose_hubbard_file), "--oracle", "--tol", "1e-11"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["format"] == "fockops-gs-report/1"
        assert doc["oracle"]["deviation"] <= 1e-10
        assert doc["residual"] <= 1e-11
        assert len(doc["natural_occupations"]) == 2

    def test_report_written_to_file(self, capsys, bose_hubbard_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "gs", "--file", str(bose_hubbard_file), "--out", str(out_path)
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert "energy" in doc

    def test_densities_flag(self, capsys, bose_hubbard_file):
        code, out, _ = run_cli(capsys, "gs", "--file", str(bose_hubbard_file), "--densities")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["rho"]) == 2

    def test_nonconvergence_exit_code(self, capsys, bose_hubbard_file):
        code, _, err = run_cli(
            capsys, "gs", "--file", str(bose_hubbard_file), "--tol", "1e-15", "--max-iter", "1"
        )
        assert code == EXIT_CONVERGENCE
        assert "residual" in err

    def test_byte_identical_reruns(self, capsys, bose_hubbard_file):
        args = ("gs", "--file", str(bose_hubbard_file), "--seed", "3", "--oracle")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.ints"
        bad.write_text("STATISTICS BOSON\nN 2\nM 2\nH 1 5 1.0\n")
        code, _, err = run_cli(capsys, "gs", "--file", str(bad))
        assert code == EXIT_PARSE
        assert "line 4" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "gs", "--file", "/nonexistent/x.ints")
        assert code == EXIT_PARSE

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gs")
        assert code == EXIT_USAGE

    def test_mixture_gs(self, capsys, tmp_path):
        path = tmp_path / "mix.ints"
        path.write_text(
            "STATISTICS MIX FERMION BOSON\nNA 1\nMA 2\nNB 1\nMB 2\n"
            "HA 1 2 -1.0\nHA 2 1 -1.0\nHB 1 2 -0.5\nHB 2 1 -0.5\n"
            "X 1 1 1 1 0.25\n"
        )
        code, out, _ = run_cli(capsys, "gs", "--file", str(path), "--oracle")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["oracle"]["deviation"] <= 1e-9
        assert "natural_occupations_a" in doc


class TestProp:
    def test_rabi_series(self, capsys, bose_hubbard_file, tmp_path):
        # U = 0 file variant for the analytic check
        path = tmp_path / "bh0.ints"
        path.write_text("STATISTICS BOSON\nN 4\nM 2\nH 1 2 -1.0\nH 2 1 -1.0\n")
        out_path = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys, "prop", "--file", str(path), "--initial", "4,0",
            "--t-final", "1.0", "--dt", "0.1", "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[1].split(",")[:3] == ["time", "norm", "energy"]
        for row in lines[2:]:
            vals = [float(x) for x in row.split(",")]
            assert vals[3] == pytest.approx(4 * np.cos(vals[0]) ** 2, abs=1e-6)

    def test_flat_series_for_zero_hamiltonian(self, capsys, tmp_path):
        path = tmp_path / "zero.ints"
        path.write_text("STATISTICS BOSON\nN 2\nM 2\n")
        out_path = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys, "prop", "--file", str(path), "--initial", "1,1",
            "--t-final", "0.6", "--dt", "0.2", "--out", str(out_path),
        )
        assert code == EXIT_OK
        rows = [r.split(",") for r in out_path.read_text().strip().splitlines()[2:]]
        first = rows[0][1:]
        for row in rows[1:]:
            assert row[1:] == first

    def test_oracle_deviation_column(self, capsys, bose_hubbard_file, tmp_path):
        out_path = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys, "prop", "--file", str(bose_hubbard_file), "--initial", "4,0",
            "--t-final", "1.0", "--dt", "0.25", "--oracle", "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[1].split(",")[-1] == "oracle_deviation"
        devs = [float(r.split(",")[-1]) for r in lines[2:]]
        assert max(devs) <= 1e-8

    def test_save_final_state(self, capsys, bose_hubbard_file, tmp_path):
        state_path = tmp_path / "final.fvec"
        out_path = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys, "prop", "--file", str(bose_hubbard_file), "--initial", "4,0",
            "--t-final", "0.5", "--dt", "0.25",
            "--out", str(out_path), "--save-state", str(state_path),
        )
        assert code == EXIT_OK
        psi = load_state(state_path)
        assert abs(psi.norm() - 1.0) < 1e-10

    def test_step_failure_exit_code(self, capsys, bose_hubbard_file, tmp_path):
        code, _, _ = run_cli(
            capsys, "prop", "--file", str(bose_hubbard_file), "--initial", "4,0",
            "--t-final", "1.0", "--dt", "0.5", "--krylov-dim", "2",
            "--err-tol", "1e-13", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_STEP

    def test_vector_file_initial_state(self, capsys, bose_hubbard_file, tmp_path):
        from fockops import SpaceDescriptor, random_state, save_state

        psi = random_state(SpaceDescriptor.boson(4, 2), seed=5)
        vec_path = tmp_path / "init.fvec"
        save_state(psi, vec_path)
        code, _, _ = run_cli(
            capsys, "prop", "--file", str(bose_hubbard_file), "--initial", str(vec_path),
            "--t-final", "0.2", "--dt", "0.1", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_OK


    def test_prop_workers_give_identical_series_bytes(self, capsys, bose_hubbard_file, tmp_path,
                                                      monkeypatch):
        from fockops import kernel

        monkeypatch.setattr(kernel, "BLOCK_AMPLITUDES", 2)  # several row blocks
        outs = []
        for w in ("1", "2"):
            out_path = tmp_path / f"series{w}.csv"
            code, _, _ = run_cli(
                capsys, "prop", "--file", str(bose_hubbard_file), "--initial", "4,0",
                "--t-final", "0.5", "--dt", "0.1", "--out", str(out_path), "--workers", w,
            )
            assert code == EXIT_OK
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]


class TestApply:
    def _write_vec(self, tmp_path, spec_text, literal):
        from fockops import basis_state, save_state

        ints = tmp_path / "h.ints"
        ints.write_text(spec_text)
        from fockops.hamiltonian import load_integrals

        spec = load_integrals(ints)
        j = cli._literal_to_address(spec.space, literal)
        vec = tmp_path / "in.fvec"
        save_state(basis_state(spec.space, j), vec)
        return ints, vec

    def test_number_operator_scales_by_n(self, capsys, tmp_path):
        ints, vec = self._write_vec(
            tmp_path, "STATISTICS BOSON\nN 3\nM 2\nH 1 1 1.0\nH 2 2 1.0\n", "2,1"
        )
        out_vec = tmp_path / "out.fvec"
        code, out, _ = run_cli(
            capsys, "apply", "--file", str(ints), "--in", str(vec), "--out", str(out_vec)
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["expectation"] == [3.0, 0.0]
        result = load_state(out_vec)
        original = load_state(vec)
        np.testing.assert_allclose(result.amplitudes, 3.0 * original.amplitudes, atol=1e-14)

    def test_zero_spec_gives_zero_vector(self, capsys, tmp_path):
        ints, vec = self._write_vec(tmp_path, "STATISTICS BOSON\nN 2\nM 2\n", "1,1")
        out_vec = tmp_path / "out.fvec"
        code, out, _ = run_cli(
            capsys, "apply", "--file", str(ints), "--in", str(vec), "--out", str(out_vec)
        )
        assert code == EXIT_OK
        assert np.all(load_state(out_vec).amplitudes == 0)

    def test_oracle_deviation_reported(self, capsys, tmp_path):
        ints, vec = self._write_vec(
            tmp_path,
            "STATISTICS FERMION\nN 2\nM 3\nH 1 2 -1.0\nH 2 1 -1.0\nW 1 2 1 2 0.5\nW 2 1 2 1 0.5\n",
            "110",
        )
        code, out, _ = run_cli(capsys, "apply", "--file", str(ints), "--in", str(vec), "--oracle")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["oracle_deviation"] <= 1e-13

    def test_space_mismatch_is_parse_error(self, capsys, tmp_path):
        ints, vec = self._write_vec(tmp_path, "STATISTICS BOSON\nN 2\nM 2\n", "1,1")
        other = tmp_path / "other.ints"
        other.write_text("STATISTICS BOSON\nN 3\nM 2\n")
        code, _, _ = run_cli(capsys, "apply", "--file", str(other), "--in", str(vec))
        assert code == EXIT_PARSE

    def test_workers_give_identical_bytes(self, capsys, tmp_path):
        ints, vec = self._write_vec(
            tmp_path,
            "STATISTICS BOSON\nN 3\nM 3\nH 1 2 -1.0\nH 2 1 -1.0\nH 2 3 -1.0\nH 3 2 -1.0\n"
            "W 1 1 1 1 0.7\nW 2 2 2 2 0.7\nW 3 3 3 3 0.7\n",
            "3,0,0",
        )
        outs = []
        for w in ("1", "2", "4"):
            out_vec = tmp_path / f"out{w}.fvec"
            code, _, _ = run_cli(
                capsys, "apply", "--file", str(ints), "--in", str(vec),
                "--out", str(out_vec), "--workers", w,
            )
            assert code == EXIT_OK
            outs.append(out_vec.read_bytes())
        assert outs[0] == outs[1] == outs[2]


def _one_line_error(err: str) -> bool:
    return err.startswith("fockops: ") and err.count("\n") == 1


class TestWorkerCountBoundary:
    @pytest.mark.parametrize("flag", ["0", "-1"])
    def test_flag_below_one(self, capsys, bose_hubbard_file, flag):
        code, _, err = run_cli(capsys, "gs", "--file", str(bose_hubbard_file), "--workers", flag)
        assert code == EXIT_USAGE
        assert _one_line_error(err)

    @pytest.mark.parametrize("env", ["abc", "0"])
    def test_bad_environment_value(self, capsys, bose_hubbard_file, monkeypatch, env):
        monkeypatch.setenv("FOCK_WORKERS", env)
        code, _, err = run_cli(capsys, "gs", "--file", str(bose_hubbard_file))
        assert code == EXIT_USAGE
        assert _one_line_error(err)


_MIX_INTS = "STATISTICS MIX FERMION BOSON\nNA 1\nMA 2\nNB 1\nMB 2\nHA 1 2 -1.0\nHA 2 1 -1.0\n"


class TestVectorFileBoundary:
    def _apply(self, capsys, tmp_path, ints_text, vec_bytes):
        ints = tmp_path / "h.ints"
        ints.write_text(ints_text)
        vec = tmp_path / "in.vec"
        vec.write_bytes(vec_bytes)
        return run_cli(capsys, "apply", "--file", str(ints), "--in", str(vec))

    def test_truncated_fockvec_header(self, capsys, tmp_path):
        code, _, err = self._apply(capsys, tmp_path, "STATISTICS BOSON\nN 2\nM 2\n",
                                   b"FOCKVEC1\x01" + b"\0" * 10)
        assert code == EXIT_PARSE
        assert _one_line_error(err)

    def test_truncated_fockmix_header(self, capsys, tmp_path):
        code, _, err = self._apply(capsys, tmp_path, _MIX_INTS, b"FOCKMIX1\x00\x01" + b"\0" * 7)
        assert code == EXIT_PARSE
        assert _one_line_error(err)

    def test_unknown_mixture_statistics_byte(self, capsys, tmp_path):
        import struct

        header = b"FOCKMIX1" + struct.pack("<BBQQQQQ", 0, 7, 1, 2, 1, 2, 4)
        code, _, err = self._apply(capsys, tmp_path, _MIX_INTS, header + b"\0" * 64)
        assert code == EXIT_PARSE
        assert _one_line_error(err)
        assert "statistics byte 7" in err


def test_non_finite_coefficient_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "nan.ints"
    bad.write_text("STATISTICS BOSON\nN 2\nM 2\nH 1 2 nan\n")
    code, _, err = run_cli(capsys, "gs", "--file", str(bad))
    assert code == EXIT_PARSE
    assert _one_line_error(err)
    assert "line 4" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fockops.cli", "enum", "--fermion", "-N", "7", "-M", "10",
         "--holes", "2,6,8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "65"
