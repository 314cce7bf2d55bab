"""End-to-end CLI behavior: subcommands, formats, exit codes, determinism."""

import json
import resource
import shlex
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from fockops import SpaceDescriptor, cli, fockspace, load_state
from fockops.cli import EXIT_CONVERGENCE, EXIT_OK, EXIT_PARSE, EXIT_STEP, EXIT_USAGE


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# `fockops enum` calls with their stdout, stderr and exit code: one species
# (each literal, -J, --all, the default count and each refusal) and a mixture
# (-J, --all, the default N_conf_total and each refusal).  "{digits}" stands
# for Python's integer-to-string digit limit.
ENUM_MATRIX = [
    ('--fermion -N 7 -M 10 --holes 2,6,8', 0, '65\n', ''),
    ('--fermion -N 2 -M 4 --occ 0,1,1,0', 0, '4\n', ''),
    ('--fermion -N 2 -M 4 --bits 0110', 0, '4\n', ''),
    ('--boson -N 3 -M 3 --occ 1,0,2', 0, '6\n', ''),
    ('--fermion -N 7 -M 10 -J 65', 0, '65 |1011101011>\n', ''),
    ('--boson -N 2 -M 3 --all', 0, '1 |2,0,0>\n2 |1,1,0>\n3 |1,0,1>\n4 |0,2,0>\n5 |0,1,1>\n6 |0,0,2>\n', ''),
    ('--fermion -N 2 -M 4 --all', 0, '1 |1100>\n2 |1010>\n3 |1001>\n4 |0110>\n5 |0101>\n6 |0011>\n', ''),
    ('--boson -N 3 -M 4', 0, 'N_conf 20\n', ''),
    ('--fermion -N 2 -M 4 --holes 1,3 --occ 1,0,1,0 --bits 1010 -J 2 --all', 0, '5\n2\n2\n2 |1010>\n1 |1100>\n2 |1010>\n3 |1001>\n4 |0110>\n5 |0101>\n6 |0011>\n', ''),
    ('--boson -N 2 -M 2 --holes 1', 1, '', 'fockops: --holes labels fermionic configurations only\n'),
    ('--fermion -N 2 -M 4 --bits 01a0', 1, '', "fockops: bit string must be 0/1, got '01a0'\n"),
    ('--fermion -N 2 -M 4 --occ 1,x', 1, '', "fockops: bad integer list '1,x'\n"),
    ('--fermion -N 2 -M 4 --occ 1,1,1,0', 1, '', 'fockops: occupations sum to 3, expected N=2\n'),
    ('--fermion -N 2 -M 4 -J 7', 1, '', 'fockops: address 7 outside [1, 6]\n'),
    ('--fermion -N 5 -M 3', 1, '', 'fockops: fermionic space needs M >= N, got N=5, M=3\n'),
    ('--fermion -N 10000 -M 20000', 1, '', 'fockops: a number of more than {digits} decimal digits cannot be printed\n'),
    ('--fermion -N 20 -M 40 --all', 1, '', 'fockops: --all would list 137846528820 configurations: the listing is too large\n'),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion -J 5', 0, '5 2 2 |0,1> |101>\n', ''),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion --all', 0, '1 1 1 |1,0> |110>\n2 1 2 |1,0> |101>\n3 1 3 |1,0> |011>\n4 2 1 |0,1> |110>\n5 2 2 |0,1> |101>\n6 2 3 |0,1> |011>\n', ''),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion', 0, 'N_conf_total 6\n', ''),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion -J 5 --all', 0, '5 2 2 |0,1> |101>\n1 1 1 |1,0> |110>\n2 1 2 |1,0> |101>\n3 1 3 |1,0> |011>\n4 2 1 |0,1> |110>\n5 2 2 |0,1> |101>\n6 2 3 |0,1> |011>\n', ''),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion -J 0', 1, '', 'fockops: address 0 outside [1, 6]\n'),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion -J 7', 1, '', 'fockops: address 7 outside [1, 6]\n'),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion --occ 1,0', 1, '', "fockops: --holes, --occ and --bits rank one species' configuration; with --mix use -J\n"),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion --holes 2', 1, '', "fockops: --holes, --occ and --bits rank one species' configuration; with --mix use -J\n"),
    ('--mix -N 1 -M 2 -NB 2 -MB 3 --mix-stats boson,fermion --bits 10', 1, '', "fockops: --holes, --occ and --bits rank one species' configuration; with --mix use -J\n"),
    ('--mix -N 1 -M 2 -NB 1 -MB 2 --mix-stats fermion', 1, '', "fockops: bad --mix-stats 'fermion'\n"),
    ('--mix -N 1 -M 2 -NB 1 -MB 2 --mix-stats fermion,quark', 1, '', "fockops: bad --mix-stats 'fermion,quark'\n"),
    ('--mix -N 1 -M 2 --mix-stats fermion,boson', 1, '', 'fockops: --mix requires -NB and -MB\n'),
    ("--mix -N 1 -M 2 -NB 1 -MB 2 --mix-stats ' Fermion , BOSON '", 0, 'N_conf_total 4\n', ''),
    ('--mix -N 1 -M 2 -NB 1 -MB 2', 0, 'N_conf_total 4\n', ''),
    ('--mix -N 3 -M 2 -NB 1 -MB 2 --mix-stats fermion,fermion', 1, '', 'fockops: fermionic space needs M >= N, got N=3, M=2\n'),
    ('--mix -N 10 -M 20 -NB 10 -MB 20 --mix-stats fermion,fermion --all', 1, '', 'fockops: --all would list 34134779536 configurations: the listing is too large\n'),
    ('--mix -N 10000 -M 20000 -NB 1 -MB 2 --mix-stats fermion,boson', 1, '', 'fockops: a number of more than {digits} decimal digits cannot be printed\n'),
]


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

    @staticmethod
    def _unranked(space, j):
        sep = "" if space.statistics == "fermion" else ","
        return "|" + sep.join(str(v) for v in space.occupations_at(j)) + ">"

    @pytest.mark.parametrize("stat,n,m", [("fermion", 3, 6), ("boson", 3, 4)])
    def test_all_lines_match_unrank(self, capsys, stat, n, m):
        code, out, _ = run_cli(capsys, "enum", f"--{stat}", "-N", str(n), "-M", str(m), "--all")
        space = SpaceDescriptor(stat, n, m)
        assert code == EXIT_OK
        assert out.splitlines() == [f"{j} {self._unranked(space, j)}" for j in range(1, space.n_conf + 1)]

    def test_mix_all_lines_match_unrank(self, capsys):
        code, out, _ = run_cli(capsys, "enum", "--mix", "-N", "2", "-M", "3", "-NB", "2", "-MB", "4",
                               "--mix-stats", "boson,fermion", "--all")
        space_a, space_b = SpaceDescriptor.boson(2, 3), SpaceDescriptor.fermion(2, 4)
        expect = [f"{(j_a - 1) * space_b.n_conf + j_b} {j_a} {j_b} "
                  f"{self._unranked(space_a, j_a)} {self._unranked(space_b, j_b)}"
                  for j_a in range(1, space_a.n_conf + 1) for j_b in range(1, space_b.n_conf + 1)]
        assert code == EXIT_OK
        assert out.splitlines() == expect

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

    def test_dimension_beyond_64_bit_binomials(self, capsys):
        code, out, _ = run_cli(capsys, "enum", "--fermion", "-N", "1", "-M", "67")
        assert code == EXIT_OK
        assert out.strip() == "N_conf 67"

    @pytest.mark.parametrize("argv", [
        ["--fermion", "-N", "10000", "-M", "20000"],
        ["--mix", "-N", "10000", "-M", "20000", "-NB", "1", "-MB", "2", "--mix-stats", "fermion,boson"],
    ], ids=["single", "mixture"])
    def test_dimension_beyond_the_printable_digits(self, capsys, argv):
        """N_conf of C(20000, 10000) has 6,019 digits, more than Python prints: one line, exit 1."""
        code, out, err = run_cli(capsys, "enum", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert _one_line_error(err)
        assert "decimal digits" in err

    @pytest.mark.parametrize("argv", [
        ["--fermion", "-N", "500000", "-M", "1000000"],
        ["--mix", "-N", "1", "-M", "2", "-NB", "500000", "-MB", "1000000", "--mix-stats", "boson,fermion"],
    ], ids=["single", "mixture"])
    def test_huge_count_refused_before_it_is_counted(self, capsys, argv):
        """C(10^6, 5 10^5) has about 301,000 digits: refused from a capped count, not after the exact one."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enum", *argv)
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_USAGE
        assert out == ""
        assert _one_line_error(err)
        assert "decimal digits" in err

    @pytest.mark.parametrize("argv", [
        ["--fermion", "-N", "500000", "-M", "1000000"],
        ["--mix", "-N", "1", "-M", "2", "-NB", "500000", "-MB", "1000000", "--mix-stats", "boson,fermion"],
    ], ids=["single", "mixture"])
    def test_address_on_a_huge_space_refused_before_it_is_counted(self, argv):
        """-J is refused on such a space as the count is; in a subprocess, since counting it takes seconds."""
        proc = subprocess.run([sys.executable, "-m", "fockops.cli", "enum", *argv, "-J", "1"],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert _one_line_error(proc.stderr)
        assert "decimal digits" in proc.stderr

    @pytest.mark.parametrize("argv,line", [
        (["--fermion", "-N", "7", "-M", "10", "-J", "65"], "65 |1011101011>"),
        (["--mix", "-N", "2", "-M", "3", "-NB", "2", "-MB", "4", "--mix-stats", "boson,fermion", "-J", "7"],
         "7 2 1 |1,1,0> |1100>"),
    ], ids=["single", "mixture"])
    def test_address_on_an_ordinary_space(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, "enum", *argv)
        assert code == EXIT_OK
        assert out == line + "\n"

    @pytest.mark.parametrize("argv", [
        ["--fermion", "-N", "20", "-M", "40"],
        ["--mix", "-N", "10", "-M", "20", "-NB", "10", "-MB", "20", "--mix-stats", "fermion,fermion"],
    ], ids=["single", "mixture"])
    def test_all_refuses_a_listing_too_large(self, argv):
        """In a subprocess with 1 GiB of address space and a timeout, so a listing that is built fails fast."""
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "fockops.cli", "enum", *argv, "--all"], capture_output=True, text=True,
            timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == EXIT_USAGE
        assert _one_line_error(proc.stderr)
        assert "too large" in proc.stderr

    def test_mix_enum(self, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "--mix", "-N", "1", "-M", "2", "-NB", "1", "-MB", "2",
            "--mix-stats", "fermion,boson", "--all",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4

    @pytest.mark.parametrize("flag,value", [("--occ", "1,0"), ("--holes", "2"), ("--bits", "10")])
    def test_mix_refuses_a_single_species_literal(self, capsys, flag, value):
        """A literal to rank names one species' configuration, so --mix refuses it instead of printing N_conf_total."""
        code, out, err = run_cli(capsys, "enum", "--mix", "-N", "1", "-M", "2", "-NB", "1", "-MB", "2",
                                 "--mix-stats", "fermion,boson", flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert _one_line_error(err) and flag in err

    @pytest.mark.parametrize("argv,code,out,err", ENUM_MATRIX, ids=[row[0] for row in ENUM_MATRIX])
    def test_output_matrix(self, capsys, argv, code, out, err):
        """One code path for one species and for two prints exactly what each path printed on its own."""
        assert run_cli(capsys, "enum", *shlex.split(argv)) == (
            code, out, err.format(digits=sys.get_int_max_str_digits()))


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

    def test_workers_give_identical_reports(self, capsys, tmp_path):
        """A real Bose-Hubbard chain of 19,448 amplitudes, more than one row block: only ``workers`` differs."""
        from fockops import build_bose_hubbard, kernel
        from fockops.hamiltonian import save_integrals

        spec = build_bose_hubbard(7, 11, hopping=1.0, interaction=2.0)
        assert spec.space.n_conf > kernel.BLOCK_AMPLITUDES
        path = tmp_path / "chain.ints"
        save_integrals(spec, path)
        outs = []
        for w in ("1", "2"):
            out_path = tmp_path / f"gs{w}.json"
            code, _, _ = run_cli(capsys, "gs", "--file", str(path), "--workers", w, "--out", str(out_path))
            assert code == EXIT_OK
            outs.append(out_path.read_bytes())
        assert json.loads(outs[1])["workers"] == 2
        assert outs[0] == outs[1].replace(b'"workers": 2', b'"workers": 1')

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

    @pytest.mark.parametrize("t_final,dt", [("1.0", "0.3"), (repr(np.pi), "0.05"), ("0.4", "1.0")])
    def test_series_ends_at_t_final(self, capsys, bose_hubbard_file, tmp_path, t_final, dt):
        from fockops import basis_state, build_dense, dense_expm_apply, load_integrals

        out_path, state_path = tmp_path / "s.csv", tmp_path / "final.fvec"
        code, _, _ = run_cli(
            capsys, "prop", "--file", str(bose_hubbard_file), "--initial", "4,0",
            "--t-final", t_final, "--dt", dt, "--out", str(out_path), "--save-state", str(state_path),
        )
        assert code == EXIT_OK
        assert out_path.read_text().strip().splitlines()[-1].split(",")[0] == repr(float(t_final))
        spec = load_integrals(bose_hubbard_file)
        exact = dense_expm_apply(build_dense(spec), basis_state(spec.space, 1), float(t_final))
        assert np.linalg.norm(load_state(state_path).amplitudes - exact.amplitudes) <= 1e-12

    def test_t_final_over_dt_must_be_finite(self, capsys, bose_hubbard_file, tmp_path):
        code, out, err = run_cli(
            capsys, "prop", "--file", str(bose_hubbard_file), "--initial", "4,0",
            "--t-final", "1e300", "--dt", "1e-300", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_USAGE
        assert _one_line_error(err) and "t_final / dt must be finite" in err
        assert out == ""

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


@pytest.mark.parametrize("argv", [
    ["prop", "--dt", "0"], ["prop", "--dt", "-1"], ["prop", "--dt", "nan"],
    ["prop", "--t-final", "-1"], ["prop", "--t-final", "nan"], ["prop", "--t-final", "inf"],
    ["prop", "--krylov-dim", "0"], ["prop", "--krylov-dim", "-3"],
    ["prop", "--err-tol", "nan"], ["prop", "--err-tol", "inf"], ["prop", "--err-tol", "-1"],
    ["gs", "--tol", "nan"], ["gs", "--tol", "inf"], ["gs", "--tol", "-1"], ["gs", "--max-iter", "0"],
    ["gs", "--seed", "-1"],
], ids=" ".join)
def test_bad_solver_argument_is_usage_error(capsys, bose_hubbard_file, monkeypatch, argv):
    """Each bad solver argument exits 1 with one line, before any occupation table is built."""
    def no_table(*args):
        raise AssertionError("an occupation table was built")

    monkeypatch.setattr(fockspace, "occupation_table", no_table)
    command, flag, value = argv
    args = {"--t-final": "1.0", "--dt": "0.5"} if command == "prop" else {}
    args[flag] = value
    extra = ["--initial", "4,0"] if command == "prop" else []
    code, out, err = run_cli(capsys, command, "--file", str(bose_hubbard_file), *extra,
                             *(x for item in args.items() for x in item))
    assert code == EXIT_USAGE
    assert _one_line_error(err) and flag.lstrip("-").replace("-", "_") in err
    assert out == ""


_MIX_INTS = "STATISTICS MIX FERMION BOSON\nNA 1\nMA 2\nNB 1\nMB 2\nHA 1 2 -1.0\nHA 2 1 -1.0\n"


class TestInitialLiteral:
    """A configuration literal that is not all digits is a usage error, not a traceback."""

    @pytest.mark.parametrize("text,initial", [
        ("STATISTICS FERMION\nN 2\nM 4\nH 1 2 -1.0\nH 2 1 -1.0\n", "1x10"),
        (_MIX_INTS, "1x;01"),
    ], ids=["single", "mixture"])
    def test_non_digit_occupation(self, capsys, tmp_path, text, initial):
        path = tmp_path / "h.ints"
        path.write_text(text)
        code, out, err = run_cli(capsys, "prop", "--file", str(path), "--initial", initial,
                                 "--t-final", "0.1", "--dt", "0.05")
        assert code == EXIT_USAGE
        assert out == ""
        assert _one_line_error(err)
        assert "1x" in err


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

    @pytest.mark.parametrize("ints_text,vec_bytes", [
        (_MIX_INTS, b"FOCKVEC1" + struct.pack("<BQQQ", 1, 1, 4, 4) + b"\0" * 64),
        ("STATISTICS BOSON\nN 2\nM 2\n", b"FOCKMIX1" + struct.pack("<BBQQQQQ", 0, 1, 1, 2, 1, 2, 4) + b"\0" * 64),
    ], ids=["single-vector-for-a-mixture", "mixture-vector-for-a-single-species"])
    def test_vector_of_the_other_kind(self, capsys, tmp_path, ints_text, vec_bytes):
        """Each file reads, as boson(1,4) or F(1,2) x B(1,2) with 4 amplitudes, but not for this integral file."""
        code, out, err = self._apply(capsys, tmp_path, ints_text, vec_bytes)
        assert code == EXIT_PARSE
        assert out == ""
        assert _one_line_error(err)
        assert "vector space does not match the integral file" in err

    def test_unknown_mixture_statistics_byte(self, capsys, tmp_path):
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


class TestNonUtf8IntegralFile:
    """A byte that is not UTF-8 in an integral file is a parse error, not a decoding traceback."""

    @pytest.mark.parametrize("text", [
        b"STATISTICS BOSON\nN 2\nM 2\nH 1 2 -1.0\xff\n",
        b"STATISTICS MIX FERMION BOSON\nNA 1\nMA 2\nNB 1\nMB 2\nHA 1 2 -1.0\xff\n",
    ], ids=["single", "mixture"])
    @pytest.mark.parametrize("command", ["gs", "apply"])
    def test_parse_error(self, capsys, tmp_path, command, text):
        bad = tmp_path / "bad.ints"
        bad.write_bytes(text)
        extra = ["--in", str(tmp_path / "in.vec")] if command == "apply" else []
        code, out, err = run_cli(capsys, command, "--file", str(bad), *extra)
        assert code == EXIT_PARSE
        assert out == ""
        assert _one_line_error(err)
        assert "not UTF-8 text" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fockops.cli", "enum", "--fermion", "-N", "7", "-M", "10",
         "--holes", "2,6,8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "65"


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "fockops", "enum", "--fermion", "-N", "7", "-M", "10", "--holes", "2,6,8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "65"


class TestJsonVectorBoundary:
    GOOD = {"format": "fockvec/1", "statistics": "boson", "N": 2, "M": 2,
            "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}

    @pytest.mark.parametrize("change", [
        {"N": None}, {"M": None}, {"statistics": None}, {"amplitudes": None},
        {"N": "2"}, {"M": 2.0}, {"N": True}, {"statistics": 1}, {"statistics": "anyon"},
        {"amplitudes": [[1.0, 0.0]]}, {"amplitudes": [1.0, 0.0, 0.0]},
        {"amplitudes": [[1.0, "x"], [0.0, 0.0], [0.0, 0.0]]},
    ], ids=str)
    def test_bad_field_is_parse_error(self, capsys, tmp_path, change):
        doc = {k: v for k, v in {**self.GOOD, **change}.items() if v is not None}
        vec = tmp_path / "in.json"
        vec.write_text(json.dumps(doc))
        ints = tmp_path / "h.ints"
        ints.write_text("STATISTICS BOSON\nN 2\nM 2\nH 1 2 -1.0\nH 2 1 -1.0\n")
        code, _, err = run_cli(capsys, "apply", "--file", str(ints), "--in", str(vec))
        assert code == EXIT_PARSE
        assert _one_line_error(err)

    def test_good_document_loads(self, tmp_path):
        vec = tmp_path / "in.json"
        vec.write_text(json.dumps(self.GOOD))
        assert load_state(vec).amplitudes.tolist() == [1.0, 0.0, 0.0]


class TestHugeHeaderSizes:
    """Header sizes are checked against the file before any table is built for them."""

    @pytest.mark.parametrize("stat,n,m,n_conf", [
        (1, 1, 2**62, 2**62),   # boson: N_conf = M, payload far short of it
        (1, 1, 2**62, 1),       # boson: header N_conf disagrees with the space
        (0, 2**40, 2**40, 1),   # fermion N = M: one configuration, but a 2^40-row table
        (1, 2**40, 1, 1),       # boson M = 1: one configuration, but a 2^40-row table
        (0, 40, 2**50, 1),      # fermion: a dimension far beyond 64 bits
    ])
    def test_single_species(self, capsys, tmp_path, stat, n, m, n_conf):
        vec = tmp_path / "in.vec"
        vec.write_bytes(b"FOCKVEC1" + struct.pack("<BQQQ", stat, n, m, n_conf) + b"\0" * 16)
        ints = tmp_path / "h.ints"
        ints.write_text("STATISTICS BOSON\nN 1\nM 1\n")
        code, _, err = run_cli(capsys, "apply", "--file", str(ints), "--in", str(vec))
        assert code == EXIT_PARSE
        assert _one_line_error(err)

    def test_mixture(self, capsys, tmp_path):
        header = b"FOCKMIX1" + struct.pack("<BBQQQQQ", 0, 1, 1, 2, 2**40, 1, 2)
        vec = tmp_path / "in.vec"
        vec.write_bytes(header + b"\0" * 32)
        ints = tmp_path / "h.ints"
        ints.write_text(_MIX_INTS)
        code, _, err = run_cli(capsys, "apply", "--file", str(ints), "--in", str(vec))
        assert code == EXIT_PARSE
        assert _one_line_error(err)

    @pytest.mark.parametrize("header", [
        "STATISTICS FERMION\nN 100000000\nM 100000000\n",
        "STATISTICS BOSON\nN 100000000\nM 100000000\n",
        "STATISTICS MIX FERMION BOSON\nNA 1\nMA 2\nNB 100000000\nMB 100000000\n",
        "STATISTICS BOSON\nN 100000000\nM 2\n",
        "STATISTICS FERMION\nN 524287\nM 524287\n",
        "STATISTICS MIX FERMION FERMION\nNA 1000\nMA 1000\nNB 1000\nMB 1000\n",
        "STATISTICS FERMION\nN 20\nM 40\n",
        "STATISTICS MIX FERMION FERMION\nNA 10\nMA 20\nNB 10\nMB 20\n",
    ], ids=["fermion", "boson", "mixture", "two-orbitals", "one-body-table", "inter-species-table",
            "space-tables", "mixture-vector"])
    def test_integral_header(self, tmp_path, header):
        """In a subprocess with a timeout: a table built for such a header would never finish.

        "one-body-table" and "inter-species-table" pass the space check, but
        their dense one-body (4 TiB) or inter-species (16 TB) table does not
        fit in memory.  "mixture-vector" passes it for each species, but its
        3.4e10 amplitudes take 254 GiB per vector.
        """
        ints = tmp_path / "h.ints"
        ints.write_text(header)
        proc = subprocess.run([sys.executable, "-m", "fockops.cli", "gs", "--file", str(ints)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_PARSE
        assert _one_line_error(proc.stderr)
        assert "too large" in proc.stderr

    def test_invalid_integral_header_space(self, capsys, tmp_path):
        """A header naming an impossible space is a bad file, like a bad vector header."""
        ints = tmp_path / "h.ints"
        ints.write_text("STATISTICS FERMION\nN 3\nM 2\n")
        code, _, err = run_cli(capsys, "gs", "--file", str(ints))
        assert code == EXIT_PARSE
        assert _one_line_error(err)
        assert "M >= N" in err

    def test_many_bosons_on_two_sites_apply(self, capsys, tmp_path):
        """boson(600000, 2): 600001 configurations, well within the header cap of an integral file."""
        ints = tmp_path / "h.ints"
        ints.write_text("STATISTICS BOSON\nN 600000\nM 2\nH 1 1 1.0\n")
        vec, out_vec = tmp_path / "in.fvec", tmp_path / "out.fvec"
        amps = np.zeros(600001, dtype="<c16")
        amps[0] = 1.0
        vec.write_bytes(b"FOCKVEC1" + struct.pack("<BQQQ", 1, 600000, 2, 600001) + amps.tobytes())
        code, out, _ = run_cli(capsys, "apply", "--file", str(ints), "--in", str(vec), "--out", str(out_vec))
        assert code == EXIT_OK
        assert json.loads(out)["expectation"] == [600000.0, 0.0]
        assert np.flatnonzero(np.frombuffer(out_vec.read_bytes()[33:], dtype="<c16")).tolist() == [0]


class TestNonHermitianInput:
    """A table that is not self-adjoint is refused before the solver runs."""

    def _ints(self, tmp_path, text):
        path = tmp_path / "h.ints"
        path.write_text(text)
        return str(path)

    def test_gs_one_body(self, capsys, tmp_path):
        path = self._ints(tmp_path, "STATISTICS BOSON\nN 2\nM 3\nH 1 2 -1.0\nH 2 1 -1.0\nH 2 3 0.5\n")
        code, _, err = run_cli(capsys, "gs", "--file", path)
        assert code == EXIT_PARSE
        assert _one_line_error(err)
        assert "(2, 3)" in err or "(3, 2)" in err

    def test_prop_two_body(self, capsys, tmp_path):
        path = self._ints(tmp_path, "STATISTICS FERMION\nN 2\nM 4\nW 1 2 3 4 0.5\n")
        code, _, err = run_cli(capsys, "prop", "--file", path, "--initial", "1100",
                               "--t-final", "1.0", "--dt", "0.1")
        assert code == EXIT_PARSE
        assert _one_line_error(err)
        assert "(1, 2, 3, 4)" in err or "(3, 4, 1, 2)" in err

    def test_gs_inter_species(self, capsys, tmp_path):
        path = self._ints(tmp_path, _MIX_INTS + "X 1 2 1 1 0.25\n")
        code, _, err = run_cli(capsys, "gs", "--file", path)
        assert code == EXIT_PARSE
        assert _one_line_error(err)
        assert "inter-species" in err
        assert "(1, 2, 1, 1)" in err or "(2, 1, 1, 1)" in err
