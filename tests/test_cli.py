import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from setcoverlab import cli, errors
from setcoverlab import lp as lp_mod
from setcoverlab.cli import main
from setcoverlab.instance import write_native

from oracle import brute_harmonic
from test_lp import wide_lp


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_in_grandchild(*argv):
    """`cover *argv` under default warning filters: exit code, stdout, stderr
    and peak RSS in KiB.  The CLI runs as a grandchild, so RUSAGE_CHILDREN
    holds its peak alone."""
    probe = ("import resource, subprocess, sys\n"
             "p = subprocess.run([sys.executable, '-m', 'setcoverlab.cli', *sys.argv[1:]],"
             " capture_output=True, text=True)\n"
             "print(p.returncode, p.stdout, p.stderr,"
             " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, sep='|')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                          capture_output=True, text=True, env=env)
    return proc.stdout.rstrip("\n").split("|")


def _validate_in_grandchild(path):
    """`cover validate path` in a grandchild; see _cli_in_grandchild."""
    return _cli_in_grandchild("validate", path)


@pytest.fixture
def cs_file(tmp_path):
    path = tmp_path / "cs21.scp"
    code = main(["gen", "cs", "--s", "2,1", "-o", str(path)])
    assert code == 0
    return str(path)


# The documented exit code and stderr label of every failure the CLI maps.
EXIT_TABLE = {
    "ScpError": (3, "error"),
    "ScpSyntaxError": (2, "parse error"),
    "InvalidInstance": (3, "invalid instance"),
    "ElementOutOfRange": (3, "invalid instance"),
    "EmptySet": (3, "invalid instance"),
    "NegativeWeight": (3, "invalid instance"),
    "UnionNotUniverse": (3, "invalid instance"),
    "IndexOutOfRange": (3, "error"),
    "NonPositiveWeight": (3, "invalid instance"),
    "NonPositiveArgument": (3, "error"),
    "ArgumentTooSmall": (3, "error"),
    "InvalidTrace": (3, "error"),
    "TraceMismatch": (3, "error"),
    "LengthMismatch": (3, "error"),
    "NonOptimalLp": (3, "error"),
    "NumericalFailure": (5, "solver error"),
    "KOutOfRange": (1, "usage error"),
    "EpsilonOutOfRange": (1, "usage error"),
    "MTooLargeForMode": (4, "limit exceeded"),
}
SCP_ERRORS = [c for c in vars(errors).values()
              if isinstance(c, type) and issubclass(c, errors.ScpError)]


def test_exit_table_names_every_package_error():
    assert sorted(c.__name__ for c in SCP_ERRORS) == sorted(EXIT_TABLE)


@pytest.mark.parametrize("exc, code, stderr", [
    *((c("boom"), code, f"{label}: boom")
      for c in SCP_ERRORS for code, label in [EXIT_TABLE[c.__name__]]),
    (ValueError("boom"), 1, "usage error: boom"),
    (OSError("boom"), 1, "io error: boom"),
    (MemoryError("boom"), 4, "limit exceeded: out of memory"),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None)
def test_exit_code_table(capsys, monkeypatch, exc, code, stderr):
    def failing(path, source):
        raise exc

    monkeypatch.setattr(cli, "_load", failing)
    assert run_cli(capsys, "validate", "x.scp") == (code, "", stderr + "\n")


class TestBoundsLargeM:
    def test_gf2_k9_bounds(self, capsys, tmp_path):
        # m = 511 needs H(511), beyond any recursion limit
        path = tmp_path / "g9.scp"
        assert main(["gen", "gf2", "--k", "9", "-o", str(path)]) == 0
        proc = subprocess.run([sys.executable, "-m", "setcoverlab.cli", "bounds", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("m=511\n")

    def test_bounds_past_the_int_digit_limit(self, tmp_path):
        # H(10000)'s denominator has more digits than str() converts by default
        m = 10_000
        path = tmp_path / "one-set.scp"
        path.write_text(f"scp 1\n{m} 1\n1 {m} " + " ".join(map(str, range(1, m + 1))) + "\n")
        h = brute_harmonic(m)
        limit = sys.get_int_max_str_digits()
        assert h.denominator.bit_length() > 3.33 * limit
        sys.set_int_max_str_digits(0)  # the reference needs str() past the limit
        try:
            expected = f"{h.numerator}/{h.denominator} (~{float(h):.6f})"
        finally:
            sys.set_int_max_str_digits(limit)
        for fmt in ("kv", "csv"):
            proc = subprocess.run([sys.executable, "-m", "setcoverlab.cli", "bounds", str(path),
                                   "--format", fmt], capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, ""), fmt
            if fmt == "kv":
                fields = dict(line.split("=", 1) for line in proc.stdout.splitlines())
            else:
                header, row = proc.stdout.splitlines()
                fields = dict(zip(header.split(","), row.split(",")))
            assert fields["H_m"] == fields["H_m_bar"] == expected, fmt
            assert fields["G"] == "1 (~1.000000)", fmt

    def test_bounds_at_m_100000_in_bounded_time_and_memory(self, tmp_path):
        # a table of every H(j) up to m took 9.6 s and 1.9 GB on this 589 KB file
        # (2-core x86-64 host)
        m = 100_000
        path = tmp_path / "one-set.scp"
        path.write_text(f"scp 1\n{m} 1\n1 {m} " + " ".join(map(str, range(1, m + 1))) + "\n")
        start = time.perf_counter()
        code, out, err, peak_kb = _cli_in_grandchild("bounds", path)
        seconds = time.perf_counter() - start
        assert (code, err) == ("0", "")
        assert seconds < 6
        assert int(peak_kb) < 250 * 1024  # ru_maxrss is in KiB on Linux
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert fields["H_m"] == fields["H_m_bar"]
        assert fields["G"] == "1 (~1.000000)"
        exact, approx = fields["H_m"].split(" ")
        assert approx == "(~12.090146)"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # p and q have about 43,000 digits each
        try:
            p, q = map(int, exact.split("/"))
        finally:
            sys.set_int_max_str_digits(limit)
        # p/q is H(m) in lowest terms: checked modulo two primes above m,
        # where each 1/k is a modular inverse
        assert math.gcd(p, q) == 1
        for prime in (2**31 - 1, 2**61 - 1):
            h = sum(pow(k, -1, prime) for k in range(1, m + 1)) % prime
            assert p * pow(q, -1, prime) % prime == h


class TestGen:
    def test_cs_file_content(self, cs_file):
        text = Path(cs_file).read_text()
        assert text == "scp 1\n3 3\n2 2 1 2\n2 1 3\n7/2 3 1 2 3\n"

    def test_gf2_then_greedy(self, capsys, tmp_path):
        out_path = tmp_path / "g5.scp"
        code, _, _ = run_cli(capsys, "gen", "gf2", "--k", "5", "-o", str(out_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "greedy", str(out_path))
        assert code == 0
        assert "total_weight=5" in out

    def test_random_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "random", "--m", "8", "--n", "5",
                             "--seed", "9")
        _, out2, _ = run_cli(capsys, "gen", "random", "--m", "8", "--n", "5",
                             "--seed", "9")
        assert out1 == out2

    def test_gf2_k_past_the_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gen", "gf2", "--k", "13")
        assert (code, out, err) == (1, "", "usage error: k must be in 2..12, got 13\n")

    @pytest.mark.parametrize("argv, flag", [
        (("random", "--m", "3", "--n", "2", "--weight-lo", "1/0"), "--weight-lo"),
        (("random", "--m", "3", "--n", "2", "--weight-hi", "1/0"), "--weight-hi"),
        (("cs", "--s", "2,1", "--eps", "1/0"), "--eps"),
    ])
    def test_zero_denominator_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out, err) == (1, "", f"usage error: {flag} 1/0: zero denominator\n")

    @pytest.mark.parametrize("argv, flag", [
        (("random", "--m", "3", "--n", "2", "--weight-lo", "abc"), "--weight-lo"),
        (("random", "--m", "3", "--n", "2", "--weight-hi", "abc"), "--weight-hi"),
        (("cs", "--s", "2,1", "--eps", "abc"), "--eps"),
    ])
    def test_malformed_value_names_its_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out, err) == (1, "", f"usage error: {flag} abc: not a decimal or p/q number\n")

    @pytest.mark.parametrize("parts", ["a,1", ",", "", "2,,1", "1.5", "2,0", "2,-1"])
    def test_malformed_parts_name_their_flag(self, capsys, parts):
        code, out, err = run_cli(capsys, "gen", "cs", "--s", parts)
        assert (code, out, err) == (
            1, "", f"usage error: --s {parts}: not a comma-separated list of positive integers\n")

    def test_flag_exponent_past_the_digit_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gen", "cs", "--s", "2,1", "--eps", "1e-9999")
        assert (code, out) == (1, "")
        assert err == "usage error: exponent of '1e-9999' is past the 4300-digit limit\n"


class TestValidateAndConvert:
    def test_validate_ok(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "validate", cs_file)
        assert code == 0 and "ok" in out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.scp"
        bad.write_text("scp 2\n1 1\n1 1 1\n")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2 and "parse error" in err

    def test_non_utf8_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.scp"
        bad.write_bytes(b"scp 1\n1 1\n1 1 \xff\n")
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert (code, out, err) == (2, "", "parse error: not UTF-8: byte 0xff at offset 14\n")

    def test_invalid_instance_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.scp"
        bad.write_text("scp 1\n3 1\n5 2 1 2\n")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 3 and "invalid instance" in err

    @pytest.mark.parametrize("text, missing", [
        *(pytest.param(f"scp 1\n{m} 1\n1 1 1\n", 2, id=str(m)) for m in (10**9, 10**11)),
        pytest.param("scp 1\n1000000000 1\n1 1 1000000000\n", 1, id="far-element"),
    ])
    def test_huge_universe_fails_in_bounded_memory(self, tmp_path, text, missing):
        # files of a few dozen bytes: a mask of m bits, or one as wide as the
        # far element, would need about 125 MB.  The CLI runs as a grandchild,
        # so RUSAGE_CHILDREN holds its peak alone.
        path = tmp_path / "huge.scp"
        path.write_text(text)
        probe = ("import resource, subprocess, sys\n"
                 "p = subprocess.run([sys.executable, '-m', 'setcoverlab.cli', 'validate',"
                 " sys.argv[1]], capture_output=True, text=True)\n"
                 "print(p.returncode, p.stdout, p.stderr,"
                 " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, sep='|')\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(path)],
                              capture_output=True, text=True)
        code, out, err, peak_kb = proc.stdout.rstrip("\n").split("|")
        assert (code, out) == ("3", "")
        assert err == f"invalid instance: element {missing} is covered by no set\n"
        assert int(peak_kb) < 150 * 1024  # ru_maxrss is in KiB on Linux

    def test_far_singletons_validate_in_bounded_memory(self, tmp_path):
        # 20,000 singleton sets, a 189 KB file.  The masks themselves hold
        # about 27 MB; packing every set as wide as the farthest element
        # took 161 MB.
        n = 20_000
        path = tmp_path / "singletons.scp"
        path.write_text(f"scp 1\n{n} {n}\n" + "".join(f"1 1 {e}\n" for e in range(1, n + 1)))
        code, out, err, peak_kb = _validate_in_grandchild(path)
        assert (code, out, err) == ("0", f"ok: m={n} n={n}\n", "")
        assert int(peak_kb) < 64 * 1024

    def test_far_singletons_validate_and_convert_build_no_masks(self, tmp_path):
        # 40,000 singleton sets, a 389 KB file: their masks alone would hold
        # about 100 MB, and validate built them until it only checked
        n = 40_000
        path = tmp_path / "singletons.scp"
        text = f"scp 1\n{n} {n}\n" + "".join(f"1 1 {e}\n" for e in range(1, n + 1))
        path.write_text(text)
        code, out, err, peak_kb = _validate_in_grandchild(path)
        assert (code, out, err) == ("0", f"ok: m={n} n={n}\n", "")
        assert int(peak_kb) < 64 * 1024
        copy = tmp_path / "copy.scp"
        code, out, err, peak_kb = _cli_in_grandchild("convert", path, "-o", copy)
        assert (code, out, err) == ("0", "", "")
        assert copy.read_text() == text
        assert int(peak_kb) < 64 * 1024

    def test_non_number_element_under_default_warnings(self, tmp_path):
        # numpy's tokenizer stops at '1/2'; whether it warns or raises, the
        # parser reads the token alone, and stderr holds the parse error only
        path = tmp_path / "half.scp"
        path.write_text("scp 1\n1 1\n1 1 1/2\n")
        code, out, err, _ = _validate_in_grandchild(path)
        assert (code, out) == ("2", "")
        assert err == "parse error: expected element 0 of set 0, got '1/2' (line 3, col 5)\n"

    def test_out_of_memory_is_a_limit(self, capsys, cs_file, monkeypatch):
        def exhausted(path, source):
            raise MemoryError

        monkeypatch.setattr(cli, "_load", exhausted)
        code, out, err = run_cli(capsys, "validate", cs_file)
        assert (code, out, err) == (4, "", "limit exceeded: out of memory\n")

    def test_missing_file_is_usage(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "/nonexistent/x.scp")
        assert code == 1

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_convert_orlib(self, capsys, tmp_path):
        orlib = tmp_path / "a.txt"
        orlib.write_text("3 2\n1 1\n1 1\n1 2\n2 1 2\n")
        code, out, _ = run_cli(capsys, "convert", str(orlib))
        assert code == 0
        assert out == "scp 1\n3 2\n1 2 1 3\n1 2 2 3\n"

    def test_convert_round_trip(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "convert", cs_file)
        assert code == 0
        assert out == Path(cs_file).read_text()


class TestBounds:
    def test_kv_fields(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "bounds", cs_file)
        assert code == 0
        for key in ("H_m=", "H_m_bar=", "G=", "Delta=", "T_l=", "T_u=",
                    "opt_lower="):
            assert key in out
        # n=3 <= 18: opportunistic exact solve fills the true ratio
        assert "ratio=8/7" in out

    def test_csv_format(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "bounds", cs_file, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("m,m_bar")


class TestGreedy:
    def test_kv_output(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "greedy", cs_file)
        assert code == 0
        assert "chosen=0 1" in out
        assert "s=2 1" in out
        assert "total_weight=4" in out

    def test_csv_output(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "greedy", cs_file, "--format", "csv")
        assert out.splitlines()[0] == "iter,set_index,s_k,m_k,ratio,cumulative_weight"

    def test_tie_break_flag(self, capsys, tmp_path):
        path = tmp_path / "tie.scp"
        path.write_text("scp 1\n3 3\n1 1 1\n2 2 2 3\n10 3 1 2 3\n")
        _, out_index, _ = run_cli(capsys, "greedy", str(path))
        _, out_max, _ = run_cli(capsys, "greedy", str(path),
                                "--tie-break", "max-size")
        assert "chosen=0 1" in out_index
        assert "chosen=1 0" in out_max


class TestLpExact:
    def test_lp(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "lp", cs_file)
        assert code == 0
        assert "objective=3.500000000" in out
        assert "exact_objective=7/2" in out

    def test_lp_certifies_a_wide_instance(self, capsys, tmp_path):
        # snapping finds no small denominators here; the basis core certifies
        path = tmp_path / "wide150.scp"
        path.write_text(write_native(wide_lp(150, 0)))
        code, out, _ = run_cli(capsys, "lp", str(path))
        assert code == 0
        assert "exact_objective=" in out

    def test_lp_csv(self, capsys, tmp_path):
        path = tmp_path / "g2.scp"
        assert main(["gen", "gf2", "--k", "2", "-o", str(path)]) == 0
        code, out, _ = run_cli(capsys, "lp", str(path), "--format", "csv")
        assert (code, out) == (0, "set_index,x\n0,1/2\n1,1/2\n2,1/2\n")

    def test_lp_export(self, capsys, cs_file, tmp_path):
        lp_path = tmp_path / "prog.lp"
        code, _, _ = run_cli(capsys, "lp", cs_file, "--export-lp", str(lp_path))
        assert code == 0
        assert "Minimize" in lp_path.read_text()

    def test_exact(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "exact", cs_file)
        assert code == 0
        assert "weight=7/2" in out
        assert "status=proven-optimal" in out

    def test_exact_budget_exit(self, capsys, tmp_path):
        path = tmp_path / "r.scp"
        assert main(["gen", "random", "--m", "12", "--n", "19", "--seed", "5",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "exact", str(path),
                               "--node-limit", "1", "--method", "branch-and-bound")
        assert code == 4
        assert "status=budget-exceeded" in out
        assert [line.split("=")[0] for line in out.splitlines()] == [
            "weight", "status", "nodes", "cover", "prunes_lp"]

    def test_exact_closes_gf2_6(self, capsys, tmp_path):
        path = tmp_path / "gf2_6.scp"
        assert main(["gen", "gf2", "--k", "6", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "exact", str(path), "--method", "branch-and-bound")
        assert code == 0
        assert out.startswith("weight=6\nstatus=proven-optimal\n")

    def test_solver_fault_exit_code(self, capsys, cs_file, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        # a pair that never certifies sends the solve on to the refactorization
        monkeypatch.setattr(lp_mod, "_snap", lambda values: [Fraction(-1)] * len(values))
        code, out, err = run_cli(capsys, "lp", cs_file)
        assert code == 5 and out == ""
        assert err.startswith("solver error: singular basis during refactorization")

    def test_tol_flag_is_gone(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "lp", cs_file, "--tol", "1e-9")
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("limit", ["nan", "0", "-1"])
    def test_time_limit_must_be_positive(self, capsys, cs_file, limit):
        code, out, err = run_cli(capsys, "exact", cs_file, "--time-limit", limit)
        assert (code, out) == (1, "")
        assert err == "usage error: budget limits must be positive\n"

    def test_infinite_time_limit_is_no_limit(self, capsys, cs_file):
        code, out, _ = run_cli(capsys, "exact", cs_file, "--time-limit", "inf")
        assert code == 0
        assert "status=proven-optimal" in out


class TestWeightsBeyondFloats:
    """Set 0 weighs 10**400, beyond the largest float."""

    @pytest.fixture
    def huge_file(self, tmp_path):
        path = tmp_path / "huge.scp"
        path.write_text("scp 1\n3 2\n1e400 2 1 2\n1 2 2 3\n")
        return str(path)

    def test_bounds_approximate_by_inf(self, capsys, huge_file):
        code, out, _ = run_cli(capsys, "bounds", huge_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[4] == "H_m=11/6 (~1.833333)" and lines[-1] == "ratio=1 (~1.000000)"
        assert lines[-3] == f"w_gr={10**400 + 1} (~inf)"
        assert lines[-2] == f"opt_lower={3 * (10**400 + 1)}/5 (~inf)"  # w_gr / G, G = 5/3
        code, out, _ = run_cli(capsys, "bounds", huge_file, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].endswith(",1 (~1.000000)") and out.count("(~inf)") == 2

    @pytest.mark.parametrize("export", [False, True])
    def test_lp_is_a_solver_error(self, capsys, huge_file, tmp_path, export):
        lp_path = tmp_path / "prog.lp"
        flags = ["--export-lp", str(lp_path)] if export else []
        code, out, err = run_cli(capsys, "lp", huge_file, *flags)
        assert (code, out) == (5, "")
        assert err == "solver error: set 0 has a weight beyond the float range\n"
        assert not lp_path.exists()


class TestTables:
    def test_table1_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1", "--m", "10",
                               "--mode", "auto", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "m,b1,b2,b3,b4,b5"
        assert out.splitlines()[1] == "10,0.0,13.5,64.8,100.0,100.0"

    @pytest.mark.parametrize("which", ["1", "2"])
    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_m_below_one_is_usage_error(self, capsys, which, m):
        code, out, err = run_cli(capsys, "table", which, "--m", m, "--format", "csv")
        assert (code, out, err) == (1, "", "usage error: m must be >= 1\n")

    def test_m_past_the_compositions_cap(self, capsys):
        code, out, err = run_cli(capsys, "table", "1", "--m", "29", "--mode", "compositions")
        assert (code, out, err) == (4, "", "limit exceeded: compositions mode capped at m=28\n")

    def test_workers_flag_is_gone(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1", "--m", "10", "--workers", "1")
        assert (code, out) == (1, "")

    def test_table3_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3", "--k-lo", "5",
                               "--k-hi", "6")
        assert code == 0
        assert "| 5 | 31 |" in out

    def test_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "table", "2", "--m", "9", "--format", "csv")
        _, b, _ = run_cli(capsys, "table", "2", "--m", "9", "--format", "csv")
        assert a == b


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "setcoverlab.cli", "table", "1", "--m", "6",
         "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,b1,b2,b3,b4,b5"
