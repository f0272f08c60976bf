"""Command-line interface: flags, output schemas, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import subprocess
import sys

import pytest

from pairpack import form_factor, load_zeros, verify
from pairpack.cli import MAX_POINTS, _fmt, _parse_range, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_dict(text):
    rows = {}
    for line in text.strip().splitlines():
        key, _, rest = line.partition(",")
        rows[key] = rest
    return rows


class TestKernelCommand:
    def test_anchor_values(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--c1", "1", "--c2", "1",
                               "--c3", "0", "--delta", "0.5")
        assert code == 0
        rows = csv_dict(out)
        assert float(rows["K00"]) == pytest.approx(0.4617, abs=1e-4)
        assert float(rows["inv_K00"]) == pytest.approx(2.1659, abs=5e-4)

    def test_pure_atom(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--c1", "1", "--c2", "0",
                               "--c3", "0", "--delta", "1")
        assert code == 0
        assert float(csv_dict(out)["K00"]) == pytest.approx(1.0, abs=1e-14)

    def test_grid_consistent_with_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--c1", "1", "--c2", "1",
                               "--c3", "1", "--delta", "0.5",
                               "--grid", "0:2:0.1")
        assert code == 0
        scalar_part, _, grid_part = out.partition("z,K0z")
        k00 = float(csv_dict(scalar_part)["K00"])
        first = grid_part.strip().splitlines()[0]
        assert float(first.split(",")[1]) == pytest.approx(k00, abs=1e-12)

    def test_root_data_present(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--c1", "1", "--c2", "1",
                               "--c3", "1", "--delta", "0.5")
        rows = csv_dict(out)
        assert rows["case"] == "conjugate_quadrant"
        assert "script_L" in rows

    def test_huge_c3_roots_stay_apart(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--c3", "1e140")
        rows = csv_dict(out)
        assert code == 0 and rows["case"] == "conjugate_quadrant"
        assert all(math.isfinite(float(v)) for v in rows["script_L"].split(","))

    def test_small_c3_root(self, capsys):
        # eta1 = i c3 (1 + O(c3^2)): 1e-07 to four digits, not 9.996e-08
        code, out, _ = run_cli(capsys, "kernel", "--c1", "1", "--c2", "1", "--c3", "1e-7",
                               "--delta", "0.7")
        re, im = (float(v) for v in csv_dict(out)["eta1"].split(","))
        assert code == 0 and re == 0.0 and im == pytest.approx(1e-7, rel=5e-5)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--format", "json")
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert payload["inv_K00"] == pytest.approx(2.1659, abs=5e-4)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [("--delta", "1e-300", "--c2", "1", "--c3", "1"),
                                      ("--delta", "1e-80", "--c2", "1")])
    def test_delta_below_the_floor_is_one(self, argv):
        # once a traceback (c3 > 0: (c3 L)^2 underflowed) or K00,nan with
        # exit 0 (c3 = 0: the contour overflowed); now one error line
        proc = subprocess.run([sys.executable, "-m", "pairpack.cli", "kernel", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: delta must be >= 1e-70, got {float(argv[1]):g}\n"

    def test_bad_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--c1", "not-a-number"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_not_admissible_is_two(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--c1", "1", "--c2", "2",
                               "--c3", "0", "--delta", "1")
        assert code == 2
        assert "admissible" in err

    def test_negative_measure_param_is_one(self, capsys):
        code, _, _ = run_cli(capsys, "kernel", "--c1", "-1")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--c1", "--c2", "--c3", "--delta"])
    def test_non_finite_measure_param_is_one(self, capsys, flag):
        code, out, err = run_cli(capsys, "kernel", flag, "inf")
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_over_cap_ranges_are_one(self, capsys, tmp_path):
        # the cap is checked before anything is allocated
        with pytest.raises(ValueError, match="cap"):
            _parse_range("0:1e12:1e-3")
        with pytest.raises(ValueError):
            _parse_range("0:nan:0.1")
        assert len(_parse_range("0:1:0.25")) == 5
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("# lambda=1\n14.1347\n21.0220\n")
        for argv in (("kernel", "--grid", "0:1e12:1e-3"),
                     ("formfactor", "--zeros", str(zeros), "--alpha", "0:1e9:1e-4"),
                     ("figure1", "--steps", str(MAX_POINTS))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "cap" in err

    def test_average_over_cap_is_one(self, capsys, tmp_path):
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("# lambda=1\n14.1347\n21.0220\n")
        code, out, err = run_cli(capsys, "formfactor", "--zeros", str(zeros),
                                 "--avg", "0:1e12", "--grid-step", "1")
        assert code == 1
        assert out == ""
        assert "cap" in err

    def test_non_finite_T_is_one(self, capsys, tmp_path):
        # a non-finite T is bad input, not a nan on stdout
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("# lambda=1\n14.1347\n21.0220\n")
        for T in ("inf", "nan"):
            code, out, err = run_cli(capsys, "formfactor", "--zeros", str(zeros),
                                     "--T", T, "--alpha", "0.5:0.6:0.1")
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("header, action", [
        ("inf", "--alpha=0.5:0.6:0.1"), ("1e308", "--alpha=0.5:0.6:0.1"), ("1e308", "--avg=1:1")])
    def test_bad_lambda_is_one(self, tmp_path, header, action):
        # an infinite lambda is refused on load, one whose normalizer
        # overflows before any arithmetic: one error line, no numpy warning
        zeros = tmp_path / "zeros.txt"
        zeros.write_text(f"# lambda={header}\n14.1347\n21.0220\n")
        proc = subprocess.run([sys.executable, "-m", "pairpack.cli", "formfactor",
                               "--zeros", str(zeros), action],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: lambda") and "Warning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_uncancelled_form_factor_is_one(self, capsys, tmp_path, monkeypatch):
        import pairpack.formfactor as formfactor
        monkeypatch.setattr(formfactor, "pair_weight",
                            lambda u: 4.0 / (4.0 + u * u) * (1.0 + u))
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("# lambda=1\n14.1347\n21.0220\n25.0109\n")
        code, out, err = run_cli(capsys, "formfactor", "--zeros", str(zeros),
                                 "--alpha", "0.8:0.8:1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: imaginary part")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["figure1", "--c-min", "0", "--c-max", "1e160"],
                                      ["kernel", "--c3", "1e154"], ["bounds", "--c3", "1e155"]])
    def test_c3_above_bound_is_one(self, argv):
        # refused before any arithmetic: one error line, no numpy warning
        proc = subprocess.run([sys.executable, "-m", "pairpack.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "<= 1e+140, got 1e+1" in proc.stderr

    @pytest.mark.parametrize("flags", [("--w-re", "nan"), ("--w-im", "inf"), ("--z", "1,nan")])
    def test_oracle_non_finite_point_is_one(self, capsys, flags):
        code, out, err = run_cli(capsys, "oracle", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("spec", ["1:2:3", "0.5", "1:x"])
    def test_bad_average_window_names_the_flag(self, capsys, tmp_path, spec):
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("# lambda=1\n14.1347\n21.0220\n")
        code, out, err = run_cli(capsys, "formfactor", "--zeros", str(zeros), f"--avg={spec}")
        assert code == 1
        assert out == ""
        assert err == f"error: --avg must be b:ell, got {spec!r}\n"

    def test_oracle_over_node_cap_is_one(self, capsys):
        # 100000 nodes need 2500 panels of at most 40
        code, out, err = run_cli(capsys, "oracle", "--n", "100000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: 2500 panels exceed the cap")
        assert len(err.strip().splitlines()) == 1

    def test_oracle_over_panel_cap_is_one(self, capsys):
        # c3 Delta = 15000 needs 3000 panels; c3 Delta = 10^4 (2000) solves
        code, out, err = run_cli(capsys, "oracle", "--c3", "30000", "--delta", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: 3000 panels exceed the cap")
        assert len(err.strip().splitlines()) == 1
        code, out, _ = run_cli(capsys, "oracle", "--c3", "20000", "--delta", "0.5")
        assert code == 0 and out.startswith("n,48000\n")

    @pytest.mark.parametrize("name, plant", [
        ("fejer_witness", lambda f: lambda beta, x: 1.5 * f(beta, x)),   # wrong g(0)
        ("fejer_witness", lambda f: lambda beta, x: -f(beta, x)),        # not a witness
        ("_trigamma", lambda f: lambda x: 1.01 * f(x)),                  # wrong tail
    ], ids=["witness_value", "witness_sign", "lattice_tail"])
    def test_planted_fejer_fault_is_three(self, capsys, monkeypatch, name, plant):
        import pairpack.formfactor as formfactor
        monkeypatch.setattr(formfactor, name, plant(getattr(formfactor, name)))
        code, out, err = run_cli(capsys, "verify", "--suite", "constants")
        assert code == 3
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert len(failed) == 3
        assert all(line.split()[1].startswith("fejer_") for line in failed)
        assert err == ""

    def test_verify_ok_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "appendix")
        assert code == 0
        assert "OK (0 failures)" in out


def test_python_dash_m_pairpack_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "pairpack", "verify", "--suite", "appendix"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "OK (0 failures)"


def test_verify_suite_choices_follow_registry():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == ("all",) + verify.SUITES


class TestFigure1Command:
    def test_row_count_and_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "figure1", "--c-min", "0",
                               "--c-max", "2", "--steps", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,lower,upper"
        assert len(lines) == 202
        c0, lo0, up0 = (float(v) for v in lines[1].split(","))
        assert c0 == 0.0
        assert lo0 == pytest.approx(0.746708, abs=5e-4)
        assert up0 == pytest.approx(2.16599, abs=5e-4)

    def test_non_finite_range_is_one(self):
        # refused before the c-grid is built: no numpy warning on stderr
        proc = subprocess.run([sys.executable, "-m", "pairpack.cli", "figure1",
                               "--c-min", "0", "--c-max", "inf"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: c_max must be finite, got inf\n"

    def test_overflowing_c_max_is_one(self):
        # a finite c_max whose c3 = 4 c_max overflows: one error line, no
        # numpy warning and no dump of the c3 grid
        proc = subprocess.run([sys.executable, "-m", "pairpack.cli", "figure1",
                               "--c-min", "0", "--c-max", "1e308"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: c_max must keep c3 = 4 c_max <= 1e+140, got 1e+308\n"


class TestBoundsCommand:
    def test_selberg_degree(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--selberg-degree", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,lower,upper"
        _, lo, up = lines[1].split(",")
        from pairpack import selberg_bounds
        ref = selberg_bounds(2)
        assert float(lo) == pytest.approx(ref[0], abs=1e-11)
        assert float(up) == pytest.approx(ref[1], abs=1e-11)

    @pytest.mark.parametrize("flag", ["--selberg-degree", "--dedekind-degree"])
    def test_degree_beyond_floats_is_one(self, capsys, flag):
        # a 400-digit degree is refused with one error line, not a traceback
        code, out, err = run_cli(capsys, "bounds", flag, "9" * 400)
        assert code == 1
        assert out == ""
        assert err == "error: degree must be a whole number from 1 to 2^53\n"

    def test_measure_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--c1", "1", "--c2", "1",
                               "--c3", "0", "--delta", "0.5")
        rows = csv_dict(out)
        assert float(rows["upper"]) == pytest.approx(2.1659, abs=5e-4)
        assert rows["clamp_active"] == "false"


class TestFormfactorCommand:
    @pytest.fixture
    def zeros_file(self, tmp_path):
        rng = __import__("numpy").random.default_rng(30)
        vals = sorted(rng.uniform(3.0, 60.0, 48))
        p = tmp_path / "zeros.txt"
        p.write_text("# lambda=1.0\n" + "\n".join(f"{v:.9f}" for v in vals) + "\n")
        return p

    def test_alpha_grid_and_average(self, capsys, zeros_file):
        code, out, err = run_cli(capsys, "formfactor", "--zeros",
                                 str(zeros_file), "--T", "auto",
                                 "--alpha", "0:1:0.25", "--avg", "1:1")
        assert code == 0
        assert out.startswith("alpha,F")
        assert "b,ell,grid_step,average" in out
        assert "ordinates" in err

    def test_alpha_grid_matches_scalar_calls(self, capsys, zeros_file):
        code, out, _ = run_cli(capsys, "formfactor", "--zeros", str(zeros_file),
                               "--alpha=-1.5:2:0.125")
        assert code == 0
        ds = load_zeros(zeros_file)
        T = float(ds.ordinates[-1])
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,F" and len(lines) == 30
        for line in lines[1:]:
            a, f = line.split(",")
            assert f == _fmt(form_factor(ds, T, float(a)))

    def test_average_halved_step_converges(self, capsys, zeros_file):
        def avg_with(step):
            code, out, _ = run_cli(capsys, "formfactor", "--zeros",
                                   str(zeros_file), "--avg", "1:1",
                                   "--grid-step", step)
            assert code == 0
            return float(out.strip().splitlines()[-1].split(",")[-1])
        coarse = avg_with("0.03125")
        fine = avg_with("0.015625")
        assert abs(coarse - fine) / abs(fine) < 1e-3


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "constants")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "constants")
        assert out1 == out2

    def test_figure1_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "figure1", "--steps", "25")
        _, out2, _ = run_cli(capsys, "figure1", "--steps", "25")
        assert out1 == out2

    def test_figure1_output_pinned(self, capsys):
        # the sha256 of the rows as computed one measure at a time; the batched
        # evaluation must print the same bytes
        code, out, _ = run_cli(capsys, "figure1", "--c-min", "0", "--c-max", "2",
                               "--steps", "200")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "0b4190f4d1464dd6eac20cc1c6982e0742e7ae79a6c46c1f98fee2c350ab3c75"


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairpack.cli; "
         "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pairpack.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pairpack" in proc.stdout
