import subprocess
import sys

import numpy as np
import pytest

from parma.cli import main

FIXTURES = "tests/fixtures"
GOLDEN = "tests/golden"


# The simulate golden files additionally pin the bit streams of numpy's
# default generator; regenerate them if a numpy upgrade ever changes the
# normal/student-t sampling algorithms.
def golden(name):
    with open(f"{GOLDEN}/{name}", "r", encoding="utf-8") as fh:
        return fh.read()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    @pytest.mark.parametrize("name,argv", [
        ("validate_par12.txt", ["validate", f"{FIXTURES}/par12.yaml"]),
        ("greens_parma11x2.txt",
         ["greens", f"{FIXTURES}/parma11x2.yaml", "-H", "4"]),
        ("greens_const_ar1.txt",
         ["greens", f"{FIXTURES}/const_ar1.yaml", "-H", "4"]),
        ("forecast_par12.txt",
         ["forecast", f"{FIXTURES}/par12.yaml",
          "--series", f"{FIXTURES}/series12.csv", "-H", "4"]),
        ("moments_par12.txt",
         ["moments", f"{FIXTURES}/par12.yaml", "-K", "3", "-R", "200"]),
        ("stationarity_par12.txt",
         ["stationarity", f"{FIXTURES}/par12.yaml"]),
        ("stationarity_par24.txt",
         ["stationarity", f"{FIXTURES}/par24.yaml"]),
        ("stationarity_par14.txt",
         ["stationarity", f"{FIXTURES}/par14_09.yaml"]),
        ("simulate_parma11x2.txt",
         ["simulate", f"{FIXTURES}/parma11x2.yaml", "-n", "6", "--seed", "42"]),
        ("simulate_multi.txt",
         ["simulate", f"{FIXTURES}/par12.yaml", "-n", "3", "--paths", "2",
          "--seed", "1"]),
    ])
    def test_matches_golden(self, capsys, name, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == golden(name)

    def test_idempotent(self, capsys):
        argv = ["simulate", f"{FIXTURES}/par12.yaml", "-n", "50", "--seed", "9"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, "stationarity", f"{FIXTURES}/par12.yaml")
        code2 = main(["stationarity", f"{FIXTURES}/par12.yaml",
                      "-o", str(target)])
        capsys.readouterr()
        assert code == code2 == 0
        assert target.read_text() == out

    def test_stationarity_band_override(self, capsys):
        code, out, _ = run(capsys, "stationarity", f"{FIXTURES}/par12.yaml",
                           "--band", "0.7")
        assert code == 0
        assert "indeterminate_at_tolerance: true" in out
        assert "verdict: STATIONARY" in out

    def test_bench_structure(self, capsys):
        # timings are inherently non-deterministic, so the bench fixture
        # checks shape and sanity instead of bytes
        code, out, err = run(capsys, "bench", f"{FIXTURES}/par12.yaml",
                             "--orders", "20,40")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "order,recurrence_ms,lu_dets_ms,speedup"
        assert len(lines) == 3
        for line in lines[1:]:
            order, rec_ms, lu_ms, speedup = line.split(",")
            assert float(rec_ms) > 0 and float(lu_ms) > 0
            assert float(speedup) == pytest.approx(
                float(lu_ms) / float(rec_ms), rel=1e-6)


class TestExitCodes:
    def test_invalid_model_is_1(self, capsys):
        code, _, err = run(capsys, "validate", f"{FIXTURES}/bad_variance.yaml")
        assert code == 1
        assert "sigma2" in err

    def test_unknown_key_is_2(self, capsys):
        code, _, err = run(capsys, "validate", f"{FIXTURES}/unknown_key.yaml")
        assert code == 2
        assert "unknown key" in err

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file.yaml")
        assert code == 2

    def test_zero_horizon_is_usage_error(self, capsys):
        code, _, err = run(capsys, "forecast", f"{FIXTURES}/par12.yaml",
                           "--series", f"{FIXTURES}/series12.csv", "-H", "0")
        assert code == 2
        assert "horizon" in err

    def test_missing_innovations_is_usage_error(self, capsys):
        code, _, err = run(capsys, "forecast", f"{FIXTURES}/parma11x2.yaml",
                           "--series", f"{FIXTURES}/series12.csv", "-H", "2")
        assert code == 2
        assert "innovations" in err

    def test_forecast_with_innovations_runs(self, capsys):
        code, out, _ = run(capsys, "forecast", f"{FIXTURES}/parma11x2.yaml",
                           "--series", f"{FIXTURES}/series12.csv", "-H", "2",
                           "--innovations", "0.5")
        assert code == 0
        assert out.startswith("# origin time 6")

    def test_explosive_moments_is_1(self, capsys, tmp_path):
        doc = ("schema: parma-model-v1\nl: 1\np: 1\nq: 0\n"
               "drift: [0.0]\nar:\n- [1.5]\nma: []\nsigma2: [1.0]\n")
        target = tmp_path / "explosive.yaml"
        target.write_text(doc)
        code, out, err = run(capsys, "moments", str(target))
        assert code == 1
        assert "rho_hat" in err
        assert out == ""

    def test_explosive_forecast_is_1(self, capsys, tmp_path):
        # phi = 3: the MSE overflows to inf at horizon 324, the point to nan later
        doc = ("schema: parma-model-v1\nl: 4\np: 1\nq: 0\ndrift: [0, 0, 0, 0]\n"
               "ar:\n- [3, 3, 3, 3]\nma: []\nsigma2: [1, 1, 1, 1]\n")
        (tmp_path / "phi3.yaml").write_text(doc)
        (tmp_path / "y.csv").write_text("time,season,value\n3,3,0.5\n4,4,1.0\n")
        code, out, err = run(capsys, "forecast", str(tmp_path / "phi3.yaml"),
                             "--series", str(tmp_path / "y.csv"), "-H", "800")
        assert code == 1
        assert out == "" and "not finite from horizon 324" in err
        # a fresh process shows numpy's warnings; stderr holds the error line alone
        proc = subprocess.run(
            [sys.executable, "-m", "parma.cli", "forecast", str(tmp_path / "phi3.yaml"),
             "--series", str(tmp_path / "y.csv"), "-H", "800"],
            capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == err and err.count("\n") == 1 and err.startswith("error: ")

    def test_overflowing_greens_warns_on_stdout_only(self, capsys, tmp_path):
        # phi = 3 overflows past lag 646; numpy's own warnings stay quiet
        doc = ("schema: parma-model-v1\nl: 4\np: 1\nq: 1\ndrift: [0, 0, 0, 0]\n"
               "ar:\n- [3, 3, 3, 3]\nma:\n- [0.5, 0.5, 0.5, 0.5]\nsigma2: [1, 1, 1, 1]\n")
        (tmp_path / "phi3.yaml").write_text(doc)
        code, out, err = run(capsys, "greens", str(tmp_path / "phi3.yaml"), "-H", "800")
        assert code == 0 and err == ""
        assert out.startswith("# warning: coefficients exceed 1e100")
        proc = subprocess.run(
            [sys.executable, "-m", "parma.cli", "greens", str(tmp_path / "phi3.yaml"),
             "-H", "800"], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == out

    def test_nan_greens_table_warns(self, capsys, tmp_path):
        # with p = 2 the overflowing terms cancel to NaN, which no comparison flags
        doc = ("schema: parma-model-v1\nl: 4\np: 2\nq: 0\ndrift: [0, 0, 0, 0]\n"
               "ar:\n- [3, 3, 3, 3]\n- [-3, 2, -3, 2]\nma: []\nsigma2: [1, 1, 1, 1]\n")
        (tmp_path / "nan.yaml").write_text(doc)
        code, out, err = run(capsys, "greens", str(tmp_path / "nan.yaml"), "-H", "800")
        assert code == 0 and err == "" and ",nan\n" in out
        assert out.startswith("# warning: coefficients exceed 1e100")

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x.yaml"])
        assert exc.value.code == 2

    def test_bad_innovations_string_is_2(self, capsys):
        code, _, err = run(capsys, "forecast", f"{FIXTURES}/parma11x2.yaml",
                           "--series", f"{FIXTURES}/series12.csv",
                           "--innovations", "0.5,oops")
        assert code == 2
        assert "innovations" in err

    def test_negative_greens_horizon_is_2(self, capsys):
        code, _, err = run(capsys, "greens", f"{FIXTURES}/par12.yaml",
                           "-H", "-3")
        assert code == 2

    def test_unwritable_output_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", f"{FIXTURES}/par12.yaml",
                           "-o", str(tmp_path))  # a directory, not a file
        assert code == 2

    def test_bad_series_season_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,season,value\n1,2,0.5\n")
        code, _, err = run(capsys, "forecast", f"{FIXTURES}/par12.yaml",
                           "--series", str(bad))
        assert code == 2
        assert "season" in err

    def test_header_only_series_is_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("time,season,value\n")
        code, out, err = run(capsys, "forecast", f"{FIXTURES}/par12.yaml",
                             "--series", str(empty))
        assert code == 2
        assert out == "" and "empty.csv: no observations" in err

    def test_bool_order_is_2(self, capsys, tmp_path):
        target = tmp_path / "bool.yaml"
        target.write_text("schema: parma-model-v1\nl: 1\np: true\nq: 0\n"
                          "drift: [0]\nar:\n- [0.5]\nma: []\nsigma2: [1]\n")
        code, out, err = run(capsys, "validate", str(target))
        assert code == 2
        assert out == "" and "p must be an integer" in err

    def test_nan_series_value_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,season,value\n1,1,0.5\n2,2,nan\n")
        code, out, err = run(capsys, "forecast", f"{FIXTURES}/par12.yaml",
                             "--series", str(bad))
        assert code == 2
        assert out == "" and "bad.csv:3" in err

    def test_truncation_below_period_is_1(self, capsys, tmp_path):
        doc = ("schema: parma-model-v1\nl: 4\np: 1\nq: 0\ndrift: [0, 0, 0, 0]\n"
               "ar:\n- [0.5, 0.5, 0.5, 0.5]\nma: []\nsigma2: [1, 1, 1, 1]\n")
        target = tmp_path / "ar4.yaml"
        target.write_text(doc)
        code, out, err = run(capsys, "moments", str(target), "-R", "3")
        assert code == 1
        assert "truncation must be >= l = 4" in err

    def test_bad_bench_orders_is_2(self, capsys):
        code, _, err = run(capsys, "bench", f"{FIXTURES}/par12.yaml",
                           "--orders", "10,zero")
        assert code == 2


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "parma.cli", "validate",
             f"{FIXTURES}/par12.yaml"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "status: OK" in proc.stdout
