import json

import pytest

from lsufdr import cli
from lsufdr.cli import main
from lsufdr.crossing import SolverError

CURVE_HEADER = ("model,alpha,zeta,rho_or_nu,eer_inf,fdr_inf,t1,t2,"
                "quad_err,status")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestLimits:
    def test_constants(self, capsys):
        code = main(["limits", "--alpha", "0.05"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["fdr_discontinuity"] == pytest.approx(0.00718, abs=1e-4)
        assert out["zeta_worst"] == pytest.approx(0.50641, abs=5e-6)
        assert out["ene_lsu"] == pytest.approx(0.05 / 0.9025, rel=1e-12)

    def test_alpha_025(self, capsys):
        main(["limits", "--alpha", "0.25"])
        out = json.loads(capsys.readouterr().out)
        assert out["ene_lsu"] == pytest.approx(0.4444, abs=1e-4)

    def test_invalid_alpha_flagged(self, capsys):
        code = main(["limits", "--alpha", "0.7"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["fdr_discontinuity"] is None
        assert out["fdr_discontinuity_valid"] is False
        assert out["ene_lsu"] > 0

    def test_alpha_out_of_range(self, capsys):
        assert main(["limits", "--alpha", "1.2"]) == 1


class TestCurve:
    def test_normal_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["curve", "--model", "normal", "--alpha", "0.05",
                     "--zeta", "0.5", "--rho-grid", "0.2:0.8:3",
                     "--out", str(out)])
        assert code == 0
        text = read(out)
        lines = text.splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 4
        assert "\r" not in text
        row = lines[1].split(",")
        assert row[0] == "normal"
        assert float(row[4]) > 0.0  # eer
        assert float(row[5]) == pytest.approx(0.025, abs=2e-3)  # fdr
        assert row[9] == "ok"

    def test_bh_endpoints_sweep(self, tmp_path, capsys):
        out = tmp_path / "ends.csv"
        main(["curve", "--model", "normal", "--alpha", "0.05",
              "--zeta", "0.5", "--rho-grid", "0.000001:0.000001:1",
              "--out", str(out)])
        row = read(out).splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(0.025, abs=1e-5)

    def test_small_alpha_near_independence(self, tmp_path, capsys):
        # the weight's mass sits in a thin layer next to the window end
        # here; every row is close to the independence limits, not 0
        out = tmp_path / "small.csv"
        alpha, zeta = 0.001, 0.5
        code = main(["curve", "--model", "normal", "--alpha", str(alpha),
                     "--zeta", str(zeta), "--rho-grid", "0.01:0.0001:3",
                     "--out", str(out)])
        assert code == 0
        rows = [r.split(",") for r in read(out).splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            assert row[9] == "ok"
            assert float(row[4]) == pytest.approx(
                zeta * alpha * (1 - zeta) / (1 - alpha * zeta), rel=0.01)
            assert float(row[5]) == pytest.approx(zeta * alpha, rel=0.01)

    def test_t_sweep_json(self, tmp_path, capsys):
        out = tmp_path / "curve.json"
        code = main(["curve", "--model", "t", "--alpha", "0.05",
                     "--zeta", "0.5", "--nu-grid", "100000:100000:1",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        rows = json.loads(read(out))
        assert rows[0]["fdr_inf"] == pytest.approx(0.025, abs=1e-4)

    def test_empty_grid(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        code = main(["curve", "--model", "normal", "--alpha", "0.05",
                     "--zeta", "0.5", "--rho-grid", "0.1:0.9:0",
                     "--out", str(out)])
        assert code == 0
        assert read(out) == CURVE_HEADER + "\n"

    def test_deterministic_row_order(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["curve", "--model", "normal", "--alpha", "0.05",
                "--zeta", "0.9", "--zeta", "0.5",
                "--rho-grid", "0.3:0.6:2"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert read(out1) == read(out2)
        zetas = [float(r.split(",")[2])
                 for r in read(out1).splitlines()[1:]]
        assert zetas == [0.9, 0.9, 0.5, 0.5]  # zeta outer, grid inner

    def test_requires_grid(self, capsys):
        assert main(["curve", "--model", "normal", "--out", "x.csv"]) == 1

    def test_bad_grid_spec(self, capsys):
        assert main(["curve", "--model", "normal", "--rho-grid", "0.1:0.9",
                     "--out", "x.csv"]) == 1

    def test_row_level_failure_exit_code(self, tmp_path, capsys):
        # nu below the supported range fails per row, run continues
        out = tmp_path / "fail.csv"
        code = main(["curve", "--model", "t", "--alpha", "0.05",
                     "--zeta", "0.5", "--nu-grid", "0.3:5:2",
                     "--out", str(out)])
        assert code == 2
        lines = read(out).splitlines()
        assert len(lines) == 3
        assert "error" in lines[1]
        assert lines[1].split(",")[-1].startswith("error: ValueError: ")
        assert lines[2].split(",")[-1] == "ok"

    @pytest.mark.parametrize("model, flag, grid", [
        ("normal", "--rho-grid", "0:0.5:2"),
        ("t", "--nu-grid", "-1:5:2"),
    ])
    def test_grid_value_out_of_range(self, tmp_path, capsys, model, flag,
                                     grid):
        out = tmp_path / "range.csv"
        assert main(["curve", "--model", model, f"{flag}={grid}",
                     "--out", str(out)]) == 1
        assert "grid values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, flag, grid", [
        ("normal", "--rho-grid", "-0.5:0.5:3"),
        ("t", "--nu-grid", "-1:5:2"),
    ])
    def test_negative_grid_start_after_its_flag(self, tmp_path, capsys,
                                                model, flag, grid):
        # without "=", a grid starting with "-" is still the flag's value
        out = tmp_path / "range.csv"
        assert main(["curve", "--model", model, flag, grid,
                     "--out", str(out)]) == 1
        assert "grid values" in capsys.readouterr().err
        assert not out.exists()

    def test_pooled_sweep_bytes(self, tmp_path, capsys, monkeypatch):
        # four points run on two workers and write the serial bytes
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("LSUFDR_WORKERS", workers)
            outs.append(tmp_path / f"w{workers}.csv")
            assert main(["curve", "--model", "normal", "--zeta", "0.9",
                         "--zeta", "0.5", "--rho-grid", "0.3:0.6:2",
                         "--out", str(outs[-1])]) == 0
        assert read(outs[0]) == read(outs[1])
        assert len(read(outs[0]).splitlines()) == 5


class TestSimulate:
    def test_exponential_identity(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = main(["simulate", "--model", "exponential", "--alpha", "0.1",
                     "--zeta", "0.5", "--n", "200", "--reps", "4000",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        payload = json.loads(read(out))
        se = payload["standard_errors"]["fdr_hat"]
        assert abs(payload["fdr_hat"] - 0.05) < 3 * se
        assert payload["seed"] == 7

    def test_replay_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--model", "normal", "--rho", "0.5",
                "--alpha", "0.05", "--zeta", "0.8", "--n", "100",
                "--reps", "500", "--seed", "1234"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert read(a) == read(b)

    def test_one_replicate_writes_strict_json(self, tmp_path, capsys):
        # below two replicates no standard error is defined: null, not NaN
        out = tmp_path / "sim.json"
        assert main(["simulate", "--model", "exponential", "--n", "20",
                     "--reps", "1", "--seed", "3", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(read(out), parse_constant=reject)
        assert payload["standard_errors"] == dict.fromkeys(
            ("ene_hat", "eer_hat", "fdr_hat", "r_over_n_hat"))
        assert payload["replicates"] == 1

    def test_n_required(self, capsys):
        assert main(["simulate", "--model", "exponential"]) == 1

    def test_n_zero_usage_error(self, capsys):
        assert main(["simulate", "--model", "exponential", "--n", "0"]) == 1

    def test_missing_rho(self, capsys):
        assert main(["simulate", "--model", "normal", "--n", "10"]) == 1

    def test_conditional_z_outside_support(self, capsys):
        assert main(["simulate", "--model", "t", "--nu", "5", "--n", "10",
                     "--conditional-z", "-1.0"]) == 1
        assert main(["simulate", "--model", "exponential", "--n", "10",
                     "--conditional-z", "-0.5"]) == 1

    def test_infinite_nu_usage_error(self, capsys):
        assert main(["simulate", "--model", "t", "--nu", "inf",
                     "--n", "10", "--reps", "5"]) == 1
        assert "finite nu" in capsys.readouterr().err

    def test_repeated_zeta_usage_error(self, capsys):
        assert main(["simulate", "--model", "exponential", "--n", "10",
                     "--reps", "5", "--zeta", "0.5", "--zeta", "0.9"]) == 1
        assert "--zeta" in capsys.readouterr().err


class TestCrossing:
    def test_full_null_report(self, capsys):
        code = main(["crossing", "--model", "normal", "--rho", "0.5",
                     "--alpha", "0.05", "--zeta", "1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lcp_intervals"][0] == [0.0, 0.0]
        assert payload["has_tangent"] is True
        assert payload["t2"] > 0.0

    def test_paper_style_tangent_configuration(self, capsys):
        code = main(["crossing", "--model", "normal", "--rho", "0.5",
                     "--alpha", "0.1", "--zeta", "0.9999"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["has_tangent"] is True
        assert payload["t1"] < payload["t2"]

    def test_json_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "cross.json"
        main(["crossing", "--model", "t", "--nu", "9", "--alpha", "0.05",
              "--zeta", "0.7", "--out", str(out)])
        payload = json.loads(read(out))
        assert json.loads(json.dumps(payload)) == payload

    def test_exponential_rejected(self, capsys):
        assert main(["crossing", "--model", "exponential",
                     "--alpha", "0.05", "--zeta", "0.5"]) == 1

    def test_infinite_nu_usage_error(self, capsys):
        assert main(["crossing", "--model", "t", "--nu", "inf",
                     "--alpha", "0.05", "--zeta", "0.5"]) == 1
        assert "finite nu" in capsys.readouterr().err

    def test_repeated_zeta_usage_error(self, capsys):
        assert main(["crossing", "--model", "normal", "--rho", "0.5",
                     "--zeta", "0.5", "--zeta", "0.9"]) == 1
        assert "--zeta" in capsys.readouterr().err


class TestOptionsApply:
    """Every option given is one the command and model use."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "t", "--nu", "5", "--rho", "0.3",
         "--n", "20", "--reps", "10"],
        ["simulate", "--model", "exponential", "--rho", "0.3", "--nu", "2",
         "--n", "20", "--reps", "10"],
        ["simulate", "--model", "normal", "--rho", "0.5", "--reps", "10"],
        ["crossing", "--model", "normal", "--rho", "0.5", "--nu", "3"],
        ["crossing", "--model", "t", "--nu", "5", "--rho", "0.5"],
        # curve takes no --rho/--nu, nor an abbreviation of --rho-grid
        ["curve", "--model", "normal", "--rho", "0.9", "--nu", "4",
         "--rho-grid", "0.2:0.3:2"],
        ["curve", "--model", "normal", "--rho", "0.9",
         "--rho-grid", "0.2:0.3:2"],
        ["curve", "--model", "normal", "--rho-g", "0.2:0.3:2"],
        ["curve", "--model", "normal", "--nu-grid", "2:5:2"],
        ["curve", "--model", "t", "--rho-grid", "0.2:0.3:2"],
        ["curve", "--model", "t", "--rho-grid", "0.2:0.3:0"],
        ["curve", "--model", "normal", "--rho-grid", "0.1:0.5:-1"],
        ["curve", "--model", "normal", "--rho-grid", "0.2:0.3:2",
         "--nu-grid", "2:5:2"],
        ["curve", "--model", "exponential", "--rho-grid", "0.2:0.3:2"],
        ["curve", "--model", "t", "--nu-grid", "inf:inf:1"],
    ])
    def test_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_curve_requires_out(self, capsys):
        assert main(["curve", "--model", "normal",
                     "--rho-grid", "0.2:0.3:2"]) == 1
        assert "--out" in capsys.readouterr().err


class TestUsage:
    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        def fail(*args):
            raise SolverError("no bracket")

        monkeypatch.setattr(cli, "crossing_report", fail)
        assert main(["crossing", "--model", "normal", "--rho", "0.5"]) == 2
        assert "numeric failure: no bracket" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1
