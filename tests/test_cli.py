import json
from math import sqrt

import numpy as np
import pytest

from dmc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


class TestReportEnvelope:
    def test_schema_and_config_embedded(self, capsys):
        rep = run_json(capsys, "ewens", "--N", "3", "--t", "1", "--enum")
        assert rep["schema"] == 1
        assert rep["command"] == "ewens"
        assert rep["seed"] == 0
        assert rep["config"]["N"] == 3
        assert "version" in rep and "timestamp" in rep

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out = run(capsys, "ewens", "--N", "2", "--enum", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["command"] == "ewens"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_dmc_errors_exit_nonzero(self, capsys):
        assert main(["ewens", "--N", "3"]) == 1  # neither --enum nor --trials
        assert main(["ewens", "--N", "0", "--enum"]) == 1
        assert main(["stein-gaussian", "--n", "25", "--mode", "exact"]) == 1


class TestReproducibility:
    def test_double_run_identical_modulo_timestamp(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(
                ["identities", "--trials", "20", "--seed", "7", "--out", str(p)]
            ) == 0
        reports = [json.loads(p.read_text()) for p in paths]
        for rep in reports:
            rep.pop("timestamp")
        assert reports[0] == reports[1]

    def test_mc_subcommand_reproducible(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(
                ["ewens", "--N", "5", "--t", "2", "--trials", "500",
                 "--seed", "11", "--out", str(p)]
            ) == 0
        reports = [json.loads(p.read_text()) for p in paths]
        for rep in reports:
            rep.pop("timestamp")
        assert reports[0] == reports[1]

    def test_csv_double_run_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(
                ["limits-poisson", "--grid", "4,16", "--functional", "capped",
                 "--trials", "60", "--seed", "5", "--out", str(p)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSpecExamples:
    def test_identities_residuals_small(self, capsys):
        rep = run_json(capsys, "identities", "--trials", "40", "--seed", "7")
        assert all(v <= 1e-10 for v in rep["results"]["max_residuals"].values())

    def test_ewens_discrepancy_flagged(self, capsys):
        rep = run_json(capsys, "ewens", "--N", "3", "--t", "1", "--enum")
        res = rep["results"]
        assert abs(res["var_enum"] - 1.0) <= 1e-12
        assert abs(res["var_paper_formula"] - 1.0 / 9.0) <= 1e-12
        assert res["flagged"]

    def test_stein_gaussian_closed_form(self, capsys):
        rep = run_json(capsys, "stein-gaussian", "--n", "25")
        res = rep["results"]
        assert res["method"] == "closed-form"
        assert abs(res["total"] - 0.4) <= 1e-12
        assert abs(res["lyapounov"] - 2.0 * (sqrt(2.0) + 1.0) / 5.0) <= 1e-12

    def test_stein_gaussian_enumeration_matches_closed_form(self, capsys):
        for n in (4, 9):
            rep = run_json(capsys, "stein-gaussian", "--n", str(n))
            res = rep["results"]
            assert res["method"] == "enumeration"
            assert abs(res["total"] - 2.0 / sqrt(n)) <= 1e-12


class TestOtherSubcommands:
    def test_semigroup(self, capsys):
        rep = run_json(capsys, "semigroup", "--repeats", "4", "--seed", "2",
                       "--trials", "4000")
        res = rep["results"]
        assert all(v <= 1e-8 for v in res["max_residuals"].values())
        assert res["stationarity"] <= 1e-12
        assert abs(res["simulator"]["z"]) <= 4.0

    def test_clark(self, capsys):
        rep = run_json(capsys, "clark", "--trials", "8", "--seed", "3")
        res = rep["results"]
        assert all(v <= 1e-10 for v in res["max_residuals"].values())
        assert res["poincare_violations"] == 0

    def test_inequalities(self, capsys):
        rep = run_json(capsys, "inequalities", "--trials", "20", "--seed", "4")
        res = rep["results"]
        assert res["log_sobolev"]["violations"] == 0
        assert res["concentration"]["violations"] == 0

    def test_hoeffding(self, capsys):
        rep = run_json(capsys, "hoeffding", "--n", "4")
        for case in rep["results"]["cases"].values():
            assert case["reconstruction"] <= 1e-10
            assert case["gram_off_diagonal"] <= 1e-10
            assert case["layers_vs_projections"] <= 1e-10

    def test_stein_gamma(self, capsys):
        rep = run_json(capsys, "stein-gamma", "--n", "6", "--r", "0.5",
                       "--lambda", "0.5")
        res = rep["results"]
        assert res["constants"] == {"c1": 2.0, "c2": 1.0}
        assert abs(res["total"] - (2.0 * res["t1"] + res["t2"])) <= 1e-12
        assert res["fourth_moment"]["gap"] <= 1e-9
        assert res["fourth_moment"]["printed_flagged"]

    def test_stein_homog_kernel_csv(self, capsys, tmp_path):
        n = 8
        f = np.full((n, n), 2.0 / (n - 1))
        np.fill_diagonal(f, 0.0)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, f, delimiter=",")
        rep = run_json(capsys, "stein-homog", "--kernel", str(path), "--m4", "1")
        assert rep["results"]["kernel_size"] == n
        assert rep["results"]["sqrt_bracket"] > 0
        assert rep["results"]["multiplier_symbolic"]

    def test_stein_homog_asymmetric_kernel_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.array([[0.0, 1.0], [2.0, 0.0]]), delimiter=",")
        assert main(["stein-homog", "--kernel", str(path)]) == 1

    @pytest.mark.parametrize("text", ["0,1\n1,x\n", "0,1,2\n1,0\n"],
                             ids=["non-numeric-cell", "ragged-rows"])
    def test_stein_homog_malformed_kernel_csv(self, capsys, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["stein-homog", "--kernel", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestCsvOutputs:
    def test_rfc4180_shape(self, capsys):
        code, out = run(capsys, "limits-walk", "--grid", "8,16",
                        "--functional", "endpoint")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "N,form_value,limit_value,gap,mc_se"
        assert len(lines) == 4 and lines[-1] == ""
        for line in lines[1:3]:
            fields = line.split(",")
            assert len(fields) == 5
            assert all("," not in f and "e" not in f.lower() or True for f in fields)
            float(fields[1]), float(fields[2])

    def test_walk_values(self, capsys):
        code, out = run(capsys, "limits-walk", "--grid", "8,64")
        rows = [r.split(",") for r in out.split("\r\n")[1:] if r]
        for row in rows:
            N, value, limit, gap = int(row[0]), float(row[1]), float(row[2]), float(row[3])
            assert abs(limit - 1.0 / 3.0) <= 1e-12
            assert gap <= 2.0 / N

    def test_poisson_values(self, capsys):
        code, out = run(capsys, "limits-poisson", "--grid", "4,256")
        rows = [r.split(",") for r in out.split("\r\n")[1:] if r]
        assert all(abs(float(r[1]) - 1.0) <= 1e-12 for r in rows)
        assert all(float(r[4]) == 0.0 for r in rows)

    def test_bad_grid(self, capsys):
        assert main(["limits-walk", "--grid", "8,x"]) == 1
        assert main(["limits-poisson", "--grid", ""]) == 1
