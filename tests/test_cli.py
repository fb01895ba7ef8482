import json
import warnings
from math import sqrt

import numpy as np
import pytest

from dmc.cli import main

from .oracles import traced_peak


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

    def test_ewens_enumerates_past_eight(self, capsys):
        rep = run_json(capsys, "ewens", "--N", "9", "--t", "1.5", "--enum")
        assert rep["results"]["var_enum"] == pytest.approx(rep["results"]["var_clark"], abs=1e-12)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out = run(capsys, "ewens", "--N", "2", "--enum", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["command"] == "ewens"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    @pytest.mark.parametrize("argv", [
        ["hoeffding", "--mode", "mc"],
        ["stein-gamma", "--mode", "exact"],
        ["stein-homog", "--kernel", "k.csv", "--trials", "5"],
        ["stein-gaussian", "--n", "4", "--trials", "5"],
        ["stein-gaussian", "--n", "4", "--mode", "mc"],
    ])
    def test_options_a_subcommand_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_config_holds_only_read_options(self, capsys):
        rep = run_json(capsys, "hoeffding", "--n", "3")
        assert rep["config"] == {"n": 3}
        rep = run_json(capsys, "stein-gaussian", "--n", "4")
        assert rep["config"] == {"n": 4}

    def test_dmc_errors_exit_nonzero(self, capsys):
        assert main(["ewens", "--N", "3"]) == 1  # neither --enum nor --trials
        assert main(["ewens", "--N", "0", "--enum"]) == 1


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

    def test_stein_gaussian_closed_form_holds_no_pair_per_summand(self, tmp_path):
        """The Lyapounov value takes the sum's totals (1, n^-1/2), not n equal pairs."""
        out = tmp_path / "g.json"
        # n = 10**6 first: n pairs would hold 8 MB there and stop the test
        # before n = 10**9, where they would hold 8 GB
        for n in (10**6, 10**9):
            peak = traced_peak(lambda: main(["stein-gaussian", "--n", str(n), "--out", str(out)]))
            assert peak <= 2**20
            res = json.loads(out.read_text())["results"]
            assert res["method"] == "closed-form"
            assert abs(res["lyapounov"] - 2.0 * (sqrt(2.0) + 1.0) / sqrt(n)) <= 1e-15


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

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_stein_homog_non_finite_kernel_rejected(self, capsys, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,{cell}\n{cell},0\n")
        assert main(["stein-homog", "--kernel", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: kernel entries must be finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"],
                             ids=["empty", "blank-lines", "comment-only"])
    def test_stein_homog_empty_kernel_csv(self, capsys, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked numpy warning fails the test
            assert main(["stein-homog", "--kernel", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: kernel file {path} is empty\n"
        assert "Warning" not in err


# every subcommand at a valid argv, so a negative seed is the only bad input
SEEDED_ARGV = [
    ["identities", "--trials", "1"],
    ["semigroup", "--repeats", "1", "--trials", "2"],
    ["clark", "--trials", "1"],
    ["inequalities", "--trials", "1"],
    ["hoeffding", "--n", "3"],
    ["ewens", "--N", "3", "--trials", "2"],
    ["stein-gaussian", "--n", "4"],
    ["stein-gamma", "--n", "3"],
    ["stein-homog", "--kernel", "kernel.csv"],
    ["limits-poisson", "--functional", "capped", "--grid", "4", "--trials", "2"],
    ["limits-walk", "--mode", "mc", "--grid", "8", "--trials", "2"],
]


@pytest.mark.parametrize("argv", [
    ["stein-gamma", "--n", "1"],
    ["stein-gaussian", "--n", "0"],
    ["semigroup", "--repeats", "1", "--trials", "1"],
    ["ewens", "--N", "4", "--trials", "1"],
    ["limits-walk", "--mode", "mc", "--grid", "8", "--trials", "1"],
    ["limits-poisson", "--functional", "capped", "--grid", "4", "--trials", "1"],
] + [argv + ["--seed", "-1"] for argv in SEEDED_ARGV],
    ids=["stein-gamma-n1", "stein-gaussian-n0", "semigroup", "ewens", "limits-walk",
         "limits-poisson"] + [f"{argv[0]}-negative-seed" for argv in SEEDED_ARGV])
def test_bad_input_is_an_error_message(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["stein-homog", "--m4", "nan"], "fourth moment must be finite, got nan"),
    (["stein-homog", "--m4", "inf"], "fourth moment must be finite, got inf"),
    (["stein-gamma", "--r", "inf"], "r=inf"),
    (["stein-gamma", "--lambda", "inf"], "lam=inf"),
    (["ewens", "--N", "3", "--t", "inf", "--enum"], "t must be finite and > 0, got inf"),
], ids=["m4-nan", "m4-inf", "r-inf", "lambda-inf", "ewens-t-inf"])
def test_non_finite_parameters_are_refused(capsys, tmp_path, argv, named):
    """A NaN or infinite parameter would reach the report as a token JSON does not allow."""
    kernel = tmp_path / "kernel.csv"
    kernel.write_text("0,0.5,0.5\n0.5,0,0.5\n0.5,0.5,0\n")
    if argv[0] == "stein-homog":
        argv = argv + ["--kernel", str(kernel)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["identities", "--trials", "-1"],
    ["identities", "--trials", "0"],
    ["clark", "--trials", "-2"],
    ["clark", "--trials", "0"],
    ["inequalities", "--trials", "-3"],
    ["inequalities", "--trials", "0"],
    ["semigroup", "--repeats", "-1"],
    ["semigroup", "--repeats", "0"],
    ["semigroup", "--repeats", "1", "--trials", "-5"],
    ["ewens", "--N", "3", "--enum", "--trials", "-1"],
    ["limits-poisson", "--grid", "4", "--trials", "-1"],
    ["limits-walk", "--grid", "8", "--trials", "-1"],
    ["limits-walk", "--grid", "8", "--inner", "1"],
    ["limits-walk", "--grid", "8", "--inner", "0"],
    ["limits-walk", "--grid", "8", "--inner", "-5"],
    ["limits-walk", "--grid", "8", "--mode", "mc", "--trials", "10", "--inner", "1"],
])
def test_count_options_that_check_nothing_are_refused(capsys, tmp_path, argv):
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --") and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["limits-walk", "--mode", "mc", "--grid", "8", "--trials", "1"],
    ["limits-walk", "--mode", "mc", "--grid", "8"],
    ["limits-poisson", "--functional", "capped", "--grid", "4", "--trials", "1"],
    ["limits-poisson", "--functional", "capped", "--grid", "4"],
], ids=["walk-1", "walk-default", "poisson-1", "poisson-default"])
def test_monte_carlo_trials_below_two_are_named(capsys, argv):
    assert main(argv) == 1
    got = argv[argv.index("--trials") + 1] if "--trials" in argv else "0"
    assert capsys.readouterr().err == f"error: --trials must be >= 2, got {got}\n"


def test_inner_below_two_is_named_in_exact_mode(capsys):
    assert main(["limits-walk", "--grid", "8", "--inner", "1"]) == 1
    assert capsys.readouterr().err == "error: --inner must be >= 2, got 1\n"


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
