import dataclasses
import inspect
import json
import math
import subprocess
import sys
import warnings

import pytest

import polylcm
from polylcm import cli, ensemble, errors


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrimes:
    def test_hundred(self, capsys):
        code, out, _ = run_cli(["primes", "--limit", "100"], capsys)
        assert code == 0
        assert out.strip() == "25"

    def test_ten(self, capsys):
        code, out, _ = run_cli(["primes", "--limit", "10"], capsys)
        assert code == 0
        assert out.strip() == "4"

    def test_limit_one_is_usage_error(self, capsys):
        code, _, err = run_cli(["primes", "--limit", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_show_lists_table(self, capsys):
        code, out, _ = run_cli(["primes", "--limit", "10", "--show"], capsys)
        assert out.splitlines()[1] == "2,3,5,7"

    def test_limit_over_sieve_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(["primes", "--limit", "999999999999"], capsys)
        assert code == 2
        assert out == ""
        assert "error" in err


class TestDecompose:
    def test_report_values(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bad"] == pytest.approx(3.5835, abs=1e-4)
        assert payload["c_N"] == pytest.approx(0.4024, abs=1e-4)

    def test_reducible_without_flag_exits_4(self, capsys):
        code, _, err = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "-1", "--N", "6"], capsys
        )
        assert code == 4

    def test_reducible_with_flag(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "-1", "--N", "6", "--allow-reducible"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == pytest.approx(2 * math.log(7))
        assert payload["irreducible"] is False

    def test_zero_discriminant_with_flag_is_usage_error(self, capsys):
        # x^3 - 0 passes the flag but has D = 0: no term is defined.
        code, out, err = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "0", "--N", "6", "--allow-reducible"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: discriminant is zero; decomposition terms undefined\n"

    def test_N_above_the_value_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(polylcm.ntkernel, "SIEVE_LIMIT_MAX", 1000)
        code, out, err = run_cli(
            ["decompose", "--f0", "0,2,0,1", "--a", "-1", "--N", "1001"], capsys
        )
        assert code == 2
        assert out == ""
        assert "N = 1001 values exceed budget 1000" in err

    def test_trivial_N1(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["N"] == 1

    def test_N_zero_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "0"], capsys
        )
        assert code == 2
        assert out == ""
        assert "need N >= 1" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "5", "--format", "csv"],
            capsys,
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("a,N,log_L")
        assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "5", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert json.loads(path.read_text())["a"] == 2

    def test_json_byte_identical_across_runs(self, capsys):
        argv = ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "300"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first[0] == 0
        assert first == second

    def test_bad_poly_text_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["decompose", "--f0", "1,zz,1", "--a", "0", "--N", "3"], capsys)
        assert err.value.code == 2

    def test_schema_validates(self, capsys):
        import jsonschema
        from importlib import resources

        code, out, _ = run_cli(
            ["decompose", "--f0", "0,2,0,1", "--a", "7", "--N", "20"], capsys
        )
        assert code == 0
        schema = json.loads(
            resources.files("polylcm.schemas")
            .joinpath("decomposition_report.schema.json")
            .read_text()
        )
        jsonschema.validate(json.loads(out), schema)


class TestEnvDefaults:
    @pytest.mark.parametrize("name", ["SEED", "THREADS", "SAMPLES"])
    def test_malformed_value_is_usage_error(self, name, monkeypatch, capsys):
        monkeypatch.setenv(f"POLYLCM_{name}", "seven")
        code, out, err = run_cli(["primes", "--limit", "10"], capsys)
        assert code == 2
        assert out == ""
        assert f"POLYLCM_{name}" in err

    def test_wellformed_value_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("POLYLCM_SEED", "7")
        args = cli.build_parser().parse_args(
            ["ensemble", "--f0", "0,0,0,1", "--T", "50", "--N", "6", "--stat", "cn"]
        )
        assert args.seed == 7

    def test_reused_parser_reads_the_environment_per_call(self, monkeypatch, capsys):
        argv = ["ensemble", "--f0", "0,0,0,1", "--T", "50", "--N", "10", "--stat", "cn",
                "--threads", "1"]
        monkeypatch.setenv("POLYLCM_SEED", "7")
        first = run_cli(argv, capsys)
        monkeypatch.setenv("POLYLCM_SEED", "8")
        second = run_cli(argv, capsys)
        assert [(code, json.loads(out)["seed"]) for code, out, _ in (first, second)] == [
            (0, 7), (0, 8)
        ]
        monkeypatch.setenv("POLYLCM_SAMPLES", "many")
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "POLYLCM_SAMPLES" in err


class TestEnsembleCmd:
    def test_delta_matches_library(self, capsys, x3):
        from polylcm.ensemble import ensemble_average
        import warnings

        code, out, _ = run_cli(
            ["ensemble", "--f0", "0,0,0,1", "--T", "50", "--N", "6",
             "--stat", "delta", "--sampling", "exhaustive", "--threads", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = ensemble_average(x3, 50, 6, "delta", sampling="exhaustive")
        assert payload["mean"] == want.mean
        assert payload["count_irreducible"] == 94

    def test_cn_N1_mean_zero(self, capsys):
        code, out, _ = run_cli(
            ["ensemble", "--f0", "0,0,0,1", "--T", "50", "--N", "1",
             "--stat", "cn", "--sampling", "exhaustive", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["mean"] == 0.0

    def test_bad_stat_name_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["ensemble", "--f0", "0,0,0,1", "--T", "50", "--N", "6",
                     "--stat", "bogus"], capsys)
        assert err.value.code == 2

    def test_empty_ensemble_exits_5(self, capsys):
        code, _, err = run_cli(
            ["ensemble", "--f0", "0,0,0,0,0,0,1", "--T", "1", "--N", "5",
             "--stat", "cn", "--sampling", "exhaustive", "--threads", "1"],
            capsys,
        )
        assert code == 5

    def test_csv_out(self, capsys, tmp_path):
        path = tmp_path / "shifts.csv"
        code, out, _ = run_cli(
            ["ensemble", "--f0", "0,0,0,1", "--T", "20", "--N", "5",
             "--stat", "bad", "--sampling", "exhaustive", "--threads", "1",
             "--csv-out", str(path)],
            capsys,
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,bad"
        assert len(lines) == 1 + json.loads(out)["count_irreducible"]

    def test_degree_one_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["ensemble", "--f0", "1,1", "--T", "50", "--N", "6", "--stat", "cn"], capsys
        )
        assert code == 2
        assert "degree of f0 >= 2" in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one_is_usage_error(self, samples, capsys):
        # T > 10000 samples at random; an exhaustive average reads no count.
        argv = ["ensemble", "--f0", "0,0,0,1", "--N", "40", "--stat", "cn",
                "--samples", samples, "--threads", "1"]
        code, out, err = run_cli(argv + ["--T", "20000"], capsys)
        assert code == 2
        assert out == ""
        assert "need n_samples >= 1" in err
        code, _, _ = run_cli(argv + ["--T", "50", "--sampling", "exhaustive"], capsys)
        assert code == 0

    def test_outside_window_is_one_warning_line(self):
        # The library warns; the command prints one "warning: ..." line, no
        # warning source line, and the result as usual.
        argv = ["ensemble", "--f0", "0,0,1", "--T", "50", "--N", "5", "--stat", "cn",
                "--sampling", "exhaustive", "--threads", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "polylcm.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["statistic"] == "cn"
        assert proc.stderr == (
            "warning: (T=50, N=5) outside the admissible window (50.0, 12.8);"
            " averaged bounds may not apply\n"
        )

    def test_other_warnings_pass_through(self, capsys, monkeypatch):
        # Only the window warning is turned into a line; any other warning
        # reaches the warnings filters as it is.
        average = ensemble.ensemble_average

        def warning_average(*args, **kwargs):
            warnings.warn("another warning", RuntimeWarning)
            return average(*args, **kwargs)

        monkeypatch.setattr(ensemble, "ensemble_average", warning_average)
        argv = ["ensemble", "--f0", "0,0,1", "--T", "50", "--N", "5", "--stat", "cn",
                "--sampling", "exhaustive", "--threads", "1"]
        with pytest.warns(RuntimeWarning, match="another warning"):
            code, _, err = run_cli(argv, capsys)
        assert code == 0
        assert err.count("\n") == 1 and err.startswith("warning: (T=50, N=5) outside")

    def test_inside_window_prints_no_warning(self, capsys):
        code, _, err = run_cli(
            ["ensemble", "--f0", "0,0,0,1", "--T", "20", "--N", "5", "--stat", "cn",
             "--sampling", "exhaustive", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert err == ""

    def test_byte_identical_repeat(self, capsys):
        argv = ["ensemble", "--f0", "0,0,0,1", "--T", "30000", "--N", "40",
                "--stat", "bad", "--seed", "99", "--samples", "20", "--threads", "1"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2


class TestTheoremCmd:
    def test_small_window_run(self, capsys):
        code, out, _ = run_cli(
            ["theorem", "--f0", "0,0,0,1", "--T", "400", "--N", "25",
             "--samples", "6", "--seed", "5", "--threads", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["window"]["holds"] is True
        assert payload["n_shifts"] == 6

    def test_window_violation_without_override(self, capsys):
        code, _, err = run_cli(
            ["theorem", "--f0", "0,0,0,1", "--T", "100000", "--N", "10",
             "--samples", "5", "--threads", "1"],
            capsys,
        )
        assert code == 2
        assert "override" in err

    @pytest.mark.parametrize(
        "f0, T, N, message",
        [
            ("1,1", "400", "25", "degree of f0 >= 2"),
            ("0,0,0,1", "1", "25", "T >= 2"),
            ("0,0,0,1", "-5", "25", "T >= 2"),
            ("0,0,0,1", "0", "25", "T >= 2"),
            ("0,0,0,1", "400", "1", "N >= 2"),
        ],
    )
    def test_edge_input_is_usage_error(self, f0, T, N, message, capsys):
        code, out, err = run_cli(
            ["theorem", "--f0", f0, "--T", T, "--N", N, "--samples", "5", "--threads", "1",
             "--override-window"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one_is_usage_error(self, samples, capsys):
        code, out, err = run_cli(
            ["theorem", "--f0", "0,0,0,1", "--T", "400", "--N", "25",
             "--samples", samples, "--threads", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "need n_samples >= 1" in err

    def test_override_warns(self, capsys):
        code, out, err = run_cli(
            ["theorem", "--f0", "0,0,0,1", "--T", "100000", "--N", "100",
             "--samples", "5", "--seed", "3", "--threads", "1", "--override-window"],
            capsys,
        )
        assert code == 0
        assert "warning" in err


class TestWeilCmd:
    def test_single_b(self, capsys):
        code, out, _ = run_cli(["weil", "--f0", "0,0,0,1", "--p", "7", "--b", "1"], capsys)
        assert code == 0
        assert "|S|=4.74094" in out
        assert "bound=5.29150" in out

    def test_b_zero_gives_p(self, capsys):
        code, out, _ = run_cli(["weil", "--f0", "0,0,0,1", "--p", "7", "--b", "0"], capsys)
        assert code == 0
        assert "|S|=7.00000" in out

    def test_all_b(self, capsys):
        code, out, _ = run_cli(["weil", "--f0", "0,0,0,1", "--p", "11", "--all-b"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_composite_p_is_usage_error(self, capsys):
        code, out, err = run_cli(["weil", "--f0", "0,0,0,1", "--p", "9", "--b", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "p must be prime" in err

    def test_strict_warns_for_small_p(self, capsys):
        code, _, err = run_cli(
            ["weil", "--f0", "0,0,0,0,0,1", "--p", "3", "--b", "1", "--strict"], capsys
        )
        assert code == 0
        assert "warning" in err

    def test_over_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(polylcm.ntkernel, "SIEVE_LIMIT_MAX", 100)
        code, out, err = run_cli(["weil", "--f0", "0,0,0,1", "--p", "101", "--all-b"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: p = 101 residues exceed budget 100\n"


class TestRootsCmd:
    def test_lift(self, capsys):
        code, out, _ = run_cli(
            ["roots", "--f0", "0,0,0,1", "--a", "1", "--p", "7", "--k", "2"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["roots"] == [1, 18, 30]
        assert payload["modulus"] == 49

    @pytest.mark.parametrize("p", ["4", "1"])
    def test_p_not_prime_is_usage_error(self, p, capsys):
        # Lifting mod 4 would find only 1, 3 of the roots 1, 7, 9, 15 mod 16.
        code, out, err = run_cli(
            ["roots", "--f0", "0,0,1", "--a", "1", "--p", p, "--k", "2"], capsys
        )
        assert code == 2
        assert out == ""
        assert "p must be prime" in err


def test_seed_and_root_table_only_where_they_matter():
    # Every exact output is the same for any seed, so only shift sampling
    # takes one; the only root table a caller passes is a report's own, and
    # the small-prime threshold is N, with no knob.  Result records
    # (dataclasses) echo the seed they were sampled with.
    takes = {"seed": set(), "root_table": set(), "B": set()}
    for name in polylcm.__all__:
        obj = getattr(polylcm, name)
        if not callable(obj) or dataclasses.is_dataclass(obj):
            continue
        params = inspect.signature(obj).parameters
        for key, names in takes.items():
            if key in params:
                names.add(name)
    assert takes == {
        "seed": {"ensemble_average", "theorem_check"},
        "root_table": {"decomposition_report"},
        "B": set(),
    }
    for flag in ("--seed", "--B"):
        with pytest.raises(SystemExit) as err:
            cli.main(["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "5", flag, "5"])
        assert err.value.code == 2


def test_valuation_ledger_keeps_only_what_the_identity_reads():
    # The report reads the prime-keyed part and the unshared cofactors;
    # a ledger carries no metadata, full prime map or export of its own.
    ledger = polylcm.ValuationLedger
    assert [f.name for f in dataclasses.fields(ledger)] == ["factored", "rest"]
    public = {name for name in vars(ledger) if not name.startswith("_")}
    assert public == {"product"}


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            # x^3 - 8 vanishes at n = 2, so no valuation ledger exists.
            ["decompose", "--f0", "0,0,0,1", "--a", "8", "--N", "5", "--allow-reducible"],
            # 7x^3 is identically zero mod 7.
            ["roots", "--f0", "0,0,0,7", "--a", "0", "--p", "7"],
        ],
    )
    def test_typed_error_is_one_usage_line(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "polylcm.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "5"],
            ["ensemble", "--f0", "0,0,0,1", "--T", "20", "--N", "5", "--stat", "cn",
             "--sampling", "exhaustive", "--threads", "1"],
            ["theorem", "--f0", "0,0,0,1", "--T", "400", "--N", "25",
             "--samples", "6", "--threads", "1"],
        ],
        ids=["decompose", "ensemble", "theorem"],
    )
    def test_unwritable_out_is_usage_error(self, argv, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        code, out, err = run_cli([*argv, "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_unwritable_csv_out_is_usage_error(self, capsys, tmp_path):
        # The CSV is written before any other result: no stats on stdout,
        # and no --out file.
        path = tmp_path / "missing" / "shifts.csv"
        argv = ["ensemble", "--f0", "0,0,0,1", "--T", "20", "--N", "5", "--stat", "bad",
                "--sampling", "exhaustive", "--threads", "1", "--csv-out", str(path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        stats = tmp_path / "stats.json"
        assert run_cli([*argv, "--out", str(stats)], capsys)[:2] == (2, "")
        assert not stats.exists()

    def test_unwritable_out_leaves_a_complete_csv(self, capsys, tmp_path):
        # An --out that cannot be written fails after the CSV is complete,
        # not with an empty or truncated one.
        argv = ["ensemble", "--f0", "0,0,0,1", "--T", "20", "--N", "5", "--stat", "bad",
                "--sampling", "exhaustive", "--threads", "1"]
        code, _, _ = run_cli([*argv, "--csv-out", str(tmp_path / "want.csv")], capsys)
        assert code == 0
        path = tmp_path / "shifts.csv"
        path.write_text("old\n", encoding="utf-8")
        out = tmp_path / "missing" / "out.json"
        code, _, err = run_cli([*argv, "--csv-out", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert str(out) in err
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_loglratio_with_N1_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["ensemble", "--f0", "0,0,0,1", "--T", "5", "--N", "1", "--stat", "loglratio",
             "--threads", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: need N >= 2 for loglratio, got 1\n"

    def test_window_over_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(polylcm.ntkernel, "SIEVE_LIMIT_MAX", 101)
        code, out, err = run_cli(
            ["ensemble", "--f0", "0,0,0,1", "--T", "51", "--N", "10", "--stat", "cn",
             "--sampling", "exhaustive", "--threads", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: 2T + 1 = 103 shifts exceed budget 101\n"

    @pytest.mark.parametrize(
        "error, code",
        [
            (errors.InternalConsistencyError("paths disagree"), 3),
            (errors.IrreducibilityRequiredError("reducible"), 4),
            (errors.EmptyEnsembleError("empty"), 5),
            (errors.ZeroValueError(2), 2),
            (errors.ResourceLimitError("too big"), 2),
            (ValueError("bad input"), 2),
        ],
    )
    def test_exit_code_table(self, error, code, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.decomp, "decomposition_report", fail)
        got, out, err = run_cli(["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "5"], capsys)
        assert got == code
        assert out == ""
        assert err == f"error: {error}\n"


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polylcm.cli", "primes", "--limit", "50"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "15"
