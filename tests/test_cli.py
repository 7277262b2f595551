import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import susychain
from susychain.cli import build_parser, main
from susychain.susy import NumericalConsistencyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_parser_refuses(capsys, *argv):
    """argparse rejects the command line: exit 2 before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


class TestSpectrum:
    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--N", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 4
        assert data["zero_mode_count"] == 1
        assert data["zero_mode_length"] == 2
        energies = sorted(lv["energy"] for lv in data["levels"])
        assert energies == pytest.approx([0.0, 2.0, 2.0], abs=1e-10)

    def test_table_marks_zero_modes(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--N", "4")
        assert code == 0
        assert "*zero" in out
        assert "zero modes: 1 (at L=2)" in out

    def test_csv_is_parseable(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--N", "5", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "L,n_d,energy,parity,pair_id"
        assert len(lines) == 1 + 5  # C(2,2) + C(3,1) + C(4,0) levels


class TestWitten:
    def test_gca_value(self, capsys):
        code, out, _ = run_cli(capsys, "witten", "--N", "4", "--which", "gca",
                               "--beta", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(-0.999909208384, abs=1e-9)
        assert data["beta"] == 5.0

    def test_qgca_value(self, capsys):
        code, out, _ = run_cli(capsys, "witten", "--N", "6", "--which", "qgca",
                               "--beta", "5")
        assert code == 0
        assert abs(float(out.strip())) < 1e-3

    def test_regularized_value(self, capsys):
        code, out, _ = run_cli(capsys, "witten", "--N", "4", "--which",
                               "regularized", "--beta0", "2.0")
        assert code == 0
        assert float(out.strip()) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("which", ["gca", "qgca"])
    def test_large_beta_reaches_exact_limit(self, capsys, which):
        # N=3 has no zero mode: its levels (2,0) and (1,1) pair at E=1, so
        # both estimators tend to 0; the unshifted Gibbs weights underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "witten", "--N", "3", "--which", which,
                                     "--beta", "800")
        assert code == 0
        assert float(out) == 0.0
        assert err == ""

    def test_out_file_and_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, "witten", "--N", "4", "--format", "json",
                             "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["N"] == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "witten"
        assert manifest["base_seed"] is None  # witten has no --seed
        assert manifest["outputs"] == [str(out_file)]
        assert "config" not in manifest["arguments"]
        assert manifest["arguments"]["N"] == 4


class TestConfigFile:
    def test_config_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# defaults\nbeta = 2.0\n")
        code, out, _ = run_cli(capsys, "witten", "--N", "4", "--format", "json",
                               "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-0.964663155972, abs=1e-9)

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("beta = 2.0\n")
        code, out, _ = run_cli(capsys, "witten", "--N", "4", "--format", "json",
                               "--config", str(cfg), "--beta", "5")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-0.999909208384, abs=1e-9)

    def test_bad_config_line_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("nonsense\n")
        code, _, err = run_cli(capsys, "witten", "--N", "4", "--config", str(cfg))
        assert code == 2
        assert "bad config" in err

    def test_equals_form_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("beta = 2.0\n")
        code, out, _ = run_cli(capsys, "witten", "--N", "4", "--format", "json",
                               f"--config={cfg}")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-0.964663155972, abs=1e-9)

    def test_required_flag_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("N = 4\nruns = 10\n")  # runs belongs to other subcommands
        code, out, _ = run_cli(capsys, "witten", "--config", str(cfg))
        assert code == 0
        assert float(out) == pytest.approx(-0.999909208384, abs=1e-9)

    def test_unknown_key_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("bta = 2.0\n")
        code, out, err = run_cli(capsys, "witten", "--N", "4", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "bad config file: unknown key 'bta'" in err

    @pytest.mark.parametrize("line", ["which = regularizd", "format = xml", "N = four"])
    def test_values_are_checked_like_flags(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.conf"
        cfg.write_text(line + "\n")
        assert_parser_refuses(capsys, "witten", "--N", "4", "--config", str(cfg))

    def test_missing_config_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "witten", "--N", "4", "--config",
                               str(tmp_path / "absent.conf"))
        assert code == 4
        assert "cannot read" in err

    @pytest.fixture
    def coupling_config(self, tmp_path):
        cfg = tmp_path / "shared.conf"
        cfg.write_text("J = -0.5\n")
        return cfg

    def test_coupling_in_config_leaves_sweep_alone(self, capsys, tmp_path,
                                                   coupling_config):
        # sweep takes no couplings, so a shared file's J is not its concern
        argv = ["sweep", "--N", "4", "--values", "0.99,1.0,1.01"]
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "plain"))
        assert code == 0
        code, _, _ = run_cli(capsys, *argv, "--config", str(coupling_config),
                             "--out", str(tmp_path / "shared"))
        assert code == 0
        name = "sweep_delta_exact-gca.csv"
        assert ((tmp_path / "shared" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())

    def test_coupling_in_config_leaves_cache_alone(self, capsys, tmp_path,
                                                   coupling_config):
        cache = tmp_path / "cache"
        run_cli(capsys, "witten", "--N", "4", "--cache-dir", str(cache))
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(cache),
                               "--config", str(coupling_config))
        assert code == 0
        assert "2 entries" in out


class TestDynamics:
    def test_single_sector_trace_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "dynamics", "--N", "4", "--protocol", "gca", "--beta", "2",
            "--runs", "600", "--iterations", "40", "--out", str(out_dir),
        )
        assert code == 0
        assert "gca N=4 beta=2.0: window estimate" in out
        trace = out_dir / "trace_gca_N4.csv"
        assert trace.exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "dynamics"
        assert manifest["outputs"] == [str(trace)]

    def test_same_seed_reproduces_trace_bytes(self, capsys, tmp_path):
        argv = ["dynamics", "--N", "4", "--protocol", "qgca", "--beta", "2",
                "--runs", "500", "--iterations", "30", "--seed", "7"]
        run_cli(capsys, *argv, "--out", str(tmp_path / "a"))
        run_cli(capsys, *argv, "--out", str(tmp_path / "b"))
        a = (tmp_path / "a" / "trace_qgca_N4.csv").read_bytes()
        b = (tmp_path / "b" / "trace_qgca_N4.csv").read_bytes()
        assert a == b

    def test_default_covers_all_sectors(self, capsys):
        code, out, _ = run_cli(capsys, "dynamics", "--runs", "40",
                               "--iterations", "10", "--beta", "1")
        assert code == 0
        lines = [ln for ln in out.splitlines() if "window estimate" in ln]
        assert len(lines) == 9
        for N in range(3, 12):
            assert any(f"N={N} " in ln for ln in lines)


class TestSweep:
    def test_sweep_writes_csv_fit_and_manifest(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--coupling", "delta", "--N", "4,6",
            "--values", "0.95,0.97,0.99,1.0,1.01,1.03,1.05",
            "--out", str(tmp_path),
        )
        assert code == 0
        csv_path = tmp_path / "sweep_delta_exact-gca.csv"
        fit_path = tmp_path / "fit_delta_exact-gca.json"
        assert csv_path.exists() and fit_path.exists()
        assert str(csv_path) in out and str(fit_path) in out
        rows = csv_path.read_text().splitlines()
        assert rows[1].startswith("N,coupling,value,")
        assert len(rows) == 2 + 2 * 7
        fits = {f["N"]: f for f in json.loads(fit_path.read_text())}
        assert set(fits) == {4, 6}
        assert fits[6]["relative_discrepancy"] <= 0.02
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 2

    def test_too_few_points_skips_fit(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--N", "4", "--values", "0.99,1.0,1.01",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "fit skipped" in err
        assert not (tmp_path / "fit_delta_exact-gca.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["outputs"]) == 1

    @pytest.mark.parametrize("bad", [["--h", "0.3"], ["--J", "-0.5"], ["--Delta=1.2"]])
    def test_couplings_off_the_special_point_are_usage_errors(self, capsys, tmp_path,
                                                              bad):
        # the sweep sets its own couplings and has no flags for them
        assert_parser_refuses(capsys, "sweep", "--N", "4", "--points", "3", *bad,
                              "--out", str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    def test_large_beta_slope_check_runs_silently(self, capsys, tmp_path):
        # every unshifted Gibbs weight underflows at this beta
        code, _, err = run_cli(capsys, "sweep", "--N", "3", "--beta", "800",
                               "--values", "0.99,1.0,1.01", "--out", str(tmp_path))
        assert code == 0
        assert "Warning" not in err
        rows = (tmp_path / "sweep_delta_exact-gca.csv").read_text().splitlines()
        assert len(rows) == 2 + 3

    def test_zero_beta_is_refused_before_any_diagonalization(self, capsys, tmp_path,
                                                             monkeypatch):
        import susychain.spectra as spectra_mod

        calls = []
        real = spectra_mod.diagonalize
        monkeypatch.setattr(spectra_mod, "diagonalize",
                            lambda m: calls.append(m.key) or real(m))
        code, out, err = run_cli(capsys, "sweep", "--N", "4", "--points", "3",
                                 "--beta", "0", "--out", str(tmp_path / "o"))
        assert calls == []
        assert code == 2
        assert out == ""
        assert "beta" in err
        assert not (tmp_path / "o").exists()


class TestCache:
    def test_inspect_and_clear(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run_cli(capsys, "witten", "--N", "4", "--cache-dir", str(cache))
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(cache))
        assert code == 0
        # sector 4 pulls blocks (2,1) and (3,0)
        assert "2 entries" in out
        assert "L=2 n_d=1" in out
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(cache))
        assert code == 0
        assert not cache.exists()

    @pytest.mark.parametrize("action", ["inspect", "clear"])
    @pytest.mark.parametrize("bad", [["--J", "nan"], ["--h", "7"], ["--Delta=1.2"]])
    def test_couplings_are_usage_errors(self, capsys, tmp_path, action, bad):
        # cache acts on every coupling set at once and has no flags for one
        cache = tmp_path / "cache"
        run_cli(capsys, "witten", "--N", "4", "--cache-dir", str(cache))
        assert_parser_refuses(capsys, "cache", action, "--cache-dir", str(cache), *bad)
        assert len(list(cache.glob("v*/*.spec"))) == 2

    def test_cache_requires_directory_flag(self, capsys):
        code, _, err = run_cli(capsys, "cache", "inspect")
        assert code == 2
        assert "cache-dir" in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witten", "--N", "4", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["witten", "--N", "4", "--whi", "gca"],
        ["sweep", "--N", "4", "--h", "0.3"],  # not a prefix of --help
        ["dynamics", "--N", "4", "--run", "10"],
    ])
    def test_flags_cannot_be_abbreviated(self, capsys, argv):
        assert_parser_refuses(capsys, *argv)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--N", "4"],
        ["witten", "--N", "4"],
        ["dynamics", "--N", "4", "--runs", "10", "--iterations", "2"],
        ["sweep", "--N", "4", "--points", "3"],
        ["cache", "inspect"],
    ])
    def test_threads_below_one_is_usage_error(self, capsys, argv, threads):
        if argv[0] not in ("dynamics", "sweep"):
            # only the Monte Carlo commands have --threads
            assert_parser_refuses(capsys, *argv, "--threads", threads)
            return
        code, out, err = run_cli(capsys, *argv, "--threads", threads)
        assert code == 2
        assert out == ""
        assert "--threads" in err

    @pytest.mark.parametrize("argv,bad", [
        (argv, bad)
        for argv in (
            ["spectrum", "--N", "4"],
            ["witten", "--N", "4"],
            ["dynamics", "--N", "4", "--runs", "10", "--iterations", "2"],
            ["sweep", "--N", "4", "--points", "3"],
        )
        for bad in (
            ["--J", "nan"], ["--Delta", "inf"], ["--h=-inf"],
            ["--beta", "inf"], ["--beta", "nan"], ["--beta", "-2"],
        )
        if argv[0] != "spectrum" or bad[0] != "--beta"  # spectrum has no --beta
    ])
    def test_non_finite_or_negative_input_is_usage_error(self, capsys, tmp_path,
                                                         argv, bad):
        full = [*argv, *bad, "--out", str(tmp_path / "o")]
        if argv[0] == "sweep" and not bad[0].startswith("--beta"):
            # sweep has no coupling flags: the parser refuses the flag itself
            assert_parser_refuses(capsys, *full)
        else:
            code, out, err = run_cli(capsys, *full)
            assert code == 2
            assert out == ""
            assert "must be finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["spectrum", "--N", "4"], ["--seed", "1"]),
        (["spectrum", "--N", "4"], ["--threads", "1"]),
        (["witten", "--N", "4"], ["--seed", "1"]),
        (["witten", "--N", "4"], ["--threads", "1"]),
        (["dynamics", "--N", "4", "--runs", "10", "--iterations", "2"], ["--format", "json"]),
        (["sweep", "--N", "4", "--points", "3"], ["--format", "json"]),
        (["cache", "inspect", "--cache-dir", "c"], ["--seed", "1"]),
        (["cache", "inspect", "--cache-dir", "c"], ["--out", "o"]),
        (["cache", "inspect", "--cache-dir", "c"], ["--format", "json"]),
        (["cache", "inspect", "--cache-dir", "c"], ["--threads", "1"]),
    ])
    def test_flags_a_subcommand_does_not_read_are_refused(self, capsys, argv, flag):
        assert_parser_refuses(capsys, *argv, *flag)

    def test_numerical_consistency_maps_to_3(self, capsys, monkeypatch):
        import susychain.cli as cli_mod

        def boom(*a, **k):
            raise NumericalConsistencyError("estimators disagree")

        monkeypatch.setattr(cli_mod, "wtilde_gca_exact", boom)
        code, _, err = run_cli(capsys, "witten", "--N", "4", "--which", "gca")
        assert code == 3
        assert "consistency" in err

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "witten", "--N", "4", "--out",
                               str(blocker / "w.json"))
        assert code == 4
        assert "I/O error" in err


def test_console_script_help_runs():
    # the child imports the same package as this process, installed or not
    src = str(Path(susychain.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "susychain.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    for name in ("spectrum", "witten", "dynamics", "sweep", "cache"):
        assert name in proc.stdout


def test_option_census():
    # every settable value of every subcommand; each one is read by its command
    shared = {"--cache-dir", "--config"}
    couplings = {"--J", "--Delta", "--h"}
    census = {
        "spectrum": {"--N", "--out", "--format", *couplings, *shared},
        "witten": {"--N", "--which", "--beta", "--beta0", "--out", "--format",
                   *couplings, *shared},
        "dynamics": {"--protocol", "--N", "--beta", "--runs", "--iterations",
                     "--seed", "--out", "--threads", *couplings, *shared},
        "sweep": {"--coupling", "--estimator", "--N", "--beta", "--points", "--values",
                  "--runs", "--iterations", "--seed", "--out", "--threads", *shared},
        "cache": {"action", *shared},
    }
    found = {
        name: {a.option_strings[0] if a.option_strings else a.dest
               for a in sub._actions if a.dest != "help"}
        for name, sub in build_parser().subcommands.items()
    }
    assert found == census
    assert sum(map(len, found.values())) == 48
