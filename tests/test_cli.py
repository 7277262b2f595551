import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import closing
from itertools import starmap
from pathlib import Path

import numpy as np
import pytest

import susychain
import susychain.cli as cli
import susychain.spectra as spectra
from susychain.analysis import SweepSpec
from susychain.cli import build_parser, main
from susychain.dynamics import BLOCK_SIZE, ProtocolConfig, run_protocol, write_trace_csv
from susychain.model import SUSY_POINT
from susychain.spectra import full_chain_spectrum
from susychain.susy import (
    NumericalConsistencyError,
    assemble,
    deviation_first_order,
    slope_cn,
    wtilde_qgca_exact,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_parser_refuses(capsys, *argv):
    """argparse rejects the command line: exit 2 before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("argv,name", [
    (("spectrum", "--N", "3"), "spectrum_N3"),  # one pair, no zero mode
    (("spectrum", "--N", "4"), "spectrum_N4"),  # a zero mode (pair_id None) and a pair
    *((("witten", "--N", "4", "--which", which), f"witten_N4_{which}")
      for which in ("regularized", "gca", "qgca")),
])
def test_output_bytes_are_pinned(capsys, argv, name, fmt):
    """Regenerate a golden with e.g. `susychain spectrum --N 3 --format csv`."""
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out.encode() == (_GOLDEN / f"{name}.{fmt}").read_bytes()


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

    def test_table_places_only_a_single_zero_mode(self, capsys):
        # both levels of N=3 are exactly 0 here, on chains L=1 and L=2
        code, out, _ = run_cli(capsys, "spectrum", "--N", "3", "--Delta", "-7", "--h", "-0.5")
        assert code == 0
        assert out.count("*zero") == 2
        assert out.endswith("\nzero modes: 2\n")

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

    @pytest.mark.parametrize("which,extra,beta", [
        ("gca", ("--beta", "5"), "5.0"),
        ("regularized", ("--beta0", "2"), "2.0"),
    ])
    def test_csv_is_a_header_and_one_row(self, capsys, which, extra, beta):
        _, json_out, _ = run_cli(capsys, "witten", "--N", "4", "--which", which, *extra,
                                 "--format", "json")
        code, out, _ = run_cli(capsys, "witten", "--N", "4", "--which", which, *extra,
                               "--format", "csv")
        assert code == 0
        value = json.loads(json_out)["value"]
        assert out == f"N,which,beta,value\n4,{which},{beta},{value!r}\n"

    # an --out with a suffix names the file; one without names a directory
    @pytest.mark.parametrize("out,written", [("w.json", "w.json"),
                                             ("wdir", "wdir/witten.txt")],
                             ids=["file", "directory"])
    def test_out_file_and_manifest(self, capsys, tmp_path, out, written):
        out_file = tmp_path / written
        code, _, _ = run_cli(capsys, "witten", "--N", "4", "--format", "json",
                             "--out", str(tmp_path / out))
        assert code == 0
        assert json.loads(out_file.read_text())["N"] == 4
        manifest = json.loads((out_file.parent / "manifest.json").read_text())
        assert manifest["command"] == "witten"
        assert manifest["base_seed"] is None  # witten has no --seed
        assert manifest["outputs"] == [str(out_file)]
        assert "config" not in manifest["arguments"]
        assert manifest["arguments"]["N"] == 4


@pytest.mark.parametrize("argv,work", [
    (("spectrum", "--N", "6"), "assemble"),
    (("witten", "--N", "6", "--which", "regularized"), "assemble"),
    (("witten", "--N", "6", "--which", "gca"), "assemble"),
    (("witten", "--N", "6", "--which", "qgca"), "wtilde_qgca_exact"),
], ids=["spectrum", "witten-regularized", "witten-gca", "witten-qgca"])
def test_manifest_started_precedes_the_work(capsys, tmp_path, monkeypatch, argv, work):
    ticks = iter(range(1000))
    monkeypatch.setattr(cli, "_timestamp", lambda: f"{next(ticks):03d}")
    marks = []
    compute = getattr(cli, work)

    def marked(*args):
        marks.append(cli._timestamp())
        return compute(*args)

    monkeypatch.setattr(cli, work, marked)
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "out.txt"))
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["started"] < marks[0] < manifest["finished"]


# argparse alone reads a value after its flag only in plain negative integer or
# decimal form; every other value that starts with '-' must read as `--flag=value`
@pytest.mark.parametrize("argv,flag,value", [
    (("witten", "--N", "4"), "--h", "-1e-3"),
    (("sweep", "--coupling", "j", "--N", "3,4"), "--values", "-1.05,-1.0,-0.95"),
    (("witten", "--N", "4"), "--Delta", "-inf"),
    (("witten", "--N", "4"), "--J", "-Infinity"),
    (("witten", "--N", "4"), "--h", "-nan"),
    (("sweep", "--coupling", "j", "--N", "3,4"), "--values", "-inf,-1.0"),
], ids=["exponent", "list", "-inf", "-Infinity", "-nan", "list-inf"])
def test_negative_value_reads_as_its_equals_form(capsys, tmp_path, argv, flag, value):
    runs = []
    for name, tail in (("split", (flag, value)), ("joined", (f"{flag}={value}",))):
        out = tmp_path / name
        code, stdout, err = run_cli(capsys, *argv, *tail, "--out", str(out))
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"} \
            if out.exists() else None
        runs.append((code, stdout.replace(str(out), "OUT"), err, files))
    assert runs[0] == runs[1]
    if math.isfinite(float(value.split(",")[0])):
        assert runs[0][0] == 0 and runs[0][3]
    else:  # the value's own check refuses it, as for any non-finite value
        assert runs[0][:2] == (2, "") and "must be finite" in runs[0][2]
        assert runs[0][3] is None


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


_WITTEN_KEYS = {"command", "cache_dir", "out", "format", "J", "Delta", "h", "N", "which"}
_SWEEP_KEYS = {"command", "cache_dir", "out", "coupling", "estimator", "N", "beta"}


class TestManifestArguments:
    """A manifest lists only the settings its run read."""

    @pytest.mark.parametrize("which,read", [
        ("regularized", {"beta0"}), ("gca", {"beta"}), ("qgca", {"beta"}),
    ])
    def test_witten(self, capsys, tmp_path, which, read):
        code, _, _ = run_cli(capsys, "witten", "--N", "4", "--which", which,
                             "--beta", "9", "--beta0", "2", "--out", str(tmp_path / "w.txt"))
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["arguments"]) == _WITTEN_KEYS | read

    @pytest.mark.parametrize("estimator,grid,read", [
        ("exact-gca", ["--values", "0.9,1.0,1.1"], {"values"}),
        ("exact-qgca", ["--points", "3"], {"points", "values"}),
        ("sampled-gca", ["--values", "0.9,1.0,1.1"],
         {"values", "runs", "iterations", "threads", "seed"}),
        ("sampled-qgca", ["--values", "0.9,1.0,1.1"],
         {"values", "runs", "iterations", "threads", "seed"}),
    ])
    def test_sweep(self, capsys, tmp_path, estimator, grid, read):
        code, _, _ = run_cli(capsys, "sweep", "--N", "4", "--estimator", estimator,
                             *grid, "--runs", "200", "--iterations", "5",
                             "--threads", "1", "--out", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["arguments"]) == _SWEEP_KEYS | read
        # only a sampled sweep reads the seed, so only it records one
        header = (tmp_path / f"sweep_delta_{estimator}.csv").read_text().splitlines()[0]
        meta = json.loads(header.removeprefix("# "))
        if "seed" in read:
            assert manifest["base_seed"] == meta["base_seed"] == 1
        else:
            assert manifest["base_seed"] is None and "base_seed" not in meta

    def test_regularized_records_the_default_beta0(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "witten", "--N", "4", "--which", "regularized",
                             "--format", "json", "--out", str(tmp_path / "w.json"))
        assert code == 0
        used = json.loads((tmp_path / "w.json").read_text())["beta"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["arguments"]["beta0"] == used == 1.0

    def test_shared_config_still_sets_unread_values(self, capsys, tmp_path):
        conf = tmp_path / "shared.conf"
        conf.write_text("beta0 = 2.0\nbeta = 2.0\nruns = 200\n")
        code, out, _ = run_cli(capsys, "witten", "--N", "4", "--config", str(conf),
                               "--out", str(tmp_path / "w.txt"))
        assert code == 0
        assert float((tmp_path / "w.txt").read_text()) == pytest.approx(-0.964663155972)
        arguments = json.loads((tmp_path / "manifest.json").read_text())["arguments"]
        assert arguments["beta"] == 2.0
        assert "beta0" not in arguments


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

    @pytest.mark.parametrize("threads,pools", [("2", 1), ("1", 0)])
    def test_one_worker_pool_per_command(self, capsys, tmp_path, monkeypatch, threads, pools):
        # every sector's blocks stream through one pool of two workers, forked
        # once; with a pool per run, the nine sectors of two or more member
        # chains forked eighteen
        from susychain import dynamics

        forks = []
        fork = os.fork

        def counting():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        argv = ["dynamics", "--protocol", "qgca", "--runs", "20", "--iterations", "5",
                "--threads", threads]
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "pooled"))
        assert code == 0
        assert len(forks) == 2 * pools
        assert_no_child()
        # the same bytes as one run_protocol per sector, each on one thread
        for N in range(3, 12):
            config = ProtocolConfig("qgca", N, 5.0, iterations=5, runs=20)
            write_trace_csv(run_protocol(config), tmp_path / "alone.csv",
                            {"version": susychain.__version__})
            name = f"trace_qgca_N{N}.csv"
            assert (tmp_path / "pooled" / name).read_bytes() == \
                (tmp_path / "alone.csv").read_bytes()

    def test_no_worker_outlives_a_failed_command(self, capsys, tmp_path, monkeypatch):
        from susychain import dynamics

        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        (tmp_path / "trace_qgca_N4.csv").mkdir()  # the second sector's trace cannot be written
        code, out, err = run_cli(capsys, "dynamics", "--protocol", "qgca", "--runs", "20",
                                 "--iterations", "5", "--threads", "2", "--out", str(tmp_path))
        assert code == 4
        assert "I/O error" in err
        assert (tmp_path / "trace_qgca_N3.csv").is_file()
        assert_no_child()

    def test_the_coordinator_solves_no_block(self, capsys, tmp_path, monkeypatch):
        # each block solve notes its process: the forked workers build the pools
        from susychain import dynamics

        noted = tmp_path / "solvers"
        solve = spectra._solve_block

        def noting(key, params, vectors=False):
            with noted.open("a") as f:  # appends this short are atomic
                f.write(f"{os.getpid()}\n")
            return solve(key, params, vectors)

        monkeypatch.setattr(spectra, "_solve_block", noting)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        code, _, _ = run_cli(capsys, "dynamics", "--protocol", "qgca", "--runs", "20",
                             "--iterations", "5", "--threads", "2")
        assert code == 0
        assert_no_child()
        solvers = noted.read_text().split()
        assert solvers and str(os.getpid()) not in solvers

    # two workers may solve and store the same block; each entry is written to
    # a temporary file and renamed into place, so the cache ends as it would
    # from one process. The digest was recorded when the coordinator built
    # every pool before the fork.
    @pytest.mark.parametrize("protocol", ["gca", "qgca"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_worker_built_pools_fill_the_cache_as_one_process(
            self, capsys, tmp_path, monkeypatch, protocol, threads):
        import hashlib

        from susychain import dynamics

        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        cache = tmp_path / "cache"
        code, _, _ = run_cli(capsys, "dynamics", "--protocol", protocol, "--N", "6",
                             "--runs", "100", "--iterations", "5", "--threads", threads,
                             "--cache-dir", str(cache))
        assert code == 0
        files = sorted(p for p in cache.rglob("*") if p.is_file())
        assert all(p.suffix == ".spec" for p in files)  # no temporary file is left
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.relative_to(cache).as_posix().encode() + b"\0"
                          + path.read_bytes())
        assert (len(files), digest.hexdigest()) == (
            15, "99b6fbf64a54f05752f2459f5bf0d8ee6d872ac03a88225c3efa388768ad10e6")

    def test_a_lost_worker_is_an_io_error(self, capsys, tmp_path, monkeypatch):
        from susychain import dynamics

        parent = os.getpid()

        def dies(*task):  # as an out-of-memory kill would end the worker
            assert os.getpid() != parent, "a walker block ran in the test process"
            os._exit(9)

        monkeypatch.setattr(dynamics, "_walk_block", dies)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        code, out, err = run_cli(capsys, "dynamics", "--protocol", "qgca", "--N", "4",
                                 "--runs", "20", "--iterations", "5", "--threads", "2",
                                 "--out", str(tmp_path))
        assert code == 4
        assert re.fullmatch(r"I/O error: worker process \d+ ended before its result "
                            r"\(wait status 2304\)\n", err)
        assert not (tmp_path / "trace_qgca_N4.csv").exists()
        assert_no_child()


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

    def test_readme_fit_example_writes_a_fit(self, capsys, tmp_path):
        # the README's fit-report example as written, but for its output directory
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        command = re.search(r"^# anisotropy sweep with first-order fit report.*\n(?:#.*\n)*"
                            r"(susychain sweep (?:.*\\\n)*.*)$", readme, re.M)[1]
        argv = shlex.split(command.replace("\\\n", " "))[1:]
        argv[argv.index("--out") + 1] = str(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0
        assert "fit skipped" not in err
        fits = json.loads((tmp_path / "fit_delta_exact-gca.json").read_text())
        assert {f["N"] for f in fits} == {3, 6, 9}

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

    def test_zero_beta_is_refused_before_any_diagonalization(self, capsys, tmp_path, solves):
        code, out, err = run_cli(capsys, "sweep", "--N", "4", "--points", "3",
                                 "--beta", "0", "--out", str(tmp_path / "o"))
        assert solves == []
        assert code == 2
        assert out == ""
        assert "beta" in err
        assert not (tmp_path / "o").exists()


class TestOneBlasThread:
    """main runs its command on one OpenBLAS thread and restores the count."""

    def test_count_is_restored_after_main(self, capsys):
        before = cli._blas_threads()
        assert run_cli(capsys, "witten", "--N", "4")[0] == 0
        assert cli._blas_threads() == before

    def test_no_openblas_is_not_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_openblas", lambda: None)
        with cli._one_blas_thread():
            pass
        assert cli._blas_threads() is None
        assert run_cli(capsys, "witten", "--N", "4")[:2] == (0, "-0.9999092083843409\n")

    @pytest.mark.parametrize("found", [True, False])
    def test_manifest_records_the_numeric_environment(self, capsys, tmp_path,
                                                      monkeypatch, found):
        if not found:
            monkeypatch.setattr(cli, "_openblas", lambda: None)
        code, _, _ = run_cli(capsys, "sweep", "--N", "4", "--values", "0.99,1.0,1.01",
                             "--out", str(tmp_path))
        assert code == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas", "blas_version", "blas_threads", "cpus"}
        assert env["numpy"] == np.__version__ and env["cpus"] >= 1
        if found and cli._openblas() is not None:
            assert env["blas_threads"] == 1
        if not found:
            assert env["blas_threads"] is None
        # telemetry stays out of the data artifacts
        header = (tmp_path / "sweep_delta_exact-gca.csv").read_text().splitlines()[0]
        assert "blas" not in header and "numpy" not in header


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

    def test_clear_keeps_what_is_not_the_cache(self, capsys, tmp_path):
        cache, outside = tmp_path / "cache", tmp_path / "outside"
        run_cli(capsys, "witten", "--N", "4", "--cache-dir", str(cache))
        (cache / "v1").mkdir()  # an older version's directory goes too
        (cache / "v1" / "old.spec").write_bytes(b"x")
        (cache / "data.csv").write_text("a,b\n")
        (cache / "notes").mkdir()
        (cache / "notes" / "paper.txt").write_text("x")
        (cache / "v2x").mkdir()
        outside.mkdir()
        (outside / "keep.txt").write_text("k")
        foreign = f"v{spectra.CACHE_VERSION + 1}"
        (cache / foreign).symlink_to(outside)
        code, out, err = run_cli(capsys, "cache", "clear", "--cache-dir", str(cache))
        assert code == 0
        assert sorted(p.name for p in cache.iterdir()) == ["data.csv", "notes", "v2x", foreign]
        assert (cache / "notes" / "paper.txt").read_text() == "x"
        assert (outside / "keep.txt").read_text() == "k"
        assert f"data.csv, notes, v2x, {foreign}" in err
        assert out == f"cleared {cache}\n"

    def test_inspect_counts_only_what_clear_removes(self, capsys, tmp_path):
        cache, outside = tmp_path / "cache", tmp_path / "outside"
        run_cli(capsys, "witten", "--N", "4", "--cache-dir", str(cache))
        for name in ("v1", "v2x"):
            (cache / name).mkdir()
            (cache / name / "old.spec").write_bytes(b"x")
        outside.mkdir()
        (outside / "old.spec").write_bytes(b"x")
        (cache / "v99").symlink_to(outside)
        code, out, err = run_cli(capsys, "cache", "inspect", "--cache-dir", str(cache))
        assert (code, out.splitlines()[-1]) == (0, "2 entries")
        # v1 only: clear removes it and keeps v2x and the symlink
        assert err == "1 entries of other cache versions not listed; `cache clear` removes them\n"
        run_cli(capsys, "cache", "clear", "--cache-dir", str(cache))
        assert sorted(p.name for p in cache.iterdir()) == ["v2x", "v99"]

    def test_inspect_refuses_a_regular_file_as_clear_does(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        results = [run_cli(capsys, "cache", action, "--cache-dir", str(blocker))
                   for action in ("inspect", "clear")]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out) == (4, "")
        assert err.startswith("I/O error: [Errno 20] Not a directory")
        assert blocker.read_text() == ""
        # a directory that does not exist is an empty cache
        assert run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path / "none")) == (
            0, "0 entries\n", "")

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
            ["--Delta", "-inf"], ["--J", "-Infinity"], ["--h", "-nan"],
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

    @pytest.mark.parametrize("argv", [
        ["dynamics", "--N", "4", "--runs", "10", "--iterations", "2", "--threads", "2"],
        ["sweep", "--N", "3,4", "--values", "1.0", "--estimator", "sampled-gca"],
        ["sweep", "--N", "3,4", "--values", "1.0", "--estimator", "sampled-qgca"],
    ], ids=["dynamics", "sampled-gca", "sampled-qgca"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        # refused with the config, before any pool is built or worker forked
        import susychain.dynamics

        monkeypatch.setattr(susychain.dynamics, "_pools", None)
        code, out, err = run_cli(capsys, *argv, "--seed", "-1", "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == "error: base_seed must be >= 0, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--estimator", "exact-gca", "--N", "4", "--values", "0.99,0.99,0.98,1.01"],
         "values holds 0.99 more than once"),
        (["--estimator", "exact-qgca", "--N", "3,3", "--points", "3"],
         "n_list holds 3 more than once"),
        (["--estimator", "sampled-gca", "--N", "3,4,3", "--values", "0.9,1.1",
          "--runs", "10", "--iterations", "5"], "n_list holds 3 more than once"),
    ], ids=["values", "N", "sampled-N"])
    def test_repeated_sweep_entry_is_usage_error(self, capsys, tmp_path, argv, message):
        # refused before any point runs or the output directory is made
        code, out, err = run_cli(capsys, "sweep", *argv, "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_regularized_overflow_is_usage_error(self, capsys, tmp_path, fmt):
        # off the special point the lowest level of N=5 is -1.372, and e^{800 * 1.372} overflows
        code, out, err = run_cli(capsys, "witten", "--N", "5", "--which", "regularized",
                                 "--J", "2", "--beta0", "800", "--format", fmt,
                                 "--out", str(tmp_path / "r" / "w.txt"))
        assert (code, out) == (2, "")
        assert err.startswith("error: Tr(-1)^F e^(-beta0 H) leaves the float range at beta0=800.0")
        assert "lowest energy -1.372" in err
        assert not (tmp_path / "r").exists()

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

    # a sweep solves energies with eigvalsh, then its first-order slope with eigh
    @pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
    def test_eigensolver_failure_maps_to_3(self, capsys, monkeypatch, tmp_path, solver):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        code, out, err = run_cli(capsys, "sweep", "--N", "4", "--points", "3",
                                 "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: eigensolver failed on block (L=")
        assert "Traceback" not in err

    # the same when a solve returns a level that is not finite
    @pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
    def test_non_finite_level_maps_to_3(self, capsys, monkeypatch, tmp_path, solver):
        solve = getattr(np.linalg, solver)

        def last_level_nan(a):
            result = solve(a)
            (result[0] if solver == "eigh" else result)[-1] = np.nan
            return result

        monkeypatch.setattr(np.linalg, solver, last_level_nan)
        code, out, err = run_cli(capsys, "sweep", "--N", "4", "--points", "3",
                                 "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: eigensolver failed on block (L=")
        assert err.endswith("a level is not finite; the couplings overflow float64\n")

    # at 1e308, Delta overflows the diagonal of block (10, 0) to inf, and LAPACK
    # overflows on the finite block (6, 4) at that J; no inf level is printed or stored
    @pytest.mark.parametrize("coupling,block", [("Delta", (10, 0)), ("J", (6, 4))])
    def test_overflowing_coupling_maps_to_3(self, capsys, tmp_path, coupling, block):
        # numpy's overflow warning, which the test run makes an error, is not raised
        cache = tmp_path / "cache"
        code, out, err = run_cli(capsys, "spectrum", "--N", "11", f"--{coupling}", "1e308",
                                 "--format", "csv", "--cache-dir", str(cache))
        assert (code, out) == (3, "")
        assert err == (f"numerical failure: eigensolver failed on block (L={block[0]}, "
                       f"n_d={block[1]}): a level is not finite; the couplings overflow "
                       "float64\n")
        # blocks solved before the failing one keep their finite energies
        stored = {path.name: np.frombuffer(spectra._read_entry(path)[1])
                  for path in cache.glob("v*/*.spec")}
        assert not any(name.startswith("L{}_nd{}_".format(*block)) for name in stored)
        assert all(np.isfinite(energies).all() for energies in stored.values())

    # the same refusal from a forked worker, whose exception is pickled back:
    # chain L=9 is the first of N=11 that overflows
    def test_overflow_in_a_worker_maps_to_3(self, capsys, monkeypatch):
        from susychain import dynamics

        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        argv = ("dynamics", "--protocol", "qgca", "--N", "11", "--Delta", "1e308",
                "--runs", "100", "--iterations", "5")
        refused = (3, "", "numerical failure: eigensolver failed on block (L=9, n_d=0): "
                          "a level is not finite; the couplings overflow float64\n")
        for threads in ("2", "1"):  # the workers start from an empty chain memo
            assert run_cli(capsys, *argv, "--threads", threads) == refused
            assert_no_child()

    # in a fresh interpreter, which shows numpy's warnings: stderr is the refusal alone
    @pytest.mark.parametrize("argv,block", [
        (("spectrum", "--N", "11"), (10, 0)),
        (("dynamics", "--protocol", "qgca", "--N", "11", "--runs", "100", "--iterations", "5",
          "--threads", "2"), (9, 0)),
    ], ids=["spectrum", "dynamics-workers"])
    def test_overflow_refusal_is_all_of_stderr(self, argv, block):
        code = ("import sys, susychain.dynamics as d; d._usable_cpus = lambda: 2; "
                f"from susychain.cli import main; sys.exit(main({[*argv, '--Delta', '1e308']!r}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env())
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("numerical failure: eigensolver failed on block "
                               f"(L={block[0]}, n_d={block[1]}): a level is not finite; "
                               "the couplings overflow float64\n")

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "witten", "--N", "4", "--out",
                               str(blocker / "w.json"))
        assert code == 4
        assert "I/O error" in err


class Reached(Exception):
    """Raised where a command would enumerate a basis or build a block."""


def walker_arrays(key, pool, beta, iterations, size):
    """Arrays of the shapes and dtypes _walk_block returns for these arguments."""
    return (np.ones(iterations, dtype=np.int64), np.ones(iterations), np.ones(size, np.int8),
            np.ones(size, np.int8), np.zeros(len(pool[0]), np.uint16))


class TestSizeGuard:
    @pytest.fixture
    def no_blocks(self, monkeypatch):
        import susychain.basis
        import susychain.model

        def reached(*args, **kwargs):
            raise Reached

        # every module that binds the two names
        for module in (susychain.basis, susychain.model):
            monkeypatch.setattr(module, "enumerate_sector", reached)
        for module in (susychain.model, spectra):
            monkeypatch.setattr(module, "build_hamiltonian", reached)

    @pytest.mark.parametrize("argv,message", [
        (("spectrum", "--N", "60"), "N=60 needs the dense block (L=43, n_d=16) of dimension "
                                    "265182149218, 562572578111020944092192 bytes"),
        (("spectrum", "--N", "23"), "N=23 needs the dense block (L=16, n_d=6) of dimension "
                                    "8008, 513024512 bytes"),
        (("witten", "--N", "16", "--which", "qgca"),
         "N=16 needs the dense block (L=15, n_d=7) of dimension 6435, 331273800 bytes"),
        (("sweep", "--N", "3,40"), "N=40 needs the dense block (L=28, n_d=11)"),
        (("dynamics", "--N", "16"),
         "N=16 needs the dense block (L=15, n_d=7) of dimension 6435, 331273800 bytes"),
    ], ids=["spectrum-60", "spectrum-23", "witten-qgca-16", "sweep-3,40", "dynamics-16"])
    def test_oversized_sector_is_refused_before_any_block(self, capsys, tmp_path, no_blocks,
                                                          argv, message):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {message}")
        assert err.rstrip().endswith("the limit is 268435456 bytes (256 MiB) per block")
        assert not out.exists()

    # a fresh process, so a guard that computes a binomial per member, or prints
    # one of 10**5 digits, shows as a timeout or a traceback; the block and its
    # size are named to three digits. `dynamics` pools whole chains, so it needs
    # the longest chain's middle block; the exact-gca sweep needs the members'
    @pytest.mark.parametrize("N,members,chains", [
        (10**6, "(L=723606, n_d=276393) of dimension about 2.61e+208984, about 5.43e+417969",
         "(L=999999, n_d=499999) of dimension about 3.95e+301026, about 1.25e+602054"),
        (10**9, "(L=723606797, n_d=276393202) of dimension about 3.35e+208987635, "
                "about 9.00e+417975271",
         "(L=999999999, n_d=499999999) of dimension about 5.82e+301029990, "
         "about 2.71e+602059982"),
    ], ids=["1e6", "1e9"])
    @pytest.mark.parametrize("command", ["spectrum", "dynamics", "sweep"])
    def test_huge_sector_is_refused_at_once(self, tmp_path, command, N, members, chains):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "susychain.cli", command, "--N", str(N), "--out", str(out)],
            capture_output=True, text=True, env=_child_env(), timeout=20)
        block = chains if command == "dynamics" else members
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: N={N} needs the dense block {block} bytes; the limit "
                               "is 268435456 bytes (256 MiB) per block\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--N", "22"),
        ("witten", "--N", "22", "--which", "gca"),
        ("witten", "--N", "15", "--which", "qgca"),
        ("dynamics", "--N", "15"),
    ])
    def test_largest_allowed_sectors_pass_the_guard(self, capsys, no_blocks, argv):
        with pytest.raises(Reached):
            main(list(argv))

    # the Python API refuses where it builds, as the command line does
    @pytest.mark.parametrize("fn,args,message", [
        (assemble, (25, SUSY_POINT), "N=25 needs the dense block (L=17, n_d=7) of dimension "
                                     "19448, 3025797632 bytes"),
        (wtilde_qgca_exact, (16, SUSY_POINT, 5.0), "N=16 needs the dense block (L=15, n_d=7)"),
        (slope_cn, (23, 5.0), "N=23 needs the dense block (L=16, n_d=6)"),
        (deviation_first_order, (23, 5.0, "delta", 0.01), "N=23 needs the dense block"),
        (full_chain_spectrum, (15, SUSY_POINT), "the L=15 chain needs the dense block "
                                                "(L=15, n_d=7)"),
        (ProtocolConfig, ("qgca", 16, 5.0), "N=16 needs the dense block (L=15, n_d=7)"),
        (SweepSpec, ("delta", (1.0,), (3, 40)), "N=40 needs the dense block (L=28, n_d=11)"),
        (SweepSpec, ("delta", (1.0,), (3, 4), 5.0, "sampled-gca", 1, 20000000),
         "N=3 needs 640000000 bytes of walker results and trace"),
    ], ids=["assemble", "wtilde_qgca_exact", "slope_cn", "deviation_first_order",
            "full_chain_spectrum", "ProtocolConfig", "SweepSpec", "SweepSpec-sampled"])
    def test_python_api_refuses_before_any_block(self, no_blocks, fn, args, message):
        with pytest.raises(ValueError) as refused:
            fn(*args)
        assert str(refused.value).startswith(message)
        assert "; the limit is 268435456 bytes (256 MiB)" in str(refused.value)

    @pytest.mark.parametrize("fn,args", [
        (assemble, (22, SUSY_POINT)),
        (full_chain_spectrum, (14, SUSY_POINT)),
    ], ids=["assemble", "full_chain_spectrum"])
    def test_python_api_passes_the_guard(self, no_blocks, fn, args):
        with pytest.raises(Reached):
            fn(*args)


    @pytest.fixture
    def no_walkers(self, monkeypatch):
        import susychain.dynamics

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(susychain.dynamics, "_walk_block", reached)

    @pytest.mark.parametrize("argv,message", [
        (("dynamics", "--N", "3", "--runs", "1", "--iterations", "100000000000"),
         "N=3 needs 3200000000000 bytes of walker results and trace, 32 per iteration: "
         "16 from the task being added and 16 for the totals"),
        # 6 member chains at N=11, each walked by every run
        (("dynamics", "--protocol", "qgca", "--N", "11", "--runs", "50000000",
          "--iterations", "500"),
         "N=11 needs 600000000 bytes of window tallies: 2 per walker of 300000000 walkers"),
        (("sweep", "--estimator", "sampled-gca", "--N", "3,4", "--values", "1.0,1.1",
          "--runs", "1", "--iterations", "20000000"),
         "N=3 needs 640000000 bytes of walker results and trace, 32 per iteration"),
        (("sweep", "--estimator", "sampled-qgca", "--N", "3,4", "--values", "1.0,1.1",
          "--runs", "1", "--iterations", "10000000"),
         "N=3 needs 320000000 bytes of walker results and trace, 32 per iteration"),
        # int8 window tallies at one iteration: 1 + 1 bytes per walker, one past the limit
        (("dynamics", "--N", "3", "--runs", "134217729", "--iterations", "1"),
         "N=3 needs 268435458 bytes of window tallies: 2 per walker of 134217729 walkers"),
        # the 2 member chains of N=3 double the walkers
        (("sweep", "--estimator", "sampled-qgca", "--N", "3,4", "--values", "1.0,1.1",
          "--runs", "67108865", "--iterations", "1"),
         "N=3 needs 268435460 bytes of window tallies: 2 per walker of 134217730 walkers"),
    ], ids=["dynamics-iterations", "dynamics-qgca-runs", "sweep-gca", "sweep-qgca",
            "dynamics-walkers", "sweep-walkers"])
    def test_oversized_walker_results_are_refused_before_any_walker(
            self, capsys, tmp_path, no_walkers, argv, message):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--threads", "1", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {message}")
        assert err.rstrip().endswith("the limit is 268435456 bytes (256 MiB)")
        assert not out.exists()

    @pytest.mark.parametrize("iterations", [500, 640])
    def test_guard_figures_are_the_kernel_arrays(self, iterations):
        # the guard's per-task and per-walker figures, read from its
        # messages, against the arrays one walker task really returns
        from susychain.dynamics import _pools, _walk_block

        with pytest.raises(ValueError, match="walker results") as refused:
            ProtocolConfig("gca", 3, 2.0, iterations=2**40)
        per_task = int(re.search(r"(\d+) from the task being added", str(refused.value))[1])
        totals = int(re.search(r"(\d+) for the totals", str(refused.value))[1])
        with pytest.raises(ValueError, match="window tallies") as refused:
            ProtocolConfig("gca", 3, 2.0, iterations=iterations, runs=2**27 + 100)
        per_walker = int(re.search(r"(\d+) per walker", str(refused.value))[1])

        size = 100
        pool = _pools(ProtocolConfig("gca", 3, 2.0), None)[0][1]
        counts, sums, wsum, wcnt, _ = _walk_block((1, "gca", 3, 0), pool, 2.0,
                                                  iterations, size)
        # one task's counts and sums, and the totals they are added to
        assert counts.nbytes + sums.nbytes == per_task * iterations == totals * iterations
        # each walker's two tallies
        assert wsum.nbytes + wcnt.nbytes == per_walker * size
        assert (per_task, per_walker) == (16, 2 if iterations < 640 else 4)

    # 2**14 iterations keep every fold array under numpy's 256 KiB threshold
    # for reusing temporaries, 2**16 put them over it
    @pytest.mark.parametrize("iterations", [2**14, 2**16])
    @pytest.mark.parametrize("runs", [1, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1])  # 1, 2, 3 tasks
    def test_trace_figure_bounds_the_fold(self, monkeypatch, iterations, runs):
        # the guard's bytes per iteration against the peak traced allocation
        # of run_protocol, from the first walker result to the finished trace
        import tracemalloc

        from susychain import dynamics

        with pytest.raises(ValueError, match="walker results") as refused:
            ProtocolConfig("gca", 3, 2.0, iterations=2**40, runs=runs)
        per_iteration = int(re.search(r"(\d+) per iteration", str(refused.value))[1])

        def results(fn, tasks, workers):
            # lazily, as _parallel_map yields them
            yield from starmap(walker_arrays, tasks)

        monkeypatch.setattr(dynamics, "_parallel_map", results)
        config = dynamics.ProtocolConfig("gca", 3, 2.0, iterations=iterations, runs=runs)
        dynamics._pools(config, None)  # chain spectra memoized before tracing
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = dynamics.run_protocol(config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert trace.estimate.nbytes + trace.stderr.nbytes + trace.legitimate_count.nbytes \
            == 24 * iterations
        # beside the per-iteration arrays, ufuncs that cast take fixed
        # buffers of 8192 elements: at most 128 KiB
        assert (per_iteration - 16) * iterations < peak <= per_iteration * iterations + 2**17

    # the same bound over two forked workers, whose results are unpickled
    # by the map: it holds none of them past the one the fold takes
    @pytest.mark.parametrize("runs", [BLOCK_SIZE + 1, 4 * BLOCK_SIZE + 1])  # 2, 5 tasks
    def test_trace_figure_bounds_the_fold_over_forked_workers(self, runs):
        import tracemalloc

        from susychain import dynamics

        iterations = 2**16
        with pytest.raises(ValueError, match="walker results") as refused:
            ProtocolConfig("gca", 3, 2.0, iterations=2**40, runs=runs)
        per_iteration = int(re.search(r"(\d+) per iteration", str(refused.value))[1])
        config = dynamics.ProtocolConfig("gca", 3, 2.0, iterations=iterations, runs=runs)
        dynamics._pools(config, None)  # chain spectra memoized before tracing
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results = dynamics._parallel_map(walker_arrays, dynamics._Tasks([config], None), 2)
            dynamics.run_protocol(config, results=results)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # beside the int8 window tallies, 2 bytes a walker, which the guard charges apart
        assert (per_iteration - 16) * iterations < peak - 2 * runs \
            <= per_iteration * iterations + 2**17

    # the same bound on the path the command line runs: run_protocols streams
    # two runs through one map, whose last result for a run must not outlive
    # the fold while that run's trace is built
    @pytest.mark.parametrize("runs", [BLOCK_SIZE + 1, 4 * BLOCK_SIZE + 1])  # 2, 5 tasks a run
    def test_trace_figure_bounds_the_streamed_fold(self, monkeypatch, runs):
        import tracemalloc

        from susychain import dynamics

        iterations = 2**16
        with pytest.raises(ValueError, match="walker results") as refused:
            ProtocolConfig("gca", 3, 2.0, iterations=2**40, runs=runs)
        per_iteration = int(re.search(r"(\d+) per iteration", str(refused.value))[1])
        monkeypatch.setattr(dynamics, "_walk_block", walker_arrays)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)  # two forked workers
        config = dynamics.ProtocolConfig("gca", 3, 2.0, iterations=iterations, runs=runs)
        dynamics._pools(config, None)  # chain spectra memoized before tracing
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with closing(dynamics.run_protocols([config, config], threads=2)) as traces:
                next(traces)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (per_iteration - 16) * iterations < peak - 2 * runs \
            <= per_iteration * iterations + 2**17

    # the guard charges no term per task or block: 128 tasks' counts and sums
    # at once, 16 bytes per iteration each, would pass the limit, but the fold
    # holds one task at a time (32 bytes per iteration) beside 4 bytes (two
    # int16 tallies) per walker, 8 MiB in all; and 2**28 bytes of int8 tallies
    # reach the limit with 16384 blocks' occupancy counts uncharged
    @pytest.mark.parametrize("runs,iterations", [(1048576, 131072), (134217728, 1)],
                             ids=["many-tasks", "tallies-at-the-limit"])
    def test_task_count_is_not_charged(self, no_walkers, runs, iterations):
        with pytest.raises(Reached):
            main(["dynamics", "--N", "3", "--runs", str(runs), "--iterations",
                  str(iterations), "--threads", "1"])

    # one task and 32 bytes per iteration: 256 MiB holds 8388608 iterations
    @pytest.mark.parametrize("iterations,refused", [(8388608, False), (8388609, True)])
    def test_trace_at_the_limit_passes_the_guard(self, capsys, no_walkers, iterations,
                                                 refused):
        argv = ["dynamics", "--N", "3", "--runs", "1", "--iterations", str(iterations),
                "--threads", "1"]
        if refused:
            assert run_cli(capsys, *argv)[0] == 2
        else:
            with pytest.raises(Reached):
                main(argv)


def _child_env() -> dict:
    """This environment, with this process's package first on the child's path,
    so a child imports the same package, installed or not."""
    src = str(Path(susychain.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "susychain.cli", "--help"],
        capture_output=True, text=True, env=_child_env(),
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


def test_readme_flag_table_matches_the_parser():
    # the README's command-line table: each subcommand's own flags and the defaults it names
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.M))
    subcommands = build_parser().subcommands
    assert set(rows) == set(subcommands)
    for name, sub in subcommands.items():
        actions = {a.option_strings[0]: a for a in sub._actions
                   if a.option_strings and a.dest not in ("help", "cache_dir", "config")}
        assert set(re.findall(r"--[\w-]+", rows[name])) == set(actions), name
        for flag, default in re.findall(r"`(--[\w-]+)` \(default ([^)]+)\)", rows[name]):
            assert default == str(actions[flag].default), (name, flag)


def test_public_api_census():
    # every public name of the package; growing the API is a deliberate edit here
    assert sorted(susychain.__all__) == [
        "FitReport", "ModelParams", "NSector",
        "NumericalConsistencyError", "ProtectionRow", "ProtocolConfig", "SUSY_POINT",
        "SectorKey", "SolverError", "SusySpectrum",
        "SweepRecord", "SweepSpec", "WittenTrace", "__version__", "assemble",
        "build_hamiltonian", "cache_get", "cache_put",
        "compare_first_order", "decompose_n_sector", "deviation_first_order",
        "enumerate_sector", "full_chain_spectrum",
        "level_slopes", "protection_report", "run_protocol",
        "slope_cn", "sweep", "witten_regularized", "wtilde_gca_exact",
        "wtilde_qgca_exact",
    ]
    for name in susychain.__all__:
        assert getattr(susychain, name) is not None
