"""Command-line interface.

Subcommands: spectrum, witten, dynamics, sweep, cache. Every run that
writes files also writes a JSON manifest sufficient to reproduce them.
Exit codes: 0 success, 2 usage error, 3 numerical-consistency or
eigensolver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# numpy's bundled OpenBLAS reads this once, as numpy loads, and starts that
# many threads; `main` runs LAPACK on one thread, so a pool would only cost
# start-up. This works because `import susychain` loads no numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .analysis import (
    ESTIMATORS,
    SweepSpec,
    compare_first_order,
    default_grid,
    fit_report_json,
    sweep,
    write_sweep_csv,
)
from .dynamics import PROTOCOL_GCA, PROTOCOL_QGCA, ProtocolConfig, run_protocol, write_trace_csv
from .dynamics import _usable_cpus
from .model import SUSY_POINT, ModelParams
from .spectra import CACHE_VERSION, SolverError, _blas_threads, _one_blas_thread, cache_header
from .susy import (
    COUPLING_DELTA,
    SUSY_VALUE,
    ZERO_TOL,
    NumericalConsistencyError,
    assemble,
    witten_regularized,
    wtilde_gca_exact,
    wtilde_qgca_exact,
)

DEFAULT_N_LIST = tuple(range(3, 12))


# every shared flag is defined once; each subcommand names the ones it reads
_SHARED = {
    "cache-dir": dict(default=None, help="spectrum cache directory"),
    "seed": dict(type=int, default=1, help="base random seed"),
    "out": dict(default=None, help="output file or directory"),
    "format": dict(choices=("table", "json", "csv"), default="table"),
    "threads": dict(type=int, default=os.cpu_count() or 1),
    "config": dict(default=None, help="key = value defaults file"),
    "J": dict(type=float, default=SUSY_POINT.J),
    "Delta": dict(type=float, default=SUSY_POINT.Delta),
    "h": dict(type=float, default=SUSY_POINT.h),
}
_COUPLINGS = ("J", "Delta", "h")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susychain",
        description="Witten-index spectra, estimators, and Monte Carlo dynamics "
                    "for an open XXZ chain with a supersymmetric point.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}

    def add(name: str, summary: str, *shared: str) -> argparse.ArgumentParser:
        # no abbreviations: a prefix such as --h must not reach --help
        p = parser.subcommands[name] = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in (*shared, "cache-dir", "config"):
            p.add_argument(f"--{flag}", **_SHARED[flag])
        return p

    p = add("spectrum", "sector level listing with zero modes", "out", "format", *_COUPLINGS)
    p.add_argument("--N", type=int, required=True)

    p = add("witten", "exact index estimators", "out", "format", *_COUPLINGS)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--which", choices=("regularized", "gca", "qgca"), default="gca")
    p.add_argument("--beta", type=float, default=5.0)
    p.add_argument("--beta0", type=float, default=None,
                   help="regularization beta for --which regularized")

    p = add("dynamics", "Metropolis collision traces", "seed", "out", "threads", *_COUPLINGS)
    p.add_argument("--protocol", choices=(PROTOCOL_GCA, PROTOCOL_QGCA), default=PROTOCOL_GCA)
    p.add_argument("--N", type=int, default=None,
                   help="single sector; default runs all of 3..11")
    p.add_argument("--beta", type=float, default=5.0)
    p.add_argument("--runs", type=int, default=50000)
    p.add_argument("--iterations", type=int, default=500)

    p = add("sweep", "coupling sweeps and first-order fits", "seed", "out", "threads")
    p.add_argument("--coupling", choices=tuple(SUSY_VALUE), default=COUPLING_DELTA)
    p.add_argument("--estimator", choices=ESTIMATORS, default="exact-gca")
    p.add_argument("--N", default="3,4,5,6,7,8,9,10,11",
                   help="comma-separated sector list")
    p.add_argument("--beta", type=float, default=5.0)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--values", default=None,
                   help="comma-separated coupling values (overrides --points grid)")
    p.add_argument("--runs", type=int, default=50000)
    p.add_argument("--iterations", type=int, default=500)

    p = add("cache", "inspect or clear the spectrum cache")
    p.add_argument("action", choices=("inspect", "clear"))

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Insert `key = value` lines as flags right after the subcommand, so
    argparse checks them like any flag and later command-line flags win."""
    pre = argparse.ArgumentParser(prog="susychain", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None or argv[0] not in parser.subcommands:
        return argv
    flags = {  # subcommand -> dest -> flag, for every flag but --help
        name: {a.dest: a.option_strings[0] for a in p._actions  # noqa: SLF001
               if a.option_strings and a.dest != "help"}
        for name, p in parser.subcommands.items()
    }
    defined = set().union(*flags.values())
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in defined:
            raise ValueError(f"unknown key {key!r}")
        if dest in flags[argv[0]]:  # keys of other subcommands are skipped
            tokens.append(f"{flags[argv[0]][dest]}={value}")
    return [argv[0], *tokens, *argv[1:]]


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _unread(args: argparse.Namespace) -> set[str]:
    """Settings the chosen mode accepts (shared config files set them) but never reads."""
    if args.command == "witten":
        return {"beta"} if args.which == "regularized" else {"beta0"}
    if args.command != "sweep":
        return set()
    unread = {"points"} if args.values is not None else set()
    if args.estimator.startswith("exact-"):
        unread |= {"runs", "iterations", "threads", "seed"}
    return unread


def _environment() -> dict:
    """The numeric environment of this run; blas_threads is None when unknown."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "cpus": _usable_cpus(),
    }


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    outputs: list[Path], started: str) -> Path:
    skip = {"config", *_unread(args)}
    arguments = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    manifest = {
        "command": command,
        "arguments": arguments,
        "base_seed": arguments.get("seed"),
        "version": __version__,
        "started": started,
        "finished": _timestamp(),
        "outputs": [str(p) for p in outputs],
        "cache_dir": args.cache_dir,
        "environment": _environment(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return path


def _params(args) -> ModelParams:
    return ModelParams(J=args.J, Delta=args.Delta, h=args.h)


def _cmd_spectrum(args) -> int:
    started = _timestamp()
    spec = assemble(args.N, _params(args), args.cache_dir)
    rows = [
        {"L": L, "n_d": spec.N - L - 1, "energy": e, "parity": p, "pair_id": pair}
        for L, e, p, pair in zip(spec.lengths.tolist(), spec.energies.tolist(),
                                 spec.parities.tolist(), spec.pair_ids)
    ]
    summary = {
        "N": spec.N,
        "zero_mode_count": spec.zero_mode_count,
        "zero_mode_length": spec.zero_mode_length,
        "levels": rows,
    }
    if args.format == "json":
        text = json.dumps(summary, indent=1) + "\n"
    elif args.format == "csv":
        lines = ["L,n_d,energy,parity,pair_id"]
        lines += [
            f"{r['L']},{r['n_d']},{float(r['energy'])!r},{r['parity']},"
            f"{'' if r['pair_id'] is None else r['pair_id']}"
            for r in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'L':>3} {'n_d':>4} {'energy':>18} {'parity':>7} {'pair':>5}"]
        for r in rows:
            pair = "-" if r["pair_id"] is None else str(r["pair_id"])
            star = "  *zero" if abs(r["energy"]) < ZERO_TOL else ""
            lines.append(
                f"{r['L']:>3} {r['n_d']:>4} {r['energy']:>18.12f} "
                f"{r['parity']:>7} {pair:>5}{star}"
            )
        lines.append(
            f"zero modes: {spec.zero_mode_count}"
            + (f" (at L={spec.zero_mode_length})" if spec.zero_mode_count else "")
        )
        text = "\n".join(lines) + "\n"
    return _emit(args, "spectrum", text, started)


def _cmd_witten(args) -> int:
    started = _timestamp()
    params = _params(args)
    if args.which == "regularized":
        beta0 = args.beta0 if args.beta0 is not None else 1.0
        value = witten_regularized(assemble(args.N, params, args.cache_dir), beta0)
        beta_used = beta0
    elif args.which == "gca":
        value = wtilde_gca_exact(assemble(args.N, params, args.cache_dir), args.beta)
        beta_used = args.beta
    else:
        value = wtilde_qgca_exact(args.N, params, args.beta, args.cache_dir)
        beta_used = args.beta
    if args.format == "json":
        text = json.dumps(
            {"N": args.N, "which": args.which, "beta": beta_used, "value": value},
            indent=1,
        ) + "\n"
    elif args.format == "csv":
        text = f"N,which,beta,value\n{args.N},{args.which},{beta_used!r},{value!r}\n"
    else:
        text = f"{value!r}\n"
    return _emit(args, "witten", text, started)


def _emit(args, command: str, text: str, started: str) -> int:
    if args.out is None:
        sys.stdout.write(text)
        return 0
    out = Path(args.out)
    if out.suffix:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        _write_manifest(out.parent, command, args, [out], started)
    else:
        out.mkdir(parents=True, exist_ok=True)
        target = out / f"{command}.txt"
        target.write_text(text)
        _write_manifest(out, command, args, [target], started)
    return 0


def _cmd_dynamics(args) -> int:
    started = _timestamp()
    sectors = [args.N] if args.N is not None else list(DEFAULT_N_LIST)
    # every config is validated and size-checked before the first run writes anything
    configs = [ProtocolConfig(protocol=args.protocol, N=N, beta=args.beta,
                              iterations=args.iterations, runs=args.runs,
                              base_seed=args.seed, params=_params(args))
               for N in sectors]
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for N, config in zip(sectors, configs):
        trace = run_protocol(config, args.cache_dir, args.threads)
        line = (
            f"{args.protocol} N={N} beta={args.beta}: "
            f"window estimate {trace.window_estimate:.6f} "
            f"+- {trace.window_stderr:.6f} ({trace.window_legit} in-sector samples)"
        )
        print(line)
        if out:
            path = out / f"trace_{args.protocol}_N{N}.csv"
            write_trace_csv(trace, path, {"version": __version__})
            outputs.append(path)
    if out:
        _write_manifest(out, "dynamics", args, outputs, started)
    return 0


def _cmd_sweep(args) -> int:
    started = _timestamp()
    n_list = tuple(int(s) for s in str(args.N).split(","))
    if args.values is not None:
        values = tuple(float(s) for s in args.values.split(","))
    else:
        values = default_grid(args.coupling, args.points)
    spec = SweepSpec(
        coupling=args.coupling, values=values, n_list=n_list, beta=args.beta,
        estimator=args.estimator, runs=args.runs, iterations=args.iterations,
        base_seed=args.seed,
    )
    records = sweep(spec, args.cache_dir, args.threads)
    meta = {"coupling": spec.coupling, "estimator": spec.estimator, "beta": spec.beta,
            "version": __version__}
    if "seed" not in _unread(args):
        meta["base_seed"] = spec.base_seed
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"sweep_{spec.coupling}_{spec.estimator}.csv"
    write_sweep_csv(records, csv_path, meta)
    outputs = [csv_path]
    try:
        reports = compare_first_order(records)
    except ValueError as exc:
        print(f"fit skipped: {exc}", file=sys.stderr)
    else:
        fit_path = out / f"fit_{spec.coupling}_{spec.estimator}.json"
        fit_path.write_text(fit_report_json(reports))
        outputs.append(fit_path)
    _write_manifest(out, "sweep", args, outputs, started)
    for path in outputs:
        print(path)
    return 0


def _cmd_cache(args) -> int:
    if args.cache_dir is None:
        raise ValueError("cache command requires --cache-dir")
    root = Path(args.cache_dir)
    if args.action == "clear":
        if root.exists():
            shutil.rmtree(root)
        print(f"cleared {root}")
        return 0
    current = f"v{CACHE_VERSION}"
    old = sum(1 for path in root.glob("v*/*.spec") if path.parent.name != current)
    if old:
        print(f"{old} entries of other cache versions not listed; "
              "`cache clear` removes them", file=sys.stderr)
    entries = 0
    for path in sorted(root.glob(f"{current}/*.spec")):
        header = cache_header(path)
        if header is None:
            print(f"{path.name}: damaged or foreign entry, skipped", file=sys.stderr)
            continue
        L, n_d, J, Delta, h, levels = header
        print(f"{path.name}: L={L} n_d={n_d} J={J} Delta={Delta} h={h} levels={levels}")
        entries += 1
    print(f"{entries} entries")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "witten": _cmd_witten,
    "dynamics": _cmd_dynamics,
    "sweep": _cmd_sweep,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
    except OSError as exc:
        print(f"cannot read config file: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"bad config file: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    try:
        # every block is small enough that one LAPACK thread is as fast as two
        with _one_blas_thread():
            return _COMMANDS[args.command](args)
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
