"""Command-line interface.

Subcommands: spectrum, witten, dynamics, sweep, cache. Every run that
writes files also writes a JSON manifest sufficient to reproduce them.
Exit codes: 0 success, 2 usage error, 3 numerical-consistency or
eigensolver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import os
import platform
import re
import shutil
import sys
from contextlib import closing, contextmanager
from pathlib import Path

# numpy's bundled OpenBLAS reads this once, as numpy loads, and starts that
# many threads; `main` runs LAPACK on one thread, so a pool would only cost
# start-up. This works because `import susychain` loads no numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from ._common import ESTIMATORS, PROTOCOL_GCA, PROTOCOL_QGCA, _csv_lines, _usable_cpus
from .model import SUSY_POINT, ModelParams
from .spectra import CACHE_VERSION, SolverError, cache_header
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

# thread-count symbols of numpy's bundled OpenBLAS, by symbol prefix and suffix
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS uses now, or None if there is none."""
    calls = _openblas()
    return None if calls is None else calls[0]()


@contextmanager
def _one_blas_thread():
    """Run the block with the bundled OpenBLAS on one thread, then restore its count.

    The blocks the command line solves are small (dimension 252 at
    L=10), where a second BLAS thread spins without saving wall time.
    Without a bundled OpenBLAS this does nothing.
    """
    get, put = _openblas() or (lambda: None, lambda n: None)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# every shared flag is defined once; each subcommand names the ones it reads
_SHARED = {
    "cache-dir": dict(default=None, help="spectrum cache directory"),
    "seed": dict(type=int, default=1, help="base random seed"),
    "out": dict(default=None, help="output file or directory"),
    "format": dict(choices=("table", "json", "csv"), default="table"),
    "threads": dict(type=int, default=_usable_cpus()),
    "config": dict(default=None, help="key = value defaults file"),
    "J": dict(type=float, default=SUSY_POINT.J),
    "Delta": dict(type=float, default=SUSY_POINT.Delta),
    "h": dict(type=float, default=SUSY_POINT.h),
    "beta": dict(type=float, default=5.0),
    "runs": dict(type=int, default=50000),
    "iterations": dict(type=int, default=500),
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

    p = add("witten", "exact index estimators", "out", "format", "beta", *_COUPLINGS)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--which", choices=("regularized", "gca", "qgca"), default="gca")
    p.add_argument("--beta0", type=float, default=1.0,
                   help="regularization beta for --which regularized")

    p = add("dynamics", "Metropolis collision traces", "seed", "out", "threads",
            "beta", "runs", "iterations", *_COUPLINGS)
    p.add_argument("--protocol", choices=(PROTOCOL_GCA, PROTOCOL_QGCA), default=PROTOCOL_GCA)
    p.add_argument("--N", type=int, default=None,
                   help="single sector; default runs all of 3..11")

    p = add("sweep", "coupling sweeps and first-order fits", "seed", "out", "threads",
            "beta", "runs", "iterations")
    p.add_argument("--coupling", choices=tuple(SUSY_VALUE), default=COUPLING_DELTA)
    p.add_argument("--estimator", choices=ESTIMATORS, default="exact-gca")
    p.add_argument("--N", default=",".join(map(str, DEFAULT_N_LIST)),
                   help="comma-separated sector list")
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--values", default=None,
                   help="comma-separated coupling values (overrides --points grid)")

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


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each token that starts with '-' and a number (a digit, '.', 'inf' or
    'nan' in any case, as float() reads them) joined to the flag before it as
    `--flag=value`, the form config files take. argparse reads such a token as a value
    only in plain integer or decimal form (not -1e-3, -inf or -1.05,-1.0), and no flag
    of this parser starts that way."""
    joined = []
    for token in argv:
        if re.match(r"-([\d.]|inf|nan)", token, re.I) and joined \
                and re.fullmatch(r"--[^=]+", joined[-1]):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


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


def _write_manifest(args: argparse.Namespace, outputs: list[Path], started: str) -> None:
    """Write manifest.json beside the run's first output."""
    skip = {"config", *_unread(args)}
    arguments = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "base_seed": arguments.get("seed"),
        "version": __version__,
        "started": started,
        "finished": _timestamp(),
        "outputs": [str(p) for p in outputs],
        "cache_dir": args.cache_dir,
        "environment": _environment(),
    }
    path = outputs[0].parent / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _params(args) -> ModelParams:
    return ModelParams(J=args.J, Delta=args.Delta, h=args.h)


def _cmd_spectrum(args) -> list[Path]:
    spec = assemble(args.N, _params(args), args.cache_dir)
    rows = [
        {"L": L, "n_d": spec.N - L - 1, "energy": e, "parity": p, "pair_id": pair}
        for L, e, p, pair in zip(spec.lengths.tolist(), spec.energies.tolist(),
                                 spec.parities.tolist(), spec.pair_ids)
    ]
    summary = {"N": spec.N, "zero_mode_count": spec.zero_mode_count,
               "zero_mode_length": spec.zero_mode_length, "levels": rows}
    table = [f"{'L':>3} {'n_d':>4} {'energy':>18} {'parity':>7} {'pair':>5}"]
    table += [
        f"{r['L']:>3} {r['n_d']:>4} {r['energy']:>18.12f} {r['parity']:>7} "
        f"{'-' if r['pair_id'] is None else r['pair_id']:>5}"
        + ("  *zero" if abs(r["energy"]) < ZERO_TOL else "")
        for r in rows
    ]
    where = "" if spec.zero_mode_length is None else f" (at L={spec.zero_mode_length})"
    table.append(f"zero modes: {spec.zero_mode_count}{where}")
    return _emit(args, _render(args.format, rows, summary, table))


def _cmd_witten(args) -> list[Path]:
    params = _params(args)
    beta = args.beta0 if args.which == "regularized" else args.beta
    if args.which == "qgca":
        value = wtilde_qgca_exact(args.N, params, beta, args.cache_dir)
    else:
        estimator = witten_regularized if args.which == "regularized" else wtilde_gca_exact
        value = estimator(assemble(args.N, params, args.cache_dir), beta)
    row = {"N": args.N, "which": args.which, "beta": beta, "value": value}
    return _emit(args, _render(args.format, [row], row, [repr(value)]))


def _render(fmt: str, rows: list[dict], document, table: list[str]) -> str:
    """A command's output text in `fmt`: `rows` as CSV, `document` as JSON or the `table` lines."""
    if fmt == "csv":
        return "".join(_csv_lines(list(rows[0]), (row.values() for row in rows)))
    if fmt == "json":
        return json.dumps(document, indent=1) + "\n"
    return "\n".join(table) + "\n"


def _emit(args, text: str) -> list[Path]:
    if args.out is None:
        sys.stdout.write(text)
        return []
    # an --out with a suffix names the file; one without names its directory
    out = Path(args.out)
    target = out if out.suffix else out / f"{args.command}.txt"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return [target]


def _cmd_dynamics(args) -> list[Path]:
    # the sampler loads only here: no other command walks
    from .dynamics import ProtocolConfig, run_protocols, write_trace_csv

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
    # one worker pool for every sector; closing it on an error stops the workers
    with closing(run_protocols(configs, args.cache_dir, args.threads)) as traces:
        for trace in traces:
            N = trace.config.N
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
    return outputs


def _cmd_sweep(args) -> list[Path]:
    # the sweep module loads only here: no other command sweeps
    from .analysis import (SweepSpec, compare_first_order, default_grid, fit_report_json,
                           sweep, write_sweep_csv)

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
    for path in outputs:
        print(path)
    return outputs


def _version_dirs(root: Path) -> list[Path]:
    """Every cache version's directory under `root`: real `v<digits>` directories, no symlinks."""
    return [path for path in (root.iterdir() if root.exists() else ())
            if re.fullmatch(r"v[0-9]+", path.name) and path.is_dir() and not path.is_symlink()]


def _cmd_cache(args) -> list[Path]:
    if args.cache_dir is None:
        raise ValueError("cache command requires --cache-dir")
    root = Path(args.cache_dir)
    if args.action == "clear":
        # every version's directory, then the root if nothing else is left in it
        for path in _version_dirs(root):
            shutil.rmtree(path)
        left = sorted(path.name for path in root.iterdir()) if root.exists() else []
        if left:
            print(f"kept {root}: {len(left)} entries that are not the cache's: "
                  + ", ".join(left), file=sys.stderr)
        elif root.exists():
            root.rmdir()
        print(f"cleared {root}")
        return []
    current = f"v{CACHE_VERSION}"
    old = sum(len(list(d.glob("*.spec"))) for d in _version_dirs(root) if d.name != current)
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
    return []


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "witten": _cmd_witten,
    "dynamics": _cmd_dynamics,
    "sweep": _cmd_sweep,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
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
            started = _timestamp()
            outputs = _COMMANDS[args.command](args)
            if outputs:
                _write_manifest(args, outputs, started)
        return 0
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
