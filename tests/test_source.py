"""The package's own source: every module reads each name it imports, every
module-level private name is read somewhere in the package, each owned
decision is read in its owner module alone, only run_protocols builds the
Monte Carlo worker map, only the map's forked workers touch sys.modules, and
only the sampling paths import the sampler, and only the sweep command the
sweeps, inside the function."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "susychain"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from .basis import SectorKey, decompose_n_sector\nprint(os.sep, SectorKey)\n")
    assert unused_imports(source) == ["system", "decompose_n_sector"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Module-level `_private` names a module defines; dunders are exempt."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unread_privates(sources: list[str]) -> list[str]:
    """Module-level `_private` names defined in `sources` that none of them reads."""
    read = set().union(*map(read_names, sources))
    return [name for source in sources for name in private_definitions(source)
            if name not in read]


def test_the_check_finds_an_unread_private_name():
    sources = ["_LIMIT = 3\n__all__ = []\n\ndef _used():\n    return _LIMIT\n\n"
               "def _stranded():\n    pass\n\nclass _Orphan:\n    pass\n",
               "from .a import _used\n\ndef public():\n    return _used()\n"]
    assert unread_privates(sources) == ["_stranded", "_Orphan"]


def test_every_private_name_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_privates(sources) == []


# name or module -> the one module that may read or import it: spectra makes
# every block solve and answers which blocks make a sector; only the command
# line sets LAPACK's thread count
OWNERS = {"_solve_block": "spectra.py", "decompose_n_sector": "spectra.py", "ctypes": "cli.py"}


def strays(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each OWNERS entry that a module other than its owner
    reads, imports by name or imports as a module."""
    found = []
    for path, source in sources.items():
        used = read_names(source)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= {a.name.split(".")[0] for a in node.names}
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                used.add(node.module.split(".")[0])
        found += [(path, name) for name, owner in OWNERS.items()
                  if name in used and path != owner]
    return found


def test_the_check_finds_a_decision_outside_its_owner():
    sources = {
        "spectra.py": "from .basis import decompose_n_sector\n\n"
                      "def _solve_block():\n    return decompose_n_sector\n",
        "susy.py": "from .spectra import _solve_block\n",
        "dynamics.py": "from . import basis\n\nmembers = basis.decompose_n_sector\n",
        "model.py": "from ctypes import CDLL\n",
        "cli.py": "import ctypes\n",
    }
    assert strays(sources) == [("susy.py", "_solve_block"), ("dynamics.py", "decompose_n_sector"),
                               ("model.py", "ctypes")]


def test_each_decision_has_one_owner():
    assert strays({path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}) == []


def map_callers(source: str) -> list[str]:
    """The module-level function (or `<module>`) around each call of `_parallel_map`,
    by bare name or as an attribute, one entry per call."""
    callers = []
    for node in ast.parse(source).body:
        caller = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else "<module>"
        callers += [caller for call in ast.walk(node) if isinstance(call, ast.Call)
                    and "_parallel_map" in (getattr(call.func, "id", None),
                                            getattr(call.func, "attr", None))]
    return callers


def test_the_check_finds_each_map_caller():
    source = ("def _parallel_map(fn, tasks, workers):\n    yield from map(fn, tasks)\n\n"
              "def run_protocol(config):\n    return list(_parallel_map(f, [], 1))\n\n"
              "def run_protocols(configs):\n    yield from _parallel_map(f, configs, 2)\n\n"
              "results = dynamics._parallel_map(f, [], 1)\n")
    assert map_callers(source) == ["run_protocol", "run_protocols", "<module>"]


def test_only_run_protocols_builds_a_worker_map():
    # one path builds and reads the Monte Carlo map, so the walker guard's
    # memory figure holds on every path that samples
    callers = [(path.name, caller) for path in sorted(PACKAGE.glob("*.py"))
               for caller in map_callers(path.read_text())]
    assert callers == [("dynamics.py", "run_protocols")]


def module_table_uses(source: str) -> list[str]:
    """Where each `sys.modules` of a module sits, one entry per use: "worker" in the
    `if pid == 0:` branch of `_parallel_map`, else the module-level function (or
    `<module>`) around it."""
    found = []
    for node in ast.parse(source).body:
        caller = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            else "<module>"
        worker = set()
        if caller == "_parallel_map":
            worker = {id(n) for branch in ast.walk(node) if isinstance(branch, ast.If)
                      and ast.unparse(branch.test) == "pid == 0"
                      for statement in branch.body for n in ast.walk(statement)}
        uses = sorted((n for n in ast.walk(node) if isinstance(n, ast.Attribute)
                       and n.attr == "modules" and getattr(n.value, "id", None) == "sys"),
                      key=lambda n: (n.lineno, n.col_offset))
        found += ["worker" if id(n) in worker else caller for n in uses]
    return found


def test_the_check_finds_each_module_table_use():
    source = ("import sys\nsys.modules.pop('x', None)\n\n"
              "def _parallel_map(fn, tasks, workers):\n"
              "    pid = fork()\n"
              "    if pid == 0:\n        sys.modules.setdefault('_hashlib', None)\n"
              "    else:\n        sys.modules['y'] = None\n\n"
              "def run_protocols(configs):\n    return 'numpy' in sys.modules\n")
    assert module_table_uses(source) == ["<module>", "worker", "_parallel_map",
                                         "run_protocols"]


def test_only_the_map_s_workers_touch_the_module_table():
    # the workers block OpenSSL there; a library caller's process keeps its modules
    uses = [(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
            for where in module_table_uses(path.read_text())]
    assert uses == [("dynamics.py", "worker")]


def imports_module(node: ast.AST, module: str) -> bool:
    """Whether `node` is an import statement that loads the package's `module`:
    relatively (`from .dynamics import x`, `from . import dynamics`) or by its
    full name."""
    if isinstance(node, ast.Import):
        paths = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        paths = [f"{node.module or ''}.{a.name}" for a in node.names]
    else:
        return False
    return any(parts[parts[0] in ("", "susychain")] == module
               for parts in (path.split(".") for path in paths))


def import_sites(source: str, module: str) -> list[str]:
    """Where each statement that imports the package's `module` sits, one entry per
    statement: the function or class around it (`Class.method` for a method), else
    `<module>`."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if imports_module(child, module):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_each_sampler_import():
    source = ("from .dynamics import ProtocolConfig\nfrom .spectra import cache_get\n"
              "if True:\n    from . import dynamics\n\n"
              "def _cmd_dynamics(args):\n    import susychain.dynamics as d\n\n"
              "class SweepSpec:\n    def __post_init__(self):\n"
              "        if self.sampled:\n            from susychain.dynamics import run_protocols\n\n"
              "def _exact():\n    from ._common import _csv_lines\n")
    assert import_sites(source, "dynamics") == ["<module>", "<module>", "_cmd_dynamics",
                                                "SweepSpec.__post_init__"]


def test_only_the_sampling_paths_import_the_sampler():
    # an exact or cache command never loads the sampler; each sampling path
    # imports it when it runs, and reads the attributes the module then holds
    imports = [(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
               for where in import_sites(path.read_text(), "dynamics")]
    assert imports == [("analysis.py", "SweepSpec.__post_init__"), ("analysis.py", "_sampled"),
                       ("cli.py", "_cmd_dynamics")]


def test_the_check_finds_each_sweep_import():
    source = ("from .analysis import ESTIMATORS\nfrom ._common import ESTIMATORS\n"
              "import susychain.analysis\n\n"
              "def _cmd_sweep(args):\n    from .analysis import SweepSpec, sweep\n\n"
              "def _cmd_witten(args):\n    from . import analysis, dynamics\n\n"
              "def _cmd_dynamics(args):\n    from .dynamics import run_protocols\n")
    assert import_sites(source, "analysis") == ["<module>", "<module>", "_cmd_sweep",
                                                "_cmd_witten"]


def test_only_the_sweep_command_imports_the_sweeps():
    # no other command loads the sweep module, which it never calls
    imports = [(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
               for where in import_sites(path.read_text(), "analysis")]
    assert imports == [("cli.py", "_cmd_sweep")]
