"""The import budget of a run: scipy.sparse loads with a run's first sparse operator.

A `simulate` process that builds no sparse operator loads no scipy module
at all: a table1 run (its drive is Kronecker-factored), `--help` or a
config error.  Every other run loads scipy.sparse and nothing heavier.  The
package's modules import no private name from one another either.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motlight

PACKAGE = Path(motlight.__file__).resolve().parent
# scipy modules no run needs; importing them would add 0.3 s or more to every run's start-up
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse.linalg", "scipy.stats")

SCRIPT = """
import json, os, sys


def threads():
    return next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith("Threads:"))


from motlight import cli

imported = threads()
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:  # --help
        codes.append(exc.code)
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules), "threads": [imported, threads()],
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _run_fresh(argvs, **env_vars) -> dict:
    """Import the CLI and run `simulate` on each argv in a fresh interpreter,
    without this process's OPENBLAS_NUM_THREADS (importing motlight set it
    here), plus env_vars."""
    src = str(Path(motlight.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _argv(tmp_path, cfg) -> list[str]:
    """simulate's arguments for a config, written to a file under tmp_path."""
    path = tmp_path / (cfg["experiment"] + ".config.json")
    path.write_text(json.dumps(cfg))
    return [cfg["experiment"], "--config", str(path), "--out", str(tmp_path)]


def _scipy_loaded(report) -> list[str]:
    return [m for m in report["loaded"] if _is_scipy(m)]


@pytest.mark.parametrize("case", ["import", "help", "table1", "config error"])
def test_a_run_without_sparse_operators_loads_no_scipy(tmp_path, tiny_runs, case):
    # table1's drive is Kronecker-factored and its EPR variance acts per mode
    table1 = next(cfg for cfg in tiny_runs if cfg["experiment"] == "table1")
    argvs, codes = {
        "import": ([], []),
        "help": ([["table2", "--help"]], [0]),
        "table1": ([_argv(tmp_path, table1)], [0]),
        "config error": ([["table2", "--steps-per-period", "5"]], [2]),
    }[case]
    report = _run_fresh(argvs)
    assert report["codes"] == codes
    assert _scipy_loaded(report) == []


def test_runs_load_no_heavy_scipy_module(tmp_path, tiny_runs):
    # a fresh interpreter runs one tiny config of every experiment but table1:
    # the calibrated transfers, the jump ensemble, the master equation, the
    # adiabatic cascade and the beamsplitter.  It loads OpenBLAS with one
    # thread, and has one thread still when every run (fig4's fork pool
    # included) is done
    report = _run_fresh([_argv(tmp_path, cfg) for cfg in tiny_runs
                         if cfg["experiment"] != "table1"])
    assert report["codes"] == [0] * (len(tiny_runs) - 1)
    assert "scipy.sparse" in report["loaded"]
    assert [m for m in HEAVY if m in report["loaded"]] == []
    assert (report["threads"], report["blas_threads"]) == ([1, 1], "1")


def test_a_preset_blas_thread_count_wins(tmp_path, tiny_runs):
    table1 = [_argv(tmp_path, cfg) for cfg in tiny_runs if cfg["experiment"] == "table1"]
    report = _run_fresh(table1, OPENBLAS_NUM_THREADS="2")
    # OpenBLAS starts no more threads than the process has CPUs
    assert (report["threads"][0], report["blas_threads"]) == (
        min(2, len(os.sched_getaffinity(0))), "2")


def _scipy_imports(path: Path) -> set[str]:
    """The scipy modules a source file imports, at any depth of its code."""
    return set().union(*map(_scipy_modules, ast.walk(_tree(path))))


def _scipy_imports_on_load(path: Path) -> set[str]:
    """The scipy modules a source file imports when it is itself imported: outside
    every function body, and outside the `if TYPE_CHECKING:` blocks that only a
    type checker reads."""
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            children = node.orelse
        else:
            found.update(_scipy_modules(node))
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(_tree(path))
    return found


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _scipy_modules(node: ast.AST) -> set[str]:
    """The scipy modules an import statement imports; none for any other node."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names if _is_scipy(alias.name)}
    if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_scipy(node.module):
        # `from scipy import linalg` imports a module, `from scipy.sparse import csr_matrix` not
        return {node.module} | {f"{node.module}.{alias.name}" for alias in node.names
                                if importlib.util.find_spec(f"{node.module}.{alias.name}")}
    return set()


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def test_package_imports_no_scipy_module_but_sparse():
    # a static guard: an import inside a function, which no run happens to
    # call, is seen as well
    found = {path.name: _scipy_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods - {"scipy.sparse"}} == {}
    assert found["fock.py"] == {"scipy.sparse"}


def test_package_imports_scipy_only_inside_functions():
    # importing a module loads no scipy: the functions that build or combine
    # a sparse matrix import scipy.sparse when they first run
    found = {path.name: _scipy_imports_on_load(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}
    # the scan is not blind: timedep's functions and its TYPE_CHECKING block import it
    assert _scipy_imports(PACKAGE / "timedep.py") == {"scipy.sparse"}


def _private_imports(path: Path) -> list[str]:
    """The underscore names a source file imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "motlight"):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_package_imports_no_private_name_across_modules():
    # a module's underscore names are its own; dunders such as __version__ are public
    found = {path.name: _private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
