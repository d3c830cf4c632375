"""The import budget of a run: `simulate` loads numpy and scipy.sparse, nothing heavier.

The package's modules import no private name from one another either.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import motlight

PACKAGE = Path(motlight.__file__).resolve().parent
# scipy modules no run needs; importing them would add 0.3 s or more to every run's start-up
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse.linalg", "scipy.stats")

SCRIPT = """
import json, os, sys
from pathlib import Path
from motlight import cli


def threads():
    return next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith("Threads:"))


imported = threads()
out = Path(sys.argv[1])
codes = []
for cfg in json.loads(sys.argv[2]):
    path = out / (cfg["experiment"] + ".config.json")
    path.write_text(json.dumps(cfg))
    codes.append(cli.main([cfg["experiment"], "--config", str(path), "--out", str(out)]))
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules), "threads": [imported, threads()],
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _run_fresh(tmp_path, runs, **env_vars) -> dict:
    """Run the configs in a fresh interpreter, without this process's
    OPENBLAS_NUM_THREADS (importing motlight set it here), plus env_vars."""
    src = str(Path(motlight.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * len(runs)
    return report


def test_runs_load_no_heavy_scipy_module(tmp_path, tiny_runs):
    # a fresh interpreter imports the CLI and runs one tiny config of every
    # experiment: the squeeze, the calibrated transfers, the jump ensemble,
    # the master equation, the adiabatic cascade and the beamsplitter.  It
    # loads OpenBLAS with one thread, and has one thread still when every
    # run (fig4's fork pool included) is done
    report = _run_fresh(tmp_path, tiny_runs)
    assert [m for m in HEAVY if m in report["loaded"]] == []
    assert "scipy.sparse" in report["loaded"]
    assert (report["threads"], report["blas_threads"]) == ([1, 1], "1")


def test_a_preset_blas_thread_count_wins(tmp_path, tiny_runs):
    table1 = [cfg for cfg in tiny_runs if cfg["experiment"] == "table1"]
    report = _run_fresh(tmp_path, table1, OPENBLAS_NUM_THREADS="2")
    # OpenBLAS starts no more threads than the process has CPUs
    assert (report["threads"][0], report["blas_threads"]) == (
        min(2, len(os.sched_getaffinity(0))), "2")


def _scipy_imports(path: Path) -> set[str]:
    """The scipy modules a source file imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if _is_scipy(alias.name)}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_scipy(node.module):
            found.add(node.module)
            # `from scipy import linalg` imports a module, `from scipy.sparse import csr_matrix` not
            found |= {f"{node.module}.{alias.name}" for alias in node.names
                      if importlib.util.find_spec(f"{node.module}.{alias.name}") is not None}
    return found


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def test_package_imports_no_scipy_module_but_sparse():
    # a static guard: an import inside a function, which no run happens to
    # call, is seen as well
    found = {path.name: _scipy_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods - {"scipy.sparse"}} == {}
    assert found["fock.py"] == {"scipy.sparse"}


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
