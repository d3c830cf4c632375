"""Every public name is read by the package, the acceptance gate or the benchmark.

A name in a module's `__all__` that only its own unit tests read is API that
no run uses; this test keeps such names from coming back.  A read is a use
of the name as a value or an attribute (a call, an annotation, `module.name`)
anywhere in `src/`, `tests/test_acceptance.py` or `bench/`, outside the
body of the name's own definition.  Imports and `__all__` entries are not
reads.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "motlight"
READERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "bench").glob("*.py"))]

# names kept although nothing above reads them, each with its reason
ALLOWED: dict[str, str] = {}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


class _Reads(ast.NodeVisitor):
    """Names read in one file, outside the top-level definition of the same name."""

    def __init__(self):
        self.names = set()
        self._inside = None

    def _definition(self, node):
        outer, self._inside = self._inside, (self._inside or node.name)
        self.generic_visit(node)
        self._inside = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name != self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.attr)
        self.generic_visit(node)


def _read_names() -> set[str]:
    names = set()
    for path in READERS:
        reads = _Reads()
        reads.visit(ast.parse(path.read_text(), filename=str(path)))
        names |= reads.names
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_read(module):
    mod = importlib.import_module("motlight" if module == "__init__" else f"motlight.{module}")
    reads = _read_names()
    unread = sorted(n for n in getattr(mod, "__all__", []) if n not in reads and n not in ALLOWED)
    assert not unread, f"motlight.{module} exports names that no run reads: {unread}"


def test_allowed_names_are_public_and_unread():
    # an entry that is read, or no longer public, has outlived its reason
    public = set()
    for module in MODULES:
        mod = importlib.import_module("motlight" if module == "__init__" else f"motlight.{module}")
        public |= set(getattr(mod, "__all__", []))
    reads = _read_names()
    assert all(n in public and n not in reads for n in ALLOWED)
