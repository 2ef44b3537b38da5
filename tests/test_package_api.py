"""The package keeps only code its own modules use: test-only API lives under ``tests/``.

Every top-level public function and class of ``src/linfty`` must be used by
package code: by module-level code, by a private helper, or by another public
definition that is itself used (so a chain of definitions only the tests call
counts as unused as a whole).  Re-exports in ``__init__.py`` are no use.  The
few exceptions are listed in ``ALLOWED`` with the reason each is kept.

Every public method and property of a package class (dunders aside) must be
read as an attribute somewhere in the package outside its own body.  Types
are not tracked, so a name that some other object's attribute shares counts
as used.  Every name a module imports must be read in that module.
"""
import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linfty"

ALLOWED = {
    # wrapped by perfbench/tracing.py, which fails to install without them
    "valgebra.derived_bracket",
    "applications.simultaneous_homomorphism",
    "linalg.rref",
    "linalg.rank",
    "linalg.nullspace",
    "linalg.quotient_representatives",
}


def _uses(node: ast.AST, module: str, own: set[str], imported: dict[str, str], modules: dict[str, str]) -> set[str]:
    """``module.name`` of every package definition the node refers to."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id in own:
                out.add(f"{module}.{n.id}")
            elif n.id in imported:
                out.add(imported[n.id])
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            out.add(f"{modules[n.value.id]}.{n.attr}")
    return out


def unused_definitions() -> set[str]:
    public: dict[str, set[str]] = {}  # definition -> what its body uses
    roots: set[str] = set()  # what module-level code and private helpers use
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text())
        own = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        imported, modules = {}, {}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for alias in n.names:
                    if n.module:  # from .algebroid import build_xq
                        imported[alias.asname or alias.name] = f"{n.module}.{alias.name}"
                    else:  # from . import linalg
                        modules[alias.asname or alias.name] = alias.name
        for node in tree.body:
            uses = _uses(node, module, own, imported, modules)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public[f"{module}.{node.name}"] = uses
            else:
                roots |= uses
    live = set(public)
    while True:
        used = roots.union(*(public[d] - {d} for d in live))
        dead = {d for d in live if d not in used and d not in ALLOWED}
        if not dead:
            return set(public) - live
        live -= dead


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unused_methods() -> set[str]:
    """``module.Class.name`` of every public method or property no package code reads outside its own body."""
    reads: Counter = Counter()
    methods = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += _attribute_reads(tree)
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    methods.append((f"{path.stem}.{cls.name}.{node.name}", node))
    return {name for name, node in methods if reads[node.name] == _attribute_reads(node)[node.name]}


def test_every_public_definition_is_used_by_the_package():
    assert unused_definitions() == set()


def test_every_public_method_is_used_by_the_package():
    assert unused_methods() == set()


def test_allowed_names_exist_and_have_their_reason():
    tracing = (ROOT / "perfbench" / "tracing.py").read_text()
    readme = (ROOT / "README.md").read_text()
    for name in ALLOWED:
        module, attr = name.split(".")
        assert f"def {attr}(" in (PACKAGE / f"{module}.py").read_text(), name
        assert name in tracing or f"`{attr}`" in readme, name


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside quoted annotations, such as ``-> "SectionCalculus"``."""
    notes = [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    notes += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    quoted = [c.value for note in notes if note is not None for c in ast.walk(note)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return {n.id for text in quoted for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_imported_name_is_used(module):
    """An import no code of its module reads is dead, and each cold set-up compiles and runs it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import importlib.util binds importlib
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    assert sorted(imported - used) == []


def test_package_binds_only_its_version():
    """Every import names its module (``from linfty.cli import run_command``): the package itself re-exports nothing."""
    script = "import json, linfty; print(json.dumps(sorted(n for n in vars(linfty) if not n.startswith('_'))))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert "__version__ = " in (PACKAGE / "__init__.py").read_text()


def test_cold_cli_import_skips_dataclasses_and_inspect():
    """Every CLI run pays this import; ``dataclasses`` alone would add ``inspect`` to it."""
    script = (
        "import json, sys; before = set(sys.modules); import linfty.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "linfty.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added & {"dataclasses", "inspect"})
