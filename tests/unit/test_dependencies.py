"""Import audit: the package imports only what ``pyproject.toml`` declares.

An import that runs when a module loads must name a standard-library
module, ``repro`` itself, or a required dependency.  An import deferred into
a function (or guarded by ``TYPE_CHECKING``) may also name an optional extra.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _distribution(requirement: str) -> str:
    """The import name a requirement string provides (``numpy>=1.24`` → ``numpy``)."""
    return re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower().replace("-", "_")


def _declared() -> tuple[set[str], set[str]]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    required = {_distribution(r) for r in project.get("dependencies", [])}
    optional = {
        _distribution(r)
        for extra in project.get("optional-dependencies", {}).values()
        for r in extra
    }
    return required, optional


def _is_type_checking_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _imports(body, at_load: bool):
    """Yield ``(top-level module, line, runs at load)`` for every absolute import."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno, at_load
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno, at_load
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _imports(node.body, False)
        elif _is_type_checking_guard(node):
            yield from _imports(node.body, False)
            yield from _imports(node.orelse, at_load)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _imports(getattr(node, field, None) or [], at_load)


def test_every_third_party_import_is_declared():
    required, optional = _declared()
    undeclared = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, line, at_load in _imports(tree.body, True):
            if module in sys.stdlib_module_names or module == "repro":
                continue
            allowed = required if at_load else required | optional
            if module not in allowed:
                kind = "at load" if at_load else "deferred"
                undeclared.append(f"{path.relative_to(ROOT)}:{line}: {module} ({kind})")
    assert not undeclared, "imports missing from pyproject.toml:\n" + "\n".join(undeclared)


def test_audit_sees_load_time_and_deferred_imports():
    source = (
        "import numpy\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import networkx\n"
        "def f():\n    import scipy.sparse\n"
        "try:\n    import yaml\nexcept ImportError:\n    pass\n"
    )
    found = {(m, at_load) for m, _line, at_load in _imports(ast.parse(source).body, True)}
    assert found == {
        ("numpy", True),
        ("typing", True),
        ("networkx", False),
        ("scipy", False),
        ("yaml", True),
    }


def test_importing_the_package_does_not_load_optional_networkx():
    code = "import sys, repro; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert out.stdout.strip() == "False"
