"""The package imports only its declared runtime dependencies.

scipy is a test dependency: it is the reference the simplex port is checked
against, and loading it would triple the start-up time of every command.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "contagion"


def names(requirements):
    """Distribution names of PEP 508 requirement strings."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in requirements}


def test_importing_the_cli_loads_no_scipy():
    code = ("import contagion, contagion.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_third_party_imports_are_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = names(project["dependencies"])
    assert "scipy" in names(project["optional-dependencies"]["test"]) - declared
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"contagion"} == declared
