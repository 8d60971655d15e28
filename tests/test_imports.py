"""Source-level guards over the modules of src/prefixsim."""

import ast
from pathlib import Path

import prefixsim


def test_no_module_imports_fractions():
    # exact rational checks live in the tests (helpers.query_exact and
    # helpers.exact_total_mass); the package computes in integers and floats
    sources = sorted(Path(prefixsim.__file__).parent.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "fractions" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
