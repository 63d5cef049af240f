"""Checks on the source tree itself."""
import ast
from pathlib import Path

import covest

SOURCES = sorted(Path(covest.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []
