"""Guards on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "marked_bases"


def test_no_assert_statements():
    """The kernel's self-checks raise `InternalError` so that they also run
    under ``python -O``, which drops every ``assert`` statement."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
