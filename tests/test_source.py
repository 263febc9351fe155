"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import nualign

PACKAGE = Path(nualign.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # soundness conditions must raise real errors: ``python -O`` strips asserts
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert not found, f"assert statements in the package: {found}"
