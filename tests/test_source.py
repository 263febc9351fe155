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


def test_every_exported_name_resolves():
    missing = [name for name in nualign.__all__ if not hasattr(nualign, name)]
    assert not missing, f"nualign.__all__ names missing from the package: {missing}"
    assert len(set(nualign.__all__)) == len(nualign.__all__)
