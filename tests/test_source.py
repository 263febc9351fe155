"""Source-level rules for the package itself."""

import argparse
import ast
import re
from pathlib import Path

import nualign
from nualign.cli import build_parser

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


def _subcommand_options():
    """Long options per ``nualign`` subcommand, ``--help`` left out."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {opt for action in p._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, p in sub.choices.items()
    }


def test_readme_cli_section_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    flag = r"--[a-z][a-z-]*"
    options = _subcommand_options()
    documented = set(re.findall(flag, readme))
    undocumented = sorted(f"{name} {opt}" for name, opts in options.items()
                          for opt in opts - documented)
    assert not undocumented, f"options missing from README.md: {undocumented}"
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    stale = sorted(set(re.findall(flag, section)) - set().union(*options.values()))
    assert not stale, f"README's CLI section names options no subcommand has: {stale}"


def test_orders_pass_through_rows_not_closed_pairs():
    # an order is its reachability rows: only the poset itself lists its
    # closed pairs (the report writes the closed order straight from the
    # rows), and the stored relation and its closure/reduction methods stay
    # gone
    calls = []
    gone = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        if path.name != "poset.py":
            calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "closed_pairs"]
        gone += [f"{path.name}: {name}" for name in re.findall(
            r"\b(?:transitive_closure|transitive_reduction|is_closed|_succ_raw)\b", text)]
    assert not calls, f"closed_pairs() calls outside poset: {calls}"
    assert not gone, f"removed order representations named in the package: {gone}"


#: public entry points that no module of the package calls
ENTRY_POINTS = {"cli.main", "report.load_report", "report.report_to_alignment"}


def _used_names(node):
    """Names read inside ``node``: plain names and attribute names."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_package_holds_no_test_only_code():
    # every module-level function and class runs in the package, is
    # exported, or is an entry point: reference code lives in tests/support
    uses = {}
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _used_names(tree):
            uses[name] = uses.get(name, 0) + 1
        defined += [(path.stem, node) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [f"{module}.{node.name}" for module, node in defined
              if uses.get(node.name, 0) == _used_names(node).count(node.name)
              and node.name not in nualign.__all__
              and f"{module}.{node.name}" not in ENTRY_POINTS]
    assert not unused, f"package code that only tests use: {unused}"
