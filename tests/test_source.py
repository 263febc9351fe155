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


#: order queries the package no longer has: the closed-pair listing, the
#: antichain and interval queries, and a region's antichain bounds
REMOVED_ORDER_API = {"closed_pairs", "is_antichain", "_check_antichain", "incomparable",
                     "minimum", "maximum", "interval", "intervals", "bounds"}


def _defined_or_read(node):
    """The name a method or field definition defines, or an attribute
    read reads; None for any other node."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def test_orders_pass_through_rows_not_closed_pairs():
    # an order is its reachability rows and a realignment region one set
    # of moves: the package neither defines nor reads the removed order
    # queries (the closed-pair listing lives in tests/support/orders.py),
    # and the stored relation and its closure/reduction methods stay gone
    named = []
    gone = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        named += [f"{path.name}:{node.lineno} {_defined_or_read(node)}"
                  for node in ast.walk(tree) if _defined_or_read(node) in REMOVED_ORDER_API]
        gone += [f"{path.name}: {name}" for name in re.findall(
            r"\b(?:transitive_closure|transitive_reduction|is_closed|_succ_raw)\b", text)]
    assert not named, f"removed order queries in the package: {named}"
    assert not gone, f"removed order representations named in the package: {gone}"


#: public entry points that no module of the package calls
ENTRY_POINTS = {
    "cli.main", "report.load_report", "report.report_to_alignment",
    "approx.OrderSolution.violating",       # the paper's violation decision
}


def _used_names(node):
    """Names read inside ``node``: plain names and attribute names."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_package_holds_no_test_only_code():
    # every module-level function and class, and every method of a class
    # but the dunders, runs in the package, is exported, or is an entry
    # point: reference code lives in tests/support
    uses = {}
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _used_names(tree):
            uses[name] = uses.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{method.name}", method)
                            for method in node.body
                            if isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("__")]
    unused = [qualified for qualified, node in defined
              if uses.get(node.name, 0) == _used_names(node).count(node.name)
              and node.name not in nualign.__all__
              and qualified not in ENTRY_POINTS]
    assert not unused, f"package code that only tests use: {unused}"


def test_order_program_reads_orders_as_rows():
    # the order program holds every order as reachability rows: approx.py
    # neither calls nor reads ``precedes`` and builds no square list of
    # lists, one comprehension inside another over the same range (dense
    # references live in tests/support/oracles.py)
    path = PACKAGE / "approx.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [f"approx.py:{node.lineno}" for node in ast.walk(tree)
             if (node.attr if isinstance(node, ast.Attribute)
                 else node.id if isinstance(node, ast.Name) else None) == "precedes"]
    dense = [f"approx.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.ListComp) and isinstance(node.elt, ast.ListComp)
             and ast.dump(node.generators[0].iter)
             == ast.dump(node.elt.generators[0].iter)]
    assert not reads, f"approx.py reads an order through precedes: {reads}"
    assert not dense, f"approx.py builds a square list of lists: {dense}"


#: the per-token forms of a firing's effect that ``align.token_use`` replaced
REMOVED_TOKEN_FORMS = {"PseudoMarking", "move_effects", "transition_indices",
                       "_claims_and_releases", "_pseudo_to_marking", "_without_cases"}

#: the only functions that bind arc inscriptions through ``firing_effect``
FIRING_EFFECT_CALLERS = {"token_use", "_StateSpace.fire", "fire_mode", "involved_resources"}


def _named(node):
    """The name a definition, import, name or attribute node carries; None
    for any other node."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.asname or node.name
    if isinstance(node, ast.Name):
        return node.id
    return _defined_or_read(node)


def _callers(tree, callee):
    """The dotted scopes (``Class.method``, ``function``) that call ``callee``
    by name or attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _named(child.func) == callee:
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_firing_effects_pass_through_one_token_table():
    # what a move takes and gives back per token is derived once, by
    # ``align.token_use``: the package neither defines nor reads the forms
    # it replaced, and besides it only the search's firings, ``fire_mode``
    # and ``involved_resources`` bind inscriptions through ``firing_effect``
    named = []
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named += [f"{path.name}:{getattr(node, 'lineno', '?')} {_named(node)}"
                  for node in ast.walk(tree) if _named(node) in REMOVED_TOKEN_FORMS]
        callers.update(_callers(tree, "firing_effect"))
    assert not named, f"removed per-token forms in the package: {named}"
    assert "token_use" in callers
    assert callers <= FIRING_EFFECT_CALLERS, (
        f"firing_effect called outside {sorted(FIRING_EFFECT_CALLERS)}: "
        f"{sorted(callers - FIRING_EFFECT_CALLERS)}")
