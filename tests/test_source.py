"""Source-level rules for the package itself."""

import argparse
import ast
import inspect
import re
import sys
from dataclasses import fields
from pathlib import Path

import nualign
import nualign.align
from nualign.approx import OrderSolution
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
    "cli.main", "report.report_to_alignment",
    "approx.OrderSolution.violating",       # the paper's violation decision
    "approx.ApproxResult.cost",             # README's approximate_alignment example
    "eventlog.EventLog.precedes",           # README's log order
}

#: attributes of builtin values, which a read through a receiver of unknown
#: class may mean instead of a package method of the same name
BUILTIN_ATTRIBUTES = set().union(*map(dir, (list, dict, set, tuple, str, int, float, bytes)))


def _used_names(node):
    """Names read inside ``node``: plain names and attribute names."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


class _MethodReads:
    """Per package method, keyed on its owning class, the reads outside
    its own body that may reach it.

    A read ``x.m`` reaches the class of ``x`` where annotations and
    constructors tell it: ``self``, a class name, an annotated parameter,
    a local assigned a typed value, a field annotated or assigned a typed
    value in ``__init__``, a call of a class, a classmethod or anything
    with a return annotation; a class without ``m`` passes the read to its
    base.  A read through an unknown receiver reaches ``m``'s one owning
    class, unless another class has an attribute ``m`` or a builtin value
    has one.
    """

    def __init__(self, trees):
        self.classes = {node.name: node for tree in trees for node in tree.body
                        if isinstance(node, ast.ClassDef)}
        self.functions = {node.name: node for tree in trees for node in tree.body
                          if isinstance(node, ast.FunctionDef)}
        self.bases = {c: [b.id for b in node.bases if getattr(b, "id", None) in self.classes]
                      for c, node in self.classes.items()}
        self.types = {}     # (class, attribute) -> package class of its value
        self.owners = {}    # attribute -> classes with a method or field of that name
        inits = []
        for c, node in self.classes.items():
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    self._own(c, item.target.id, self._annotated(item.annotation))
                elif isinstance(item, ast.FunctionDef):
                    classmethod = any(getattr(d, "id", None) == "classmethod"
                                      for d in item.decorator_list)
                    self._own(c, item.name, c if classmethod else self._annotated(item.returns))
                    if item.name == "__init__":
                        inits.append((c, item))
        for c, init in inits:
            local = self._parameters(init, {})
            for sub in ast.walk(init):
                for target in sub.targets if isinstance(sub, ast.Assign) else ():
                    if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
                        self._own(c, target.attr, self._class_of(sub.value, c, local))
        self.reads = {}     # (class, method) -> reads
        for tree in trees:
            self._visit(tree, None, None, {})

    def _own(self, c, attribute, value_class):
        self.owners.setdefault(attribute, set()).add(c)
        self.types[c, attribute] = self.types.get((c, attribute)) or value_class

    def _annotated(self, node):
        """The package class an annotation names (``X``, ``"X"``, ``X | None``)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp):
            node = node.left
        return node.id if isinstance(node, ast.Name) and node.id in self.classes else None

    def _parameters(self, function, outer):
        local = dict(outer)
        local.update((a.arg, self._annotated(a.annotation)) for a in function.args.args)
        return local

    def _defining(self, c, attribute):
        """``c`` or the nearest base of it that defines ``attribute``."""
        while c is not None and (c, attribute) not in self.types:
            c = next(iter(self.bases[c]), None)
        return c

    def _class_of(self, node, cls, local):
        if isinstance(node, ast.Name):
            return cls if node.id == "self" else (
                node.id if node.id in self.classes else local.get(node.id))
        if isinstance(node, ast.IfExp):
            return self._class_of(node.body, cls, local) or self._class_of(node.orelse, cls, local)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in self.functions:
                return self._annotated(self.functions[node.func.id].returns)
            node = node.func
            if isinstance(node, ast.Name):
                return self._class_of(node, cls, local)
        if isinstance(node, ast.Attribute):
            owner = self._defining(self._class_of(node.value, cls, local), node.attr)
            return self.types.get((owner, node.attr))
        return None

    def _visit(self, node, cls, method, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, child.name, None, {})
                continue
            if isinstance(child, ast.FunctionDef):
                inner = (cls, child.name) if method is None and cls else method
                self._visit(child, cls, inner, self._parameters(child, local))
                continue
            if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                    and isinstance(child.targets[0], ast.Name):
                local[child.targets[0].id] = self._class_of(child.value, cls, local)
            if isinstance(child, ast.Attribute) and child.attr in self.owners:
                owner = self._class_of(child.value, cls, local)
                if owner is not None:
                    reached = {self._defining(owner, child.attr)} - {None}
                elif child.attr in BUILTIN_ATTRIBUTES or len(self.owners[child.attr]) > 1:
                    reached = set()
                else:
                    reached = set(self.owners[child.attr])
                if method is not None and method[1] == child.attr:
                    reached.discard(method[0])      # a method reading itself
                for c in reached:
                    self.reads[c, child.attr] = self.reads.get((c, child.attr), 0) + 1
            self._visit(child, cls, method, local)


def test_package_holds_no_test_only_code():
    # every module-level function and class, and every method of a class
    # but the dunders, runs in the package, is exported, or is an entry
    # point: reference code lives in tests/support.  A function or class
    # runs when its name is read outside its own body, a method when a
    # read that may reach its class does (``_MethodReads``)
    trees = {}
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        trees[path.stem] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _used_names(trees[path.stem]):
            uses[name] = uses.get(name, 0) + 1
    reads = _MethodReads(list(trees.values())).reads
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if uses.get(node.name, 0) == _used_names(node).count(node.name):
                unused.append((f"{stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                unused += [(f"{stem}.{node.name}.{method.name}", method.name)
                           for method in node.body if isinstance(method, ast.FunctionDef)
                           and not method.name.startswith("__")
                           and not reads.get((node.name, method.name))]
    unused = [qualified for qualified, name in unused
              if name not in nualign.__all__ and qualified not in ENTRY_POINTS]
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
FIRING_EFFECT_CALLERS = {"token_use", "_StateSpace.effect", "fire_mode", "involved_resources"}


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


def test_effect_masks_are_grouped_in_one_place():
    # a token's moves grouped by net effect, which validity, the capacity
    # rows and the realignment boundaries sum by popcounts, come from
    # ``align.effect_masks`` alone, and no module passes the grouping on
    callers = []
    passed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [f"{path.stem}.{scope}" for scope in _callers(tree, "masks_by_value")]
        passed += sum(isinstance(node, (ast.Name, ast.Attribute))
                      and _named(node) == "masks_by_value" for node in ast.walk(tree))
    assert callers == ["align.effect_masks"] and passed == len(callers), (callers, passed)


#: what the product's ``moves`` records replaced: the per-transition kind,
#: model transition and event dicts, their decoder and a second pricing
#: rule beside ``move_cost``, and the fresh-case scan ``case_names`` replaced
REMOVED_PRODUCT_FORMS = {"_decode_move", "product_move_cost", "move_kind",
                         "model_transition", "_fresh_is_case"}


def test_product_transitions_pass_through_their_move_records():
    # what a firing of a product transition makes is ``prod.moves[t]``,
    # priced by ``move_cost``: the package neither defines nor reads the
    # forms it replaced
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named += [f"{path.name}:{getattr(node, 'lineno', '?')} {_named(node)}"
                  for node in ast.walk(tree) if _named(node) in REMOVED_PRODUCT_FORMS]
    assert not named, f"removed product forms in the package: {named}"


#: private state, and the one class that reads it
PRIVATE_STATE = {"_tokens": "ColoredMarking", "_vars_cache": "ColoredNet",
                 "_reqs_cache": "ColoredNet"}


def test_markings_and_net_caches_are_read_by_their_own_class():
    # the mode matcher reads a marking by ``get`` and an arc's requirements
    # by ``ColoredNet.requirements``: no code outside a marking's or a net's
    # class reads its tokens or its caches
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                  and PRIVATE_STATE.get(node.attr) == cls.name}
        outside += [f"{path.name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in PRIVATE_STATE
                    and id(node) not in inside]
    assert not outside, f"private state read outside its class: {outside}"


#: the weighted order-program objective that the reversal cap alone replaced
REMOVED_OBJECTIVE_FORMS = {"REVERSAL_WEIGHT", "ADDITION_WEIGHT", "objective_value"}


def test_order_program_ranks_reversals_by_the_cap_alone():
    # the reversal cap puts fewer reversals first, so the objective counts
    # added pairs only: the package defines no weight separating the two,
    # no second evaluation of a leaf's value, and no weighted solution value
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named += [f"{path.name}:{getattr(node, 'lineno', '?')} {_named(node)}"
                  for node in ast.walk(tree) if _named(node) in REMOVED_OBJECTIVE_FORMS]
    assert not named, f"removed objective forms in the package: {named}"
    assert "objective" not in {f.name for f in fields(OrderSolution)}


#: the transitivity mechanisms that propagating the order in the solver
#: replaced: a lazy-row callback, its row builder and the leaf re-scan
REMOVED_TRANSITIVITY_FORMS = {"lazy_rows", "added_rows_hold", "lazy_transitivity"}


def test_order_programs_close_the_order_by_propagation_alone():
    # the solver keeps an order program (``BinaryProgram.order``) a strict
    # partial order by propagation: the package neither defines, passes nor
    # reads the forms it replaced, and builds no transitivity row
    named = []
    texts = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        named += [f"{path.name}:{getattr(node, 'lineno', '?')} {name}"
                  for node in ast.walk(tree)
                  for name in [node.arg if isinstance(node, ast.keyword) else _named(node)]
                  if name in REMOVED_TRANSITIVITY_FORMS]
        texts += [f"{path.name}:{n}" for n, line in enumerate(text.splitlines(), 1)
                  if "const_trans_clos" in line]
    assert not named, f"removed transitivity forms in the package: {named}"
    assert not texts, f"transitivity rows built in the package: {texts}"


#: the per-row bounds of the general engine that one slack per cover row
#: replaced (``oracles.ReferenceEngine`` keeps them)
REMOVED_ROW_BOUNDS = {"row_lo", "row_hi", "row_maxabs"}


def test_order_program_rows_keep_one_slack_each():
    # every row the solver takes is a cover, kept as one slack: the package
    # neither defines nor reads the general engine's row bounds
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named += [f"{path.name}:{getattr(node, 'lineno', '?')} {_named(node)}"
                  for node in ast.walk(tree) if _named(node) in REMOVED_ROW_BOUNDS]
    assert not named, f"removed row bounds in the package: {named}"


def _imported_modules(tree):
    """The top-level module of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    # the package is pure standard library: every import, at any depth, is
    # of a standard module or of the package itself
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign += [f"{path.name}: {name}" for name in _imported_modules(tree)
                    if name not in sys.stdlib_module_names and name != "nualign"]
    assert not foreign, f"imports outside the standard library: {foreign}"


def test_a_search_runs_its_product_from_the_products_markings():
    # the product is the whole search problem: only align.py writes the
    # product's place prefixes, and no ``_owned_places`` helper reads them;
    # ``optimal_alignment`` takes no other start or goal, and nets
    # between other markings are ``with_markings`` copies
    prefixed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        prefixed += [f"{path.name}: {name}" for name in re.findall(
            r"\b_owned_places\b" if path.name == "align.py"
            else r"\b[ml]::|\b_prefix_marking\b|\b_owned_places\b", text)]
    assert not prefixed, f"product place names outside the product: {prefixed}"
    parameters = inspect.signature(nualign.align.optimal_alignment).parameters
    assert not {"start", "goal"} & set(parameters), list(parameters)
    path = PACKAGE / "rcnu.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (scale,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "scale_cases"]
    called = {_named(node.func) for node in ast.walk(scale) if isinstance(node, ast.Call)}
    assert "with_markings" in called and "RcNuNet" not in called, sorted(called)


def _forward_searches(tree):
    """The dotted scopes of every ``while`` loop that pops a heap and makes
    the popped state's children (``successors`` or ``expand``)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.While):
                called = {_named(n.func) for n in ast.walk(child) if isinstance(n, ast.Call)}
                if "heappop" in called and called & {"successors", "expand"}:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


#: the single-case searches and tables, which run on case spaces
SINGLE_CASE_SCOPES = ("approx.align_cases", "align.case_spaces", "align.align_case",
                      "align._cost_to_go", "align.CaseHeuristic", "align.CaseSpace",
                      "align._ModelGraph")


def test_single_case_searches_build_no_product():
    # a case's search and its cost-to-go table run on its case space, which
    # builds neither a product nor a log net; a product's state space is
    # built only for whole-log and other product searches, and every
    # search, on a product or a case space, pops through one frontier loop
    built, spaces, searches = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for callee in ("build_sync_product", "build_log_net"):
            built += [f"{path.stem}.{scope}" for scope in _callers(tree, callee)]
        spaces += [f"{path.stem}.{scope}" for scope in _callers(tree, "_StateSpace")]
        searches += [f"{path.stem}.{scope}" for scope in _forward_searches(tree)]
    single = [scope for scope in built if scope.startswith(SINGLE_CASE_SCOPES)]
    assert not single, f"single-case code builds a product: {single}"
    assert "approx.realign_interval" in built
    assert sorted(spaces) == ["align.CaseHeuristic.__init__", "align.optimal_alignment"], spaces
    assert searches == ["align._search"], searches
