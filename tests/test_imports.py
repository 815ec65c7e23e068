"""The package's import graph.

Claims covered:
    - no function of ``rootspin`` imports a sibling module (a lazy import
      of a third-party module such as numpy is allowed)
    - the module-level relative imports form an acyclic graph
    - no module reads an underscore-named attribute of a sibling module,
      as ``module._name`` or by ``from .module import _name``
    - in a fresh interpreter, ``import rootspin.cli`` and the CLI jobs of
      every benchmark workload (``oracle``, ``analyze`` on a catalogue and
      a lattice rank, a brute-force and a meet-in-the-middle ``count`` and
      ``table``) load numpy and click but not ``fractions``, ``decimal``,
      ``dataclasses``, ``copy`` or ``locale``: the value classes are
      written out in the source, not generated at import, and the CLI's
      ``--help`` and ``--version`` options carry their texts, which click
      would look up through ``gettext``, which imports ``locale``
    - no module names ``dataclass``, ``namedtuple``, ``NamedTuple`` or
      ``exec``, which build code when the module is imported
    - each error text of the sparse-row rule occurs once in the package, in
      ``rootsys``, whose ``check_row`` is the rule's one copy
    - ``sigsum`` alone calls ``choose_engine`` and
      ``exists_strong_dependence``: the CLI reports ``sigsum.analyze``
    - the ambient dimension is budgeted in ``rootsys`` alone: its error
      text occurs once, there, no other module passes an ``ambient_dim`` to
      ``check_budget``, and no module names ``check_row_sum``
    - each value is one public class: every subclass of ``rootsys.Record``
      that a module of the package defines is named in ``rootspin.__all__``,
      and no class of the package subclasses ``RootSystem``
    - ``positive_roots`` is the one maker of named systems: only it and
      ``as_system`` call ``RootSystem.__new__``, and no other code writes
      an ``id`` but None into an object's ``__dict__``
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import rootspin
from rootspin import rootsys

PACKAGE = Path(rootspin.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _siblings(node) -> set[str]:
    """The ``rootspin`` modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            base = "rootspin" + ("." + base if base else "")
        names = [base] if base != "rootspin" else [f"rootspin.{a.name}" for a in node.names]
    else:
        return set()
    return {name.split(".")[1] for name in names if name.startswith("rootspin.")}


def test_no_function_imports_a_sibling_module():
    lazy = [
        f"{name}.py:{node.lineno} {fn.name}"
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _siblings(node)
    ]
    assert not lazy


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree) -> list[str]:
    """The underscore names a module reads from its sibling modules."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is None and node.level == 1
        for alias in node.names
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                reads.append(f"{node.lineno} {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module and _siblings(node):
            reads += [f"{node.lineno} {a.name}" for a in node.names if _private(a.name)]
    return reads


def test_no_module_reads_a_private_name_of_a_sibling():
    reads = [f"{name}.py:{read}" for name, tree in MODULES.items() for read in _private_reads(tree)]
    assert not reads


def test_module_level_imports_are_acyclic():
    graph = {
        name: {dep for node in ast.walk(tree) for dep in _siblings(node)} & MODULES.keys()
        for name, tree in MODULES.items()
    }
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, " -> ".join([*path, name])
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, [*path, name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])


def _names(node) -> list[str]:
    """The names a node reads, imports or imports from, module paths split."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        paths = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
        return [part for path in paths for part in path.split(".")]
    return []


def test_no_module_generates_code():
    generators = {"dataclass", "dataclasses", "namedtuple", "NamedTuple", "exec"}
    found = [
        f"{name}.py:{node.lineno} {word}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        for word in _names(node)
        if word in generators
    ]
    assert not found


ROW_RULE_TEXTS = ("sparse row entries must be integers", "sparse rows need distinct coordinates",
                  "a sparse row entry is not a pair")


def _holders(text: str) -> list[str]:
    """Where a string constant of the package holds ``text``."""
    return [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and text in node.value]


def test_one_module_holds_the_row_rule():
    # hnf kept its own copy of the checks that RootSystem now makes
    holders = {text: _holders(text) for text in ROW_RULE_TEXTS}
    assert all(len(found) == 1 and found[0].startswith("rootsys.py:")
               for found in holders.values()), holders


def test_one_module_runs_the_analysis():
    # cli.build_report chose the engine and proved existence itself, so a
    # library caller could not get the CLI's answer
    callers = [f"{name}.py:{node.lineno} {word}" for name, tree in MODULES.items()
               if name != "sigsum" for node in ast.walk(tree) if isinstance(node, ast.Call)
               for word in _names(node.func)
               if word in ("choose_engine", "exists_strong_dependence")]
    assert not callers


def test_one_module_budgets_the_ambient_dimension():
    # obstruction_2L, signed_sum, verify_report and invariant_dimension each
    # called check_row_sum first; format_root_list and cartan_act did not
    holders = _holders("a row sum in dimension")
    named = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if "check_row_sum" in [*_names(node), getattr(node, "name", None)]]
    by_ambient = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items() if name != "rootsys"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "check_budget" in _names(node.func)
        and any(isinstance(n, ast.Attribute) and n.attr == "ambient_dim" for n in ast.walk(node))
    ]
    assert len(holders) == 1 and holders[0].startswith("rootsys.py:"), holders
    assert not named and not by_ambient, (named, by_ambient)


def _subclasses(cls) -> list[type]:
    """Every class below ``cls`` that a module of the package defines."""
    for name in MODULES.keys() - {"__init__"}:
        importlib.import_module(f"rootspin.{name}")
    below, found = [cls], []
    while below:
        for sub in below.pop().__subclasses__():
            below.append(sub)
            if sub.__module__.startswith("rootspin."):
                found.append(sub)
    return found


def test_one_public_class_per_value():
    # rootsys._MatrixSystem restated RootSystem for bare matrices, and
    # cli._Blocks restated a certificate's blocks
    records = [f"{c.__module__}.{c.__qualname__}" for c in _subclasses(rootsys.Record)
               if c.__name__ not in rootspin.__all__]
    systems = [f"{c.__module__}.{c.__qualname__}" for c in _subclasses(rootsys.RootSystem)]
    assert not records and not systems, (records, systems)


def _scoped_nodes():
    """``(where, node)`` for every node of the package, ``where`` the module
    and the top-level function or class that holds the node."""
    for name, tree in MODULES.items():
        for top in tree.body:
            for node in ast.walk(top):
                yield f"{name}.{getattr(top, 'name', '')}", node


def _id_writes(node) -> list:
    """What a node may write as an object's ``id`` through ``__dict__``:
    the ``id`` keyword of an ``update``, any mapping it is passed, or the
    value of ``__dict__["id"] = ...``."""
    def is_dict(expr):
        return isinstance(expr, ast.Attribute) and expr.attr == "__dict__"

    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "update" and is_dict(node.func.value):
            return [kw.value for kw in node.keywords if kw.arg in ("id", None)] + node.args
    if isinstance(node, ast.Assign):
        return [node.value for t in node.targets
                if isinstance(t, ast.Subscript) and is_dict(t.value)
                and isinstance(t.slice, ast.Constant) and t.slice.value == "id"]
    return []


def test_only_positive_roots_names_a_system():
    # RootSystem(id, rows, ambient_dim, denominator) took any FamilyRank
    # with any rows, so D4's id with A2's rows made count blame the program
    makers = {where for where, node in _scoped_nodes()
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__" and "RootSystem" in _names(node.func.value)}
    namers = {where for where, node in _scoped_nodes() for value in _id_writes(node)
              if not (isinstance(value, ast.Constant) and value.value is None)}
    assert makers <= {"rootsys.positive_roots", "rootsys.as_system"}, makers
    assert namers == {"rootsys.positive_roots"}, namers


# Runs each command through ``cli.main`` in one process and prints, last,
# which of the watched modules are loaded after the import and after each.
_JOBS_SCRIPT = """
import contextlib, io, json, sys
import rootspin.cli

watched = ("fractions", "decimal", "dataclasses", "copy", "locale", "numpy", "click")
loaded = [[m for m in watched if m in sys.modules]]
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rootspin.cli.main(args)
        except SystemExit as exit:
            assert not exit.code, (args, exit.code)
    loaded.append([m for m in watched if m in sys.modules])
print(json.dumps(loaded))
"""


def test_cli_jobs_load_no_fractions():
    jobs = [["oracle", "D", "4"], ["analyze", "E", "6", "--json"], ["analyze", "D", "56", "--json"],
            ["count", "D", "6", "--method", "brute", "--max-r", "30", "--json"],
            ["count", "E", "6", "--method", "mitm", "--json"], ["table", "--json"]]
    result = subprocess.run(
        [sys.executable, "-c", _JOBS_SCRIPT, json.dumps(jobs)],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == [["numpy", "click"]] * (1 + len(jobs))
