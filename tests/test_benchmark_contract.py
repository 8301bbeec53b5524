"""The names and result fields that the benchmark under perfbench/ relies on.

perfbench/layertrace.py wraps functions by (module, name), perfbench/run.py
reads a few result fields, and run.py and perfbench/selftest.py read
attributes off the imported package; a deletion in the package that breaks
any of them should fail here, not only when the benchmark runs.  The
benchmark files are parsed, not imported, so nothing under perfbench/ is
executed or written.
"""

import argparse
import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

import quadmap
from quadmap import solvers, verify
from quadmap.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def _literal(name):
    """The literal value assigned to a module-level name in layertrace.py."""
    tree = ast.parse(LAYERTRACE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {LAYERTRACE}")


@pytest.mark.parametrize("module", _literal("MODULES"))
def test_traced_modules_import(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module, name, coarse", _literal("TARGETS"),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_trace_targets_resolve(module, name, coarse):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, name", _literal("VALIDATED_CLASSES"))
def test_validated_classes_define_post_init(module, name):
    # the tracer wraps __post_init__ on the class itself
    cls = getattr(importlib.import_module(module), name)
    assert "__post_init__" in cls.__dict__


def test_generic_convergence_has_int_samples_default():
    # run.py's verify workload reads it as the orbits per battery
    default = inspect.signature(
        verify.check_generic_convergence).parameters["samples"].default
    assert type(default) is int


def test_verify_checks_are_the_benchmark_metrics():
    # a --trace run emits verify.<check>.s per entry of CHECKS, and the
    # benchmark self-test fails on a metric BENCHMARK.json does not name
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    named = {m["name"] for m in spec["per_layer"] if m["name"].startswith("verify.")}
    assert named == {f"verify.{check.__name__}.s" for check in verify.CHECKS}


def test_solver_iterations_are_ints():
    # the tracer adds these up as counts
    assert type(solvers.solve_trapezoid_fixed_point().attracting.iterations) is int
    assert type(solvers.solve_cycle_system().iterations) is int


SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def _command(node):
    """The subcommand an ast list literal starts with, or None."""
    first = node.elts[0] if node.elts else None
    if isinstance(first, ast.Constant) and first.value in SUBCOMMANDS:
        return first.value
    return None


def _words(node):
    return [e.value for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def _benchmark_argvs():
    """The constant strings of each argv list literal in perfbench/run.py.

    A list that starts with a subcommand is an argv.  A list appended to a
    name (``argv += [...]``) extends the argv last assigned to that name in
    the same function, and is returned with that subcommand in front.
    """
    argvs = {}   # keyed by list node: a nested function is walked twice
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        assigned = {}
        for node in ast.walk(func):
            if isinstance(node, ast.List) and _command(node):
                argvs[node] = _words(node)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List) \
                    and _command(node.value) and isinstance(node.targets[0], ast.Name):
                assigned[node.targets[0].id] = _command(node.value)
            elif isinstance(node, ast.AugAssign) and isinstance(node.value, ast.List) \
                    and getattr(node.target, "id", None) in assigned:
                argvs[node.value] = [assigned[node.target.id], *_words(node.value)]
    return list(argvs.values())


def test_benchmark_argvs_are_found():
    # eleven commands in run.py, plus the --max-iter appended to basin's
    assert len(_benchmark_argvs()) == 12


@pytest.mark.parametrize("words", _benchmark_argvs(), ids=" ".join)
def test_benchmark_argvs_parse(words):
    # a CLI deletion the benchmark still uses fails here, not only in a run
    command, *rest = words
    sub = SUBCOMMANDS[command]
    for word in rest:
        if word.startswith("--"):
            assert word in sub._option_string_actions, (command, word)
    if command == "solve":
        target = next(a for a in sub._actions if a.dest == "target")
        assert rest[0] in target.choices


# the names the benchmark holds the imported package under
PACKAGE_ROOTS = ("qm.", "self.qm.", "wl.qm.")


def _package_chains():
    """Every attribute chain read off the package in run.py and selftest.py,
    with its root dropped: ("core", "EdgeTuple") for ``self.qm.core.EdgeTuple``.
    A chain through a call, such as ``qm.f(x).y``, yields only ``qm.f``."""
    chains = set()
    for name in ("run.py", "selftest.py"):
        for node in ast.walk(ast.parse((PERFBENCH / name).read_text())):
            text = ast.unparse(node) if isinstance(node, ast.Attribute) else ""
            for root in PACKAGE_ROOTS:
                rest = text[len(root):]
                if text.startswith(root) and rest.replace(".", "").isidentifier():
                    chains.add(tuple(rest.split(".")))
    return sorted(chains)


def test_package_chains_are_found():
    # the self-test's mutation and the cli workload's expected outputs
    assert {("core", "degenerate_edges_first"), ("core", "EdgeTuple"),
            ("dynamics", "GENERAL_CYCLE_ANGLES", "as_tuple"),
            ("verify", "check_generic_convergence")} <= set(_package_chains())


@pytest.mark.parametrize("chain", _package_chains(), ids=".".join)
def test_package_chains_resolve(chain):
    # run.import_quadmap returns the package after importing quadmap.cli, as
    # this file does; a rename the benchmark still uses fails here, not in a run
    obj = quadmap
    for name in chain:
        obj = getattr(obj, name)
