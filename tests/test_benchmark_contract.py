"""The names and result fields that the benchmark under perfbench/ relies on.

perfbench/layertrace.py wraps functions by (module, name) and
perfbench/run.py reads a few result fields; a deletion in the package that
breaks either should fail here, not only when the benchmark runs.  The
benchmark files are parsed, not imported, so nothing under perfbench/ is
executed or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from quadmap import solvers, verify

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


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


def test_solver_iterations_are_ints():
    # the tracer adds these up as counts
    assert type(solvers.solve_trapezoid_fixed_point().attracting.iterations) is int
    assert type(solvers.solve_cycle_system().iterations) is int
