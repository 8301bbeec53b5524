"""Outside-in layer tracer for quadmap.

The tracer never edits the package.  `Tracer.install` replaces each traced
function in every quadmap module namespace that binds it (the same way a
test monkeypatches ``core.degenerate_edges_first``), swaps the wrapped
checks into ``verify.CHECKS``, and wraps ``AngleTuple``/``EdgeTuple``
``__post_init__`` on the classes.  `Tracer.uninstall` puts everything back.

Coarse boundaries (``cli.main``, each ``iterate``, each solver, each verify
check) get one span per call: id, root id, name, parent, start, end and self
time.  Hot leaf calls get no span; they are summed in memory under their
nearest coarse span (count, total time, child time), because per-call spans
would mean millions of records for a basin run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

MODULES = ("quadmap", "quadmap.core", "quadmap.dynamics", "quadmap.sampling",
           "quadmap.solvers", "quadmap.verify", "quadmap.cli")

# (defining module, function name, coarse?)
TARGETS = (
    ("quadmap.core", "balanced_edges", False),
    ("quadmap.core", "canonicalize", False),
    ("quadmap.core", "balanced_edges_oracle", False),
    ("quadmap.dynamics", "step", False),
    ("quadmap.dynamics", "iterate", True),
    ("quadmap.dynamics", "rotation_distance", False),
    ("quadmap.dynamics", "dihedral_distance", False),
    ("quadmap.sampling", "sample_angle_tuple", False),
    ("quadmap.sampling", "substream", False),
    ("quadmap.solvers", "solve_trapezoid_fixed_point", True),
    ("quadmap.solvers", "solve_cycle_system", True),
    ("quadmap.solvers", "cycle_system_rhs", False),
    ("quadmap.solvers", "fd_jacobian", False),
    ("quadmap.solvers", "eigenvalue_moduli_3x3", False),
    ("quadmap.solvers", "stability_report", True),
    ("quadmap.cli", "main", True),
    ("quadmap.cli", "fmt", False),
)

# both dataclass validators are counted as one layer, core.validate
VALIDATED_CLASSES = (("quadmap.core", "AngleTuple"), ("quadmap.core", "EdgeTuple"))


class _Frame:
    __slots__ = ("name", "span", "root", "child")

    def __init__(self, name, span, root):
        self.name = name
        self.span = span
        self.root = root
        self.child = 0.0


class _CountingGenerator:
    """A numpy Generator proxy that counts ``uniform`` draws for the accept ratio."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def uniform(self, *args, **kwargs):
        self._counts["sampling.draws"] += 1
        return self._gen.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans = []     # one dict per coarse call
        self.leaves = {}    # (coarse span id, name) -> [calls, total_s, child_s]
        self.stats = {}     # name -> [calls, total_s, child_s], over the whole run
        self.counts = Counter()
        self._stack = [_Frame("<root>", None, None)]
        self._next_id = 0
        self._saved = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, coarse, on_result=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if coarse:
                self._next_id += 1
                span = self._next_id
                frame = _Frame(name, span, parent.root or span)
            else:
                frame = _Frame(name, parent.span, parent.root)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent.child += dt
                self._record(frame, parent, t0, t1, coarse)
            if on_result is not None:
                result = on_result(args, result)
            return result

        return wrapper

    def _record(self, frame, parent, t0, t1, coarse):
        dt = t1 - t0
        agg = self.stats.get(frame.name)
        if agg is None:
            agg = self.stats[frame.name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += frame.child
        if coarse:
            self.spans.append({"id": frame.span, "root": frame.root, "name": frame.name,
                               "parent": parent.span, "start": t0, "end": t1,
                               "self": dt - frame.child})
        else:
            key = (parent.span, frame.name)
            leaf = self.leaves.get(key)
            if leaf is None:
                leaf = self.leaves[key] = [0, 0.0, 0.0]
            leaf[0] += 1
            leaf[1] += dt
            leaf[2] += frame.child

    # -- result hooks that turn return values into counts ----------------

    def _on_iterate(self, args, traj):
        self.counts["dynamics.iterate.iters"] += len(traj.states) - 1
        return traj

    def _on_trapezoid(self, args, fp):
        self.counts["solvers.solve_trapezoid_fixed_point.iterations"] += fp.attracting.iterations
        return fp

    def _on_cycle(self, args, result):
        self.counts["solvers.solve_cycle_system.iterations"] += result.iterations
        return result

    def _on_substream(self, args, gen):
        return _CountingGenerator(gen, self.counts)

    def _on_sample(self, args, q):
        if args and isinstance(args[0], _CountingGenerator):
            self.counts["sampling.accepted"] += 1
        return q

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [sys.modules[m] for m in MODULES]
        hooks = {
            "dynamics.iterate": self._on_iterate,
            "solvers.solve_trapezoid_fixed_point": self._on_trapezoid,
            "solvers.solve_cycle_system": self._on_cycle,
            "sampling.substream": self._on_substream,
            "sampling.sample_angle_tuple": self._on_sample,
        }
        for mod_name, fn_name, coarse in TARGETS:
            name = f"{mod_name.split('.')[-1]}.{fn_name}"
            original = getattr(sys.modules[mod_name], fn_name)
            wrapped = self._wrap(name, original, coarse, hooks.get(name))
            self._rebind(modules, original, wrapped)

        verify = sys.modules["quadmap.verify"]
        checks = []
        for check in verify.CHECKS:
            wrapped = self._wrap(f"verify.{check.__name__}", check, True)
            self._rebind(modules, check, wrapped)
            checks.append(wrapped)
        self._set(verify, "CHECKS", tuple(checks))

        for mod_name, cls_name in VALIDATED_CLASSES:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, "__post_init__",
                      self._wrap("core.validate", cls.__post_init__, False))

    def _rebind(self, modules, original, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- export ----------------------------------------------------------

    def export(self):
        """Plain-data snapshot; `merge` adds several of them together."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "spans": self.spans,
            "leaves": [[span, name, *v] for (span, name), v in self.leaves.items()],
        }


def merge(snapshots):
    """Sum the stats and counts of several exported tracers (one per process)."""
    stats, counts = {}, Counter()
    for snap in snapshots:
        for name, (calls, total, child) in snap["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += child
        counts.update(snap["counts"])
    return stats, counts
