#!/usr/bin/env python3
"""The quadmap benchmark: three workloads, a correctness gate and a layer trace.

    python3 perfbench/run.py --workload basin --seed 1 --seconds 36 --trace 0

Workloads (see README.md for why each exists):

- ``basin``:  in-process ``quadmap.cli.main(["basin", ...])`` calls of
  BASIN_SAMPLES orbits each, one seed per call derived from ``--seed``.
- ``cli``:    fresh ``python -m quadmap.cli`` processes over a fixed mix of
  seven commands, one process at a time.
- ``verify``: in-process ``quadmap.cli.main(["verify", "--json", ...])``.

With ``--trace 0`` the run is timed for ``--seconds`` and prints the
end-to-end metrics; in-process call times are scaled to a nominal machine
speed (see `SpeedSampler`).  With ``--trace 1`` it does a fixed unit of
work untraced, traced and untraced again, and prints the per-layer
metrics; the counts in it repeat exactly for a given seed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the run record and the trace spans, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BASIN_SAMPLES = 10          # orbits per timed basin call, 0.25-0.5 s of work
TRACE_BASIN_SAMPLES = 30    # orbits in the traced basin call
SETUP_PROBES = 11           # fresh processes timed for setup_s
LAUNCH_PROBES = 5           # fresh processes timed for cli.interpreter_s / cli.import_s
CALL_TIMEOUT_S = 120.0      # a CLI child still running after this is killed and failed
SPEED_ITERS = 1000          # size of the reference loop timed by `SpeedSampler`
SPEED_PERIOD_S = 0.05       # wall time between two reference loops
SPEED_NOMINAL_S = 0.00125   # the reference loop's time on an idle 2-core Xeon host

CLI_MARGIN = 0.3            # generated angles stay this far from 0 and pi
SQUARE_RADIUS = 1.1107      # published spectral radius of f at the square
BASIN_CONVERGED = {"general_2cycle", "trapezoid_2cycle", "square_fixed"}
BASIN_HEADER = "sample_id,alpha0,beta0,gamma0,delta0,class,iters,residual,match_distance"
TWO_PI = 2.0 * math.pi
SQUARE_ARG = ",".join(repr(math.pi / 2) for _ in range(4))


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_quadmap():
    """Import quadmap from this checkout's src/ and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadmap.cli

    if not Path(quadmap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: quadmap imported from {quadmap.__file__}, "
                         f"not from {SRC}")
    return quadmap


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, tmp, stdout_name="stdout"):
    """Run one child to exit; return (seconds, exit code, stdout text, peak RSS in KiB).

    Timed from just before the spawn to the reaped exit.  ``os.wait4`` gives
    the child's own peak RSS, which ``getrusage(RUSAGE_CHILDREN)`` would
    mix with every other child.
    """
    out_path = Path(tmp) / stdout_name
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, out_path.read_text(), usage.ru_maxrss


class Gate:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem and len(self.problems) < 20:
            self.problems.append(problem)


@contextlib.contextmanager
def traced_in_process(enabled, snapshots):
    """Install the layer tracer for the block and append its snapshot."""
    if not enabled:
        yield
        return
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        snapshots.append(tracer.export())


def reference_loop():
    """Seconds for a fixed pure-Python loop that touches no quadmap code."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(SPEED_ITERS):
        t = (i * 0.5, math.sin(i), float(i), 1.0)
        x += max(abs(a - b) for a, b in zip(t, t[::-1]))
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples how fast this machine runs Python while in-process work runs.

    This host's speed changes by up to 2x over seconds to minutes, for
    reasons outside the benchmark.  Every SPEED_PERIOD_S a SIGALRM handler
    times `reference_loop`, so the samples cover the whole call.  `speed` is
    SPEED_NOMINAL_S over the median sample; `spent` is the handlers' own
    time, which the caller takes out of the call's wall time.
    """

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:   # a call shorter than one period
            self.samples.append(reference_loop())

    @property
    def speed(self):
        return SPEED_NOMINAL_S / statistics.median(self.samples)


class Battery:
    """One pass of a workload's fixed unit of work."""

    def __init__(self, call_s, orbits, output):
        self.call_s = call_s          # wall time of each CLI call in the pass
        self.orbits = orbits          # orbits classified in the pass
        self.output = output          # everything the calls wrote, as text
        self.speed = 1.0              # SPEED_NOMINAL_S over the reference loop's time

    @property
    def wall_s(self):
        return sum(self.call_s)

    @property
    def norm_call_s(self):
        return [s * self.speed for s in self.call_s]


# -- basin ------------------------------------------------------------------


def check_basin_csv(text, samples, gate, label):
    """Gate one basin CSV; every orbit that is not a converged class fails."""
    lines = text.splitlines() if text else []
    rows = lines[1:-1]
    summary = lines[-1] if lines else ""
    if (not lines or lines[0] != BASIN_HEADER or len(rows) != samples
            or not summary.startswith("# summary: ")):
        gate.add(samples, samples, f"{label}: malformed CSV ({len(rows)} rows)")
        return
    classes = {}
    failed = 0
    for i, row in enumerate(rows):
        fields = row.split(",")
        cls = fields[5] if len(fields) == 9 else "<malformed>"
        classes[cls] = classes.get(cls, 0) + 1
        if fields[0] != str(i) or cls not in BASIN_CONVERGED:
            failed += 1
    try:
        summary_counts = {k: int(v) for k, v in
                          (kv.split("=") for kv in summary[len("# summary: "):].split())}
    except ValueError:
        summary_counts = None
    if summary_counts != classes:
        gate.add(samples, samples, f"{label}: summary {summary!r} disagrees with rows")
        return
    gate.add(samples, failed, f"{label}: {failed} orbits not converged: {classes}")


class Basin:
    in_process = True

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = Path(tmp)
        self.calls = 0
        self.first = None

    def call_seed(self, k):
        return self.seed * 100_000 + k

    def setup(self):
        self.qm = import_quadmap()
        self.orbits_per_call = BASIN_SAMPLES
        self.run_call(self.call_seed(99_999), 2, Gate())

    def run_call(self, basin_seed, samples, gate, max_iter=None):
        """One in-process basin command; returns (seconds, CSV text or None)."""
        path = self.tmp / "basin.csv"
        argv = ["basin", "--samples", str(samples), "--seed", str(basin_seed),
                "--out", str(path)]
        if max_iter is not None:
            argv += ["--max-iter", str(max_iter)]
        label = f"basin seed {basin_seed}"
        t0 = time.perf_counter()
        try:
            code = self.qm.cli.main(argv)
        except Exception as exc:  # the gate counts it; the run goes on
            dt = time.perf_counter() - t0
            gate.add(samples, samples, f"{label}: raised {exc!r}")
            return dt, None
        dt = time.perf_counter() - t0
        text = path.read_text() if path.exists() else None
        path.unlink(missing_ok=True)
        if code != 0:
            gate.add(samples, samples, f"{label}: exit code {code}")
            return dt, text
        check_basin_csv(text, samples, gate, label)
        return dt, text

    def battery(self, gate):
        basin_seed = self.call_seed(self.calls)
        dt, text = self.run_call(basin_seed, BASIN_SAMPLES, gate)
        if self.first is None:
            self.first = (basin_seed, text)
        self.calls += 1
        return Battery([dt], BASIN_SAMPLES, text or "")

    def finish(self, gate):
        """Same seed, same bytes: rerun the first call and compare CSVs."""
        basin_seed, text = self.first
        _, again = self.run_call(basin_seed, BASIN_SAMPLES, gate)
        if again != text:
            gate.add(0, BASIN_SAMPLES, f"basin seed {basin_seed}: CSV differs between runs")

    def fixed_unit(self, gate, traced, snapshots):
        """The --trace 1 unit of work: one basin call at the run's first call seed."""
        with traced_in_process(traced, snapshots):
            dt, text = self.run_call(self.call_seed(0), TRACE_BASIN_SAMPLES, gate)
        return Battery([dt], TRACE_BASIN_SAMPLES, text or "")


# -- cli --------------------------------------------------------------------


def random_angles(rng):
    """Four angles in (CLI_MARGIN, pi - CLI_MARGIN) summing to 2*pi."""
    lo, hi = CLI_MARGIN, math.pi - CLI_MARGIN
    while True:
        raw = [rng.uniform(lo, hi) for _ in range(4)]
        total = sum(raw)
        q = [v * TWO_PI / total for v in raw]
        if all(lo < v < hi for v in q):
            return q


def angles_arg(q):
    return ",".join(repr(v) for v in q)


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Cli:
    """Seven fresh CLI processes per pass; inputs for pass j come from --seed."""

    in_process = False

    def __init__(self, seed, tmp):
        self.rng = random.Random(seed)
        self.tmp = Path(tmp)
        self.peak_rss_kib = 0

    def setup(self):
        self.qm = import_quadmap()
        self.orbits_per_call = 3
        self.cmd = [sys.executable, "-m", "quadmap.cli"]
        self.next_pass = self.first_pass = self.make_pass()
        # warm the page cache for the child interpreter and the package
        spawn(self.cmd + ["solve", "trapezoid"], self.tmp)

    def make_pass(self):
        q_step = random_angles(self.rng)
        q_gen = random_angles(self.rng)
        a = self.rng.uniform(0.2, 1.4)
        q_trap = [a, math.pi - a, math.pi - a, a]
        expected_step = self.qm.dynamics.step(self.qm.core.AngleTuple(*q_step)).as_tuple()
        traj = self.tmp / "traj.csv"
        return [
            (["step", "--angles", angles_arg(q_step), "--json"],
             lambda out, st: self.check_step(out, expected_step)),
            (["cycle", "--angles", angles_arg(q_gen)],
             lambda out, st: self.check_cycle(out, "general_2cycle", st)),
            (["cycle", "--angles", angles_arg(q_trap)],
             lambda out, st: self.check_cycle(out, "trapezoid_2cycle", {})),
            (["iterate", "--angles", angles_arg(q_gen), "--out", str(traj)],
             lambda out, st: self.check_iterate(traj, q_gen, st)),
            (["solve", "trapezoid"], lambda out, st: self.check_trapezoid(out)),
            (["solve", "cycle"], lambda out, st: self.check_cycle_solve(out)),
            (["stability", "--angles", SQUARE_ARG, "--order", "1"],
             lambda out, st: self.check_stability(out)),
        ]

    # each check returns a reason string on failure, None on success

    def check_step(self, out, expected):
        payload = _json(out)
        if not isinstance(payload, dict):
            return "step: output is not a JSON object"
        got = [float(payload[k]) for k in ("alpha", "beta", "gamma", "delta")]
        if abs(sum(got) - TWO_PI) > 1e-9:
            return f"step: angles sum to {sum(got)!r}"
        err = max(abs(g - e) for g, e in zip(got, expected))
        return f"step: differs from in-process step by {err:.3e}" if err > 1e-13 else None

    def check_cycle(self, out, expected, state):
        payload = _json(out)
        if not isinstance(payload, dict):
            return "cycle: output is not a JSON object"
        state["iterations"] = payload.get("iterations")
        got = payload.get("classification")
        return f"cycle: {got} where {expected} was expected" if got != expected else None

    def check_iterate(self, path, q0, state):
        lines = path.read_text().splitlines() if path.exists() else []
        iterations = state.get("iterations")
        if iterations is None or len(lines) - 1 != iterations + 1:
            return f"iterate: {len(lines) - 1} rows for {iterations} iterations"
        first = [float(v) for v in lines[1].split(",")[1:]]
        return "iterate: first row is not the start state" if first != q0 else None

    def check_trapezoid(self, out):
        payload = _json(out) or {}
        err = abs(float(payload.get("a_star", "nan")) - self.qm.dynamics.A_STAR)
        return None if err <= 1e-12 else f"solve trapezoid: |a* - A_STAR| = {err:.3e}"

    def check_cycle_solve(self, out):
        payload = _json(out) or {}
        ref = self.qm.dynamics.GENERAL_CYCLE_ANGLES.as_tuple()
        got = [float(payload.get(k, "nan")) for k in ("alpha", "beta", "gamma", "delta")]
        err = max(abs(g - r) for g, r in zip(got, ref))
        return None if err <= 1e-9 else f"solve cycle: angle error {err:.3e}"

    def check_stability(self, out):
        payload = _json(out) or {}
        rho = float(payload.get("spectral_radius", "nan"))
        return None if abs(rho - SQUARE_RADIUS) <= 1e-3 else f"stability: radius {rho!r}"

    def run_pass(self, gate, calls, prefix=None, snapshots=None):
        """Run one pass; with `prefix` each child runs under the tracing bootstrap."""
        state, times, outputs = {}, [], []
        traj = self.tmp / "traj.csv"
        for i, (args, check) in enumerate(calls):
            stats_path = self.tmp / f"stats{i}.json"
            argv = self.cmd + args if prefix is None else prefix + [str(stats_path)] + args
            dt, code, out, rss = spawn(argv, self.tmp)
            times.append(dt)
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            outputs.append(out + (traj.read_text() if traj.exists() else ""))
            try:
                problem = f"{args[0]}: exit code {code}" if code != 0 else check(out, state)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problem = f"{args[0]}: unreadable output ({exc!r})"
            traj.unlink(missing_ok=True)
            gate.add(1, 1 if problem else 0, problem)
            if snapshots is not None and stats_path.exists():
                snapshots.append(json.loads(stats_path.read_text()))
                stats_path.unlink()
        return Battery(times, self.orbits_per_call, "".join(outputs))

    def battery(self, gate):
        calls, self.next_pass = self.next_pass, self.make_pass()
        return self.run_pass(gate, calls)

    def finish(self, gate):
        pass

    def fixed_unit(self, gate, traced, snapshots):
        """The --trace 1 unit of work: the run's first pass of seven calls."""
        prefix = [sys.executable, str(HERE / "bootstrap.py")] if traced else None
        return self.run_pass(gate, self.first_pass, prefix, snapshots)


# -- verify -----------------------------------------------------------------


class Verify:
    in_process = True

    def __init__(self, seed, tmp):
        self.tmp = Path(tmp)   # verify fixes its own seeds; --seed does not reach it

    def setup(self):
        self.qm = import_quadmap()
        self.n_checks = len(self.qm.verify.CHECKS)
        self.orbits_per_call = inspect.signature(
            self.qm.verify.check_generic_convergence).parameters["samples"].default
        self.qm.cli.main(["solve", "cycle", "--out", str(self.tmp / "warm.json")])

    def battery(self, gate):
        path = self.tmp / "verify.json"
        t0 = time.perf_counter()
        try:
            code = self.qm.cli.main(["verify", "--json", "--out", str(path)])
        except Exception as exc:  # the gate counts it; the run goes on
            gate.add(self.n_checks, self.n_checks, f"verify raised {exc!r}")
            return Battery([time.perf_counter() - t0], self.orbits_per_call, "")
        dt = time.perf_counter() - t0
        text = path.read_text() if path.exists() else ""
        path.unlink(missing_ok=True)
        payload = _json(text)
        if (not isinstance(payload, list) or len(payload) != self.n_checks
                or not all(isinstance(r, dict) for r in payload)):
            gate.add(self.n_checks, self.n_checks, "verify: malformed JSON")
        else:
            bad = [r.get("name") for r in payload if r.get("passed") is not True]
            gate.add(self.n_checks, len(bad), f"verify: failed {bad}")
            if code != 0 and not bad:
                gate.add(0, 1, f"verify: exit code {code} with every check passed")
        return Battery([dt], self.orbits_per_call, text)

    def finish(self, gate):
        pass

    def fixed_unit(self, gate, traced, snapshots):
        """The --trace 1 unit of work: one battery."""
        with traced_in_process(traced, snapshots):
            return self.battery(gate)


WORKLOADS = {"basin": Basin, "cli": Cli, "verify": Verify}


# -- measurement ------------------------------------------------------------


def probe_setup(workload, seed, tmp):
    """Seconds from spawning a fresh run to the end of its setup."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--probe-setup"]
    t0 = time.monotonic()
    _, code, out, _ = spawn(argv, tmp, "probe")
    lines = out.split()
    if code != 0 or len(lines) != 2 or lines[0] != "READY":
        raise SystemExit(f"perfbench: setup probe failed (exit {code})")
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading
    # compares with the parent's
    return float(lines[1]) - t0


def probe_launch():
    """Medians of a bare interpreter and of `import quadmap.cli`, fresh each time."""
    bare, imported = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for _ in range(LAUNCH_PROBES):
            bare.append(spawn([sys.executable, "-c", "pass"], tmp)[0])
            imported.append(spawn([sys.executable, "-c", "import quadmap.cli"], tmp)[0])
    return statistics.median(bare), statistics.median(imported)


def timed_run(wl, workload, seed, seconds, gate, tmp):
    wl.setup()
    # this machine's speed changes over seconds, so the setup probes are
    # spread over the run instead of being taken back to back
    setups, batteries = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if len(setups) < SETUP_PROBES * (time.perf_counter() - start) / seconds:
            setups.append(probe_setup(workload, seed, tmp))
        if wl.in_process:
            with SpeedSampler() as sampler:
                battery = wl.battery(gate)
            battery.call_s = [s - sampler.spent for s in battery.call_s]
            battery.speed = sampler.speed
        else:
            battery = wl.battery(gate)
        batteries.append(battery)
        if time.perf_counter() >= deadline:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload, seed, tmp))
    wl.finish(gate)
    setup_s = statistics.median(setups)

    calls_ms = [s * 1e3 for b in batteries for s in b.norm_call_s]
    battery_s = [sum(b.norm_call_s) for b in batteries]
    if isinstance(wl, Cli):
        peak_kib = wl.peak_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "orbits_per_s": (sum(b.orbits for b in batteries) / sum(battery_s), "1/s"),
        "call_ms_p50": (statistics.median(calls_ms), "ms"),
        "call_ms_p90": (percentile(calls_ms, 90), "ms"),
        "battery_s_p50": (statistics.median(battery_s), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    # the unscaled wall times, for reading the scaled metrics against
    raw_calls_ms = [s * 1e3 for b in batteries for s in b.call_s]
    detail = {"batteries": len(batteries), "calls": len(calls_ms), "setups_s": setups,
              "raw_call_ms_p50": statistics.median(raw_calls_ms),
              "raw_battery_s_p50": statistics.median(b.wall_s for b in batteries),
              "speed_p50": statistics.median(b.speed for b in batteries),
              "raw_calls_ms": raw_calls_ms, "speed": [b.speed for b in batteries]}
    return metrics, detail


def layer_metrics(stats, counts, check_names):
    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        _, total, child = stats.get(name, (0, 0.0, 0.0))
        return total - child

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us(name):
        return ratio(self_s(name), calls(name)) * 1e6

    iters = counts.get("dynamics.iterate.iters", 0)
    m = {}
    for name in ("core.balanced_edges", "core.canonicalize"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_us"] = (self_us(name), "us")
    m["core.validate.calls"] = (calls("core.validate"), "count")
    m["core.validate.per_step"] = (ratio(calls("core.validate"), calls("dynamics.step")), "ratio")
    m["core.validate.self_s"] = (self_s("core.validate"), "s")
    m["core.balanced_edges_oracle.calls"] = (calls("core.balanced_edges_oracle"), "count")
    m["core.balanced_edges_oracle.self_s"] = (self_s("core.balanced_edges_oracle"), "s")

    m["dynamics.step.calls"] = (calls("dynamics.step"), "count")
    m["dynamics.step.self_us"] = (self_us("dynamics.step"), "us")
    m["dynamics.iterate.calls"] = (calls("dynamics.iterate"), "count")
    m["dynamics.iterate.iters"] = (iters, "count")
    m["dynamics.iterate.us_per_iter"] = (ratio(total_s("dynamics.iterate"), iters) * 1e6, "us")
    m["dynamics.iterate.self_s"] = (self_s("dynamics.iterate"), "s")
    m["dynamics.rotation_distance.per_iter"] = (
        ratio(calls("dynamics.rotation_distance"), iters), "ratio")
    m["dynamics.rotation_distance.self_s"] = (self_s("dynamics.rotation_distance"), "s")
    m["dynamics.detector_share"] = (
        ratio(self_s("dynamics.rotation_distance"), total_s("dynamics.iterate")), "ratio")
    m["dynamics.dihedral_distance.calls"] = (calls("dynamics.dihedral_distance"), "count")
    m["dynamics.dihedral_distance.self_s"] = (self_s("dynamics.dihedral_distance"), "s")

    m["sampling.sample_angle_tuple.calls"] = (calls("sampling.sample_angle_tuple"), "count")
    m["sampling.sample_angle_tuple.self_us"] = (self_us("sampling.sample_angle_tuple"), "us")
    m["sampling.accept_ratio"] = (
        ratio(counts.get("sampling.accepted", 0), counts.get("sampling.draws", 0)), "ratio")

    for name in ("solvers.solve_trapezoid_fixed_point", "solvers.solve_cycle_system"):
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.iterations"] = (counts.get(f"{name}.iterations", 0), "count")
    m["solvers.cycle_system_rhs.calls"] = (calls("solvers.cycle_system_rhs"), "count")
    m["solvers.fd_jacobian.calls"] = (calls("solvers.fd_jacobian"), "count")
    m["solvers.fd_jacobian.self_s"] = (self_s("solvers.fd_jacobian"), "s")
    m["solvers.eigenvalue_moduli_3x3.self_us"] = (self_us("solvers.eigenvalue_moduli_3x3"), "us")
    m["solvers.stability_report.self_s"] = (self_s("solvers.stability_report"), "s")

    for check in check_names:
        m[f"verify.{check}.s"] = (total_s(f"verify.{check}"), "s")

    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.fmt.calls"] = (calls("cli.fmt"), "count")
    m["cli.fmt.self_s"] = (self_s("cli.fmt"), "s")
    return m


def traced_run(wl, gate):
    from layertrace import merge

    wl.setup()
    bare_s, import_s = probe_launch()
    # untraced, traced, untraced: the overhead ratio compares the traced unit
    # with the mean of the two untraced ones around it
    snapshots = []
    before = wl.fixed_unit(gate, False, None)
    traced = wl.fixed_unit(gate, True, snapshots)
    after = wl.fixed_unit(gate, False, None)
    if not before.output == traced.output == after.output:
        gate.add(0, 1, "the same unit of work wrote different output when traced or repeated")
    plain_s = (before.wall_s + after.wall_s) / 2
    stats, counts = merge(snapshots)
    checks = [c.__name__ for c in wl.qm.verify.CHECKS]
    metrics = layer_metrics(stats, counts, checks)
    metrics["cli.interpreter_s"] = (bare_s, "s")
    metrics["cli.import_s"] = (import_s - bare_s, "s")
    metrics["cli.out_bytes"] = (len(traced.output.encode()), "B")
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain_s, "ratio")
    detail = {"untraced_s": [before.wall_s, after.wall_s], "traced_s": traced.wall_s,
              # span ids restart in every cli child; `process` tells them apart
              "spans": [dict(span, process=i) for i, snap in enumerate(snapshots)
                        for span in snap["spans"]],
              "leaves": [[i, *leaf] for i, snap in enumerate(snapshots)
                         for leaf in snap["leaves"]]}
    return metrics, detail


def run_record():
    import numpy

    record = {"git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            record["git_sha"] = git("rev-parse", "HEAD")
            record["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    record.update(
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        nproc=os.cpu_count(),
        cpu_model=cpu,
        quadmap_file=sys.modules["quadmap"].__file__,
    )
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "quadmap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quadmap package under {SRC}; "
                         "run from a full checkout")
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        if args.probe_setup:
            wl.setup()
            print("READY", repr(time.monotonic()), flush=True)
            return 0
        load_before = os.getloadavg()
        gate = Gate()
        if args.trace:
            metrics, detail = traced_run(wl, gate)
        else:
            metrics, detail = timed_run(wl, args.workload, args.seed, args.seconds, gate, tmp)

    record = run_record()
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, loadavg_before=load_before,
                  loadavg_after=os.getloadavg())
    failed_ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, record=record, failed_ratio=failed_ratio,
                problems=gate.problems, detail=detail)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(full, indent=1) + "\n")

    print("record " + json.dumps(record))
    for problem in gate.problems:
        print("FAIL " + problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name in ("raw_call_ms_p50", "raw_battery_s_p50", "speed_p50"):
        if name in detail:
            print(f"{name} {detail[name]:.6g} (detail, not a metric)")
    print(f"failed_ratio {failed_ratio:.6g} ratio ({gate.failed} of {gate.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
