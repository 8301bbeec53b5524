import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quadmap
import quadmap.cli
import quadmap.core as core
import quadmap.solvers as solvers
import quadmap.verify as verify
from quadmap.cli import fmt, main
from quadmap.core import QuadrangleError
from quadmap.dynamics import (
    A_STAR,
    CYCLE_TOL,
    GENERAL_CYCLE_ANGLES,
    MATCH_TOL,
    dihedral_distance,
)
from quadmap.solvers import SolverError, solve_cycle_system, solve_trapezoid_fixed_point
from quadmap.verify import run_all

from conftest import nudge_kernel_sines

PI = math.pi
SQUARE_ARG = ",".join(repr(PI / 2) for _ in range(4))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_bounded(capsys, seconds, *argv):
    """Run main in-process; a SIGALRM after `seconds` turns a hang into a failure."""
    def hang(signum, frame):
        raise TimeoutError(f"main{argv} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        code = main(list(argv))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, capsys.readouterr().err


class TestStep:
    def test_square(self, capsys):
        code, out = run(capsys, "step", "--angles", SQUARE_ARG)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "alpha,beta,gamma,delta"
        assert [float(v) for v in row.split(",")] == pytest.approx((PI / 2,) * 4)

    def test_trapezoid_json(self, capsys):
        angles = ",".join(repr(v) for v in (PI / 3, 2 * PI / 3, 2 * PI / 3, PI / 3))
        code, out = run(capsys, "step", "--angles", angles, "--json")
        assert code == 0
        payload = json.loads(out)
        got = [float(payload[k]) for k in ("alpha", "beta", "gamma", "delta")]
        assert got == pytest.approx((5 * PI / 6, PI / 3, PI / 2, PI / 3))

    def test_bad_angles_exit_2(self, capsys):
        assert main(["step", "--angles", "1,1,1"]) == 2
        assert main(["step", "--angles", "1,1,1,1"]) == 2
        assert main(["step", "--angles", "a,b,c,d"]) == 2

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        # --out names a directory, or is empty: an OSError becomes a usage
        # error, not a traceback with the exit code that means "verification
        # failed", nor a write to stdout
        for out in (str(tmp_path), ""):
            code, err = run_bounded(capsys, 10, "step", "--angles", SQUARE_ARG, "--out", out)
            assert code == 2
            assert err.startswith("error: cannot write")
            assert "Traceback" not in err


class TestIterate:
    def test_square_trajectory(self, capsys):
        code, out = run(capsys, "iterate", "--angles", SQUARE_ARG,
                        "--max-iter", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "iter,alpha,beta,gamma,delta"
        first = [float(v) for v in lines[1].split(",")[1:]]
        last = [float(v) for v in lines[-1].split(",")[1:]]
        assert first == pytest.approx(last, abs=1e-12)

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, _ = run(capsys, "iterate", "--angles", SQUARE_ARG,
                      "--max-iter", "5", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("iter,alpha")


class TestCycle:
    def test_generic_cycle(self, capsys):
        angles = ",".join(repr(v) for v in (1.2, 2.1, 1.5, 2 * PI - 4.8))
        code, out = run(capsys, "cycle", "--angles", angles)
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "general_2cycle"
        assert payload["period"] == 2
        assert float(payload["match_distance"]) < 1e-6
        assert len(payload["representatives"]) == 2

    def test_no_convergence_exit_3(self, capsys):
        angles = ",".join(repr(v) for v in (1.2, 2.1, 1.5, 2 * PI - 4.8))
        code, out = run(capsys, "cycle", "--angles", angles, "--max-iter", "3")
        assert code == 3
        assert json.loads(out)["classification"] == "no_convergence"


TOL_ARGVS = [
    ("cycle", "--angles", "1.2,2.1,1.5,1.4831853071795865"),
    ("iterate", "--angles", "1.2,2.1,1.5,1.4831853071795865"),
    ("basin", "--samples", "1"),
]


def test_thin_trapezoid_is_rejected_with_one_message(capsys):
    # valid states whose endpoint edge passes pi + 1e-12, a thin trapezoid and
    # a thin parallelogram; step's validated types and iterate's float kernel
    # must give the same reason
    for angles, edge in (("0.0001,3.1414926535897933,3.1414926535897933,0.0001", "x3"),
                         ("0.0001,3.1414926535897933,0.0001,3.1414926535897933", "x4")):
        errs = set()
        for argv in (["step"], ["iterate", "--max-iter", "5"], ["cycle"]):
            code, err = run_bounded(capsys, 10, *argv, "--angles", angles)
            assert code == 2
            errs.add(err)
        assert errs == {f"error: {edge} = 3.1415926535915304 outside allowed edge range\n"}


@pytest.mark.parametrize("argv", TOL_ARGVS)
def test_tol_is_unrecognized_exit_2(capsys, argv):
    # the cycle detector stops at dynamics.CYCLE_TOL, so no subcommand takes
    # a tolerance, not even the constant's own value
    assert main([*argv, "--tol", "1e-12"]) == 2
    assert "unrecognized arguments: --tol 1e-12" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("cycle", "--angles", "1.2,2.1,1.5,1.4831853071795865"),
    ("basin", "--samples", "2"),
], ids=["cycle", "basin"])
def test_max_iter_zero_exit_2(capsys, argv):
    # iterate's guard: without it, no step would run and both would report
    # no_convergence
    code, err = run_bounded(capsys, 10, *argv, "--max-iter", "0")
    assert (code, err) == (2, "error: max_iter must be >= 1\n")


class TestCurve:
    def test_endpoint_and_monotone(self, capsys):
        code, out = run(capsys, "curve", "--from", "1.4",
                        "--to", repr(PI / 2), "--samples", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,c"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[-1] == pytest.approx((PI / 2, PI / 2))
        cs = [c for _, c in rows]
        assert cs == sorted(cs)
        assert all(b > a for a, b in zip(cs, cs[1:]))

    def test_near_fixed_point(self, capsys):
        _, out = run(capsys, "curve", "--from", "1.4",
                     "--to", repr(PI / 2), "--samples", "200")
        rows = [tuple(map(float, ln.split(",")))
                for ln in out.strip().splitlines()[1:]]
        grid = rows[1][0] - rows[0][0]
        nearest = min(rows, key=lambda r: abs(r[0] - 1.4834215876937795))
        assert abs(nearest[1] - nearest[0]) < grid

    def test_last_sample_is_the_upper_end(self, capsys):
        # lo + (hi - lo) * i / (n - 1) at i = n - 1 rounds 1 ulp above hi
        # here, outside c_map's domain when hi is pi/2
        lo = 0.2110588619699684
        assert lo + (PI / 2 - lo) * 49 / 49 > PI / 2
        code, out = run(capsys, "curve", "--from", repr(lo), "--samples", "50")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 51
        assert lines[-1] == f"{fmt(PI / 2)},{fmt(PI / 2)}"

    def test_bad_range_exit_2(self, capsys):
        assert main(["curve", "--from", "2.0", "--to", "1.0"]) == 2
        assert main(["curve", "--from", "1.4", "--to", "1.5", "--samples", "1"]) == 2

    def test_round_trip_serialization(self, capsys):
        _, out = run(capsys, "curve", "--from", "0.3",
                     "--to", "1.2", "--samples", "50")
        for line in out.strip().splitlines()[1:]:
            for tok in line.split(","):
                assert fmt(float(tok)) == tok


# sha256 of output bytes that users diff against: the basin experiment's
# stdout and the CSV of the README's iterate example.  A kernel or detector
# change must leave them byte-identical; a deliberate change updates them.
BASIN_20_SEED_42_SHA256 = "c0ed2119341ec8c4752580f41376d7ab31aaa9929572c2da45813ff659219d7a"
BASIN_1000_SEED_42_SHA256 = "e1667cb4b84986a6ec0899efed68258676119c4bb4cedf4bb1effe788991deec"
README_ITERATE_CSV_SHA256 = "61e77b0e6c5618c42e46bcd65d06b6b10418db993498ed44db9e96a766796f1e"
README_SOLVE_CYCLE_SHA256 = "36134aad2a77a71b8d6b79761e382e23b4c3d85557f0e0a43516914cdde50946"
# verify adds every float sum left to right, so its bytes are the same on
# every supported Python (sum() rounds differently from 3.12 on)
VERIFY_JSON_SHA256 = "ccc924844551ca3543e3ee57308224bab220b7fe9f84b58eacd56f39cb9607ee"


@functools.cache
def basin_seed_42(samples):
    """The exit code and stdout of `basin --samples <samples> --seed 42`,
    run once per process: the pins below and the libm test share it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["basin", "--samples", str(samples), "--seed", "42"])
    return code, out.getvalue()


def test_basin_stdout_bytes_are_pinned():
    code, out = basin_seed_42(20)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIN_20_SEED_42_SHA256


def test_larger_basin_stdout_bytes_are_pinned():
    # the 20-sample basin meets few detector paths; this run meets far more
    # and still takes about a second
    code, out = basin_seed_42(1000)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIN_1000_SEED_42_SHA256


# sha256 of only the sample_id,class,iters columns of the same two runs, header
# included: a last-digit move of a float leaves it, a changed verdict does not
BASIN_CLASS_ITERS_SHA256 = {
    20: "37e81b60d71283de22ec2663d9816b2fb9701b895e4dd32eb9ad4808c0d00ae9",
    1000: "46180d715d5471703a54b06cbeaaed4591e4a3ae72e9aa69383afc11e929612c",
}


@pytest.mark.parametrize("samples", sorted(BASIN_CLASS_ITERS_SHA256))
def test_basin_rows_hold_what_the_pins_mean(samples):
    # beside each byte pin, what its bytes say: every row's class and
    # iteration count exactly, each converged row within CYCLE_TOL and the
    # matching tolerance, and a summary that counts the rows
    code, out = basin_seed_42(samples)
    assert code == 0
    *table, summary = out.splitlines()
    rows = [line.split(",") for line in table]
    columns = "".join(f"{r[0]},{r[5]},{r[6]}\n" for r in rows)
    assert hashlib.sha256(columns.encode()).hexdigest() == BASIN_CLASS_ITERS_SHA256[samples]
    counts = {}
    for r in rows[1:]:
        counts[r[5]] = counts.get(r[5], 0) + 1
        if r[5] != "no_convergence":
            assert float(r[7]) < CYCLE_TOL and float(r[8]) < MATCH_TOL, r
    assert summary == "# summary: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    if samples == 1000:
        assert summary == "# summary: general_2cycle=1000"


# how far a row's iteration count may move when the kernel's sines move by an
# ulp: under nudge_kernel_sines 2 of the 1,000 rows move, by 1; a probe with
# a blake2b-picked quarter moved 6 rows, by at most 2
LIBM_ITERS_SHIFT = 2


def test_semantic_gates_hold_on_another_faithful_libm(monkeypatch, capsys):
    # the byte pins hold only on the libm they were recorded with; what they
    # mean must hold on any faithful one: every basin class, iteration counts
    # within LIBM_ITERS_SHIFT, and every verify gate
    _, out = basin_seed_42(1000)
    nudge_kernel_sines(monkeypatch)
    code, nudged = run(capsys, "basin", "--samples", "1000", "--seed", "42")
    assert code == 0 and nudged != out   # the nudge reaches the kernel
    ref, got = ([line.split(",") for line in text.splitlines()[1:-1]] for text in (out, nudged))
    assert [r[5] for r in got] == [r[5] for r in ref]
    assert max(abs(int(r[6]) - int(g[6])) for r, g in zip(ref, got)) <= LIBM_ITERS_SHIFT
    failed = [(r.name, r.detail) for r in run_all() if not r.passed]
    assert failed == []


def test_readme_iterate_csv_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, out = run(capsys, "iterate", "--angles", "1.2,2.1,1.5,1.4831853071795865",
                    "--out", str(path))
    assert (code, out) == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == README_ITERATE_CSV_SHA256


def test_readme_solve_cycle_bytes_are_pinned(capsys):
    # the Newton step is Cramer's rule on core._det3; LAPACK's solve and a
    # pivoted elimination, its earlier routes, printed the same bytes
    code, out = run(capsys, "solve", "cycle")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_SOLVE_CYCLE_SHA256


def test_verify_json_bytes_are_pinned(capsys):
    code, out = run(capsys, "verify", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256


# the README iterate example's last state, and how many ulps each angle may
# move from it: with each sine of the kernel scaled by 1 or 1 +- 4*2**-53 at
# random, it moved by at most 16 ulp over three trials (48 at 1 +- 8*2**-53),
# and the orbit kept its 332 iterations
README_ITERATE_LAST = (1.5481930524923957, 1.4957808392494658,
                       1.415159530314595, 1.8240518851231302)
README_ITERATE_ULPS = 64


def test_readme_iterate_csv_holds_what_the_pin_means(capsys, tmp_path):
    angles = "1.2,2.1,1.5,1.4831853071795865"
    path = tmp_path / "traj.csv"
    code, _ = run(capsys, "iterate", "--angles", angles, "--out", str(path))
    assert code == 0
    header, *rows = path.read_text().splitlines()
    assert header == "iter,alpha,beta,gamma,delta"
    # the start row is the input, exactly, and one row follows per iteration
    assert rows[0] == "0," + ",".join(fmt(float(v)) for v in angles.split(","))
    assert [float(v) for v in rows[0].split(",")[1:]] == [float(v) for v in angles.split(",")]
    assert [int(r.split(",")[0]) for r in rows] == list(range(333))
    last = [float(v) for v in rows[-1].split(",")[1:]]
    ulps = max(abs(a - b) / math.ulp(b) for a, b in zip(last, README_ITERATE_LAST))
    assert ulps <= README_ITERATE_ULPS, ulps
    # and that state lies on the published generic 2-cycle, up to relabeling
    assert dihedral_distance(last, GENERAL_CYCLE_ANGLES) < 1e-11


def test_readme_solve_cycle_holds_what_the_pin_means(capsys):
    code, out = run(capsys, "solve", "cycle")
    assert code == 0
    payload = json.loads(out)
    angles = [payload[k] for k in ("alpha", "beta", "gamma", "delta")]
    assert all(fmt(float(v)) == v for v in angles)
    assert max(abs(float(v) - g) for v, g in zip(angles, GENERAL_CYCLE_ANGLES)) <= 1e-14
    assert float(payload["residual"]) <= 1e-12
    assert payload["iterations"] == 3
    assert payload["provenance"] == "initial guess from 51 map iterations of a generic seed"


# every verify gate as (check, label, bound), in CHECKS order.  A gate holds
# when value <= bound, so a strict bound b is written nextafter(b, 0); a
# renamed, dropped or loosened gate in verify.py fails here, whatever the
# check's own verdict
VERIFY_GATES = [
    ("square fixed point", "sup deviation", 1e-12),
    ("trapezoid fixed point a*", "|a* - paper|", 2 * math.ulp(A_STAR)),
    ("submap slope at a*", "|c'(a*) - paper|", 1e-3),
    ("submap boundary values", "|c(pi/2) - pi/2|", 1e-12),
    ("submap boundary values", "limit error at 0", 1e-12),
    ("submap boundary values", "|c(a) - min f^2(trapezoid)|", 1e-14),
    ("general 2-cycle angles", "max |angle - paper|", 1e-14),
    ("general 2-cycle angles", "residual at paper values", math.nextafter(1e-14, 0.0)),
    ("cycle mirror dynamics", "|step(q*) - mirror(q*)|", 1e-14),
    ("cycle mirror dynamics", "quotient |step^2(q*) - q*|", 1e-14),
    ("generic convergence experiment", "orbits not general_2cycle", 1),
    ("trapezoid basin", "seeds not trapezoid_2cycle", 0),
    ("trapezoid basin", "worst distance to displayed pair", math.nextafter(1e-10, 0.0)),
    ("closure-oracle equivalence", "worst midpoint gap", 1e-10),
    ("closure-oracle equivalence", "worst closure gap", 1e-9),
    ("balanced-edge property suite", "largest triangle edge fraction", math.nextafter(0.5, 0.0)),
    ("balanced-edge property suite", "largest canonical x2, x3", PI / 2 + 1e-12),
    ("balanced-edge property suite", "most components > pi/2", 2),
    ("balanced-edge property suite", "equivariance", 1e-10),
    ("balanced-edge property suite", "|sum - 2 pi|", 1e-9),
    ("stability spectra", "|rho(square, f) - paper|", 1e-4),
    ("stability spectra", "|rho(cycle, f^2) - paper|", 1e-4),
    ("stability spectra", "1 / max |relation derivative|", math.nextafter(1.0, 0.0)),
]


def test_verify_json_holds_what_the_pin_means(capsys):
    code, out = run(capsys, "verify", "--json")
    results = json.loads(out)
    gates = [(r["name"], g["label"], g["bound"]) for r in results for g in r["gates"]]
    assert gates == [(name, label, fmt(bound)) for name, label, bound in VERIFY_GATES]
    for r in results:
        assert r["passed"] is True, r
        for g in r["gates"]:
            assert fmt(float(g["value"])) == g["value"], g
            assert float(g["value"]) <= float(g["bound"]), (r["name"], g)
    assert code == 0


def test_readme_library_example_runs(capsys):
    # the python block under README's "## Library", which CI also runs on the
    # runtime-only install; its comments state the first two lines it prints
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text[text.index("\n## Library\n"):].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[:2] == ["general_2cycle", "332"]


# one small run of each subcommand; cycle stops short of its cycle, exit 3
SUBCOMMANDS = sorted(next(a for a in quadmap.cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices)
OUT_ARGVS = {
    "step": ["step", "--angles", "1.2,2.1,1.5,1.4831853071795865", "--json"],
    "iterate": ["iterate", "--angles", "1.2,2.1,1.5,1.4831853071795865"],
    "cycle": ["cycle", "--angles", "1.2,2.1,1.5,1.4831853071795865", "--max-iter", "5"],
    "curve": ["curve", "--samples", "5"],
    "basin": ["basin", "--samples", "3"],
    "solve": ["solve", "trapezoid"],
    "stability": ["stability", "--angles", SQUARE_ARG],
    "verify": ["verify"],
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, name):
    argv = OUT_ARGVS[name]   # a new subcommand needs a case here
    code, out = run(capsys, *argv)
    path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(path)) == (code, "")
    assert path.read_bytes() == out.encode()


class TestBasin:
    def test_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            code, _ = run(capsys, "basin", "--samples", "10", "--seed", "42",
                          "--out", str(p))
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_and_summary(self, capsys):
        code, out = run(capsys, "basin", "--samples", "5", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("sample_id,alpha0,beta0,gamma0,delta0,"
                            "class,iters,residual,match_distance")
        assert lines[-1].startswith("# summary:")
        assert len(lines) == 7
        for ln in lines[1:-1]:
            fields = ln.split(",")
            assert fields[5] in {"general_2cycle", "trapezoid_2cycle",
                                 "square_fixed", "other_cycle", "no_convergence"}

    @pytest.mark.parametrize("margin", [repr(PI / 2), "1.6", "nan"])
    def test_bad_margin_exit_2(self, capsys, margin):
        # margin = pi/2 used to spin forever in the rejection sampler
        code, err = run_bounded(capsys, 10, "basin", "--samples", "1",
                                "--margin", margin)
        assert code == 2
        assert err.startswith("error:")

    def test_margin_next_to_the_square(self, capsys):
        # every start lies within 1e-10 of the square, which the map repels
        code, out = run(capsys, "basin", "--samples", "1",
                        "--margin", "1.5707963267", "--seed", "42")
        assert code == 0
        assert out.splitlines()[1].split(",")[5] == "general_2cycle"

    def test_unconverged_residual_is_detector_distance(self, capsys):
        # orbits cut at 300 steps sit on their 2-cycle: the residual column
        # holds the rotation-quotient distance to a state up to P_MAX steps
        # back, not the ~0.4 one-step move
        code, out = run(capsys, "basin", "--samples", "3", "--max-iter", "300")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:-1]]
        assert [r[5] for r in rows] == ["no_convergence"] * 3
        for r in rows:
            assert float(r[7]) < 1e-9

    @pytest.mark.parametrize("seed", ["-1", "-42"])
    def test_negative_seed_exit_2(self, capsys, seed):
        # numpy's default_rng used to reject it with a traceback
        code, err = run_bounded(capsys, 10, "basin", "--samples", "1", "--seed", seed)
        assert code == 2
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("seed", [str(-2**32), str(-2**64 - 3)])
    def test_wide_negative_seed_exit_2(self, capsys, seed):
        # a negative seed of any width is refused with the seed-word message
        # (the generator once split seeds into 32-bit words, and a shift loop
        # that waits for 0 never ends on a negative int)
        code, err = run_bounded(capsys, 10, "basin", "--samples", "1", "--seed", seed)
        assert code == 2
        assert err == f"error: seed word {seed} must be a non-negative integer\n"

    def test_different_seeds_differ(self, capsys):
        _, out1 = run(capsys, "basin", "--samples", "5", "--seed", "1")
        _, out2 = run(capsys, "basin", "--samples", "5", "--seed", "2")
        assert out1 != out2


class TestSolve:
    def test_trapezoid(self, capsys):
        code, out = run(capsys, "solve", "trapezoid")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["a_star"]) == pytest.approx(
            1.48342158769377952440379165224, abs=1e-12)
        assert float(payload["repelling_fixed_point"]) == PI / 2
        assert 0.75 <= float(payload["derivative_at_a_star"]) <= 0.85
        # the CLI prints the library's solve, field for field
        r = solve_trapezoid_fixed_point().attracting
        assert payload["a_star"] == fmt(r.solution)
        assert payload["residual"] == fmt(r.residual_norm)
        assert payload["iterations"] == r.iterations == 5
        assert payload["provenance"] == r.provenance

    def test_cycle(self, capsys):
        code, out = run(capsys, "solve", "cycle")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["alpha"]) == pytest.approx(
            1.54819305248669225152933985324, abs=1e-9)
        assert float(payload["beta"]) == pytest.approx(
            1.82405188512759300508614890573, abs=1e-9)
        # the CLI prints the library's solve, field for field
        r = solve_cycle_system()
        for name in ("alpha", "beta", "gamma", "delta"):
            assert payload[name] == fmt(getattr(r.solution, name))
        assert payload["residual"] == fmt(r.residual_norm)
        assert payload["iterations"] == r.iterations
        assert payload["provenance"] == r.provenance

    @pytest.mark.parametrize("flag,value", [
        ("--bracket-hi", repr(PI / 2)),
        ("--bracket-hi", "2"),
        ("--bracket-lo", "nan"),
        ("--tol", "1e-12"),
    ])
    def test_trapezoid_bad_bracket_exit_2(self, capsys, flag, value):
        # the bracket is fixed: c(a) = a has one root in (0, pi/2), so no
        # bracket flag is accepted, whatever its value; nor is a tolerance:
        # both solves stop at solvers.NEWTON_TOL
        assert main(["solve", "trapezoid", flag, value]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    def test_trapezoid_huge_tol_stops_after_one_newton_step(self, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "NEWTON_TOL", 1e300)
        code, out = run(capsys, "solve", "trapezoid")
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] == 1
        assert 1.4 < float(payload["a_star"]) < 1.5

    def test_trapezoid_rejects_initial(self, capsys):
        code, err = run_bounded(capsys, 10, "solve", "trapezoid", "--initial", "1,1,1")
        assert code == 2
        assert err == "error: --initial applies to solve cycle only\n"

    def test_cycle_bad_initial_exit_2(self, capsys):
        assert main(["solve", "cycle", "--initial", "1.0,2.0"]) == 2

    def test_cycle_degenerate_root_exit_3(self, capsys):
        # the relations vanish at (pi, pi, 0, 0), which is no quadrangle
        code, err = run_bounded(capsys, 30, "solve", "cycle", "--initial", "1.59,1.64,0.35")
        assert code == 3
        assert err.startswith("solver error:")

    @pytest.mark.parametrize("initial, message", [
        ("a,b,c", "bad number in 'a,b,c'"),
        ("3,3,3", "beta = -2.7168146928204138 must lie strictly inside (0, pi)"),
    ])
    def test_cycle_invalid_initial_message(self, capsys, initial, message):
        # a non-number, and a start whose implied beta is negative: the
        # solver validates its start itself; the CLI's words stay the same
        code, err = run_bounded(capsys, 30, "solve", "cycle", "--initial", initial)
        assert (code, err) == (2, f"error: {message}\n")


class TestStability:
    def test_cycle_order_two(self, capsys):
        angles = ",".join(repr(v) for v in (
            1.54819305248669225152933985324,
            1.82405188512759300508614890573,
            1.41515953031350909799654144250,
            1.49578083925179212231325656509,
        ))
        code, out = run(capsys, "stability", "--angles", angles, "--order", "2")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["spectral_radius"]) < 1.0
        assert len(payload["jacobian"]) == 3

    def test_square_order_one(self, capsys):
        code, out = run(capsys, "stability", "--angles", SQUARE_ARG)
        assert code == 0
        assert float(json.loads(out)["spectral_radius"]) > 1.0


class TestVerify:
    def test_mutation_is_detected(self, monkeypatch):
        # a 1e-9 relative error on a quarter of the kernel's sines, which
        # step and iterate's float kernel both read: some check must fail by
        # a measured value past its bound, not by raising.  Under it the
        # generic-convergence check's orbits run to max_iter (3 s), so the
        # other ten checks decide
        nudge_kernel_sines(monkeypatch, 1e-9)
        monkeypatch.setattr(verify, "CHECKS", tuple(
            c for c in verify.CHECKS if c is not verify.check_generic_convergence))
        assert any(bound < value < math.inf for r in run_all() for _, value, bound in r.gates)

    def test_a_check_that_raises_fails(self, monkeypatch, capsys):
        # an input or solver error inside a check is a failed check, exit 1,
        # and the other checks still run; the table names the error
        def bad_map(a):
            raise QuadrangleError("map broke")

        def bad_solve():
            raise SolverError("solve broke")

        monkeypatch.setattr(verify, "c_map", bad_map)
        monkeypatch.setattr(verify, "solve_cycle_system", bad_solve)
        code, out = run(capsys, "verify")
        *table, summary = out.splitlines()
        assert code == 1 and len(table) == 11 and summary == "9/11 checks passed"
        failed = [line for line in table if line.startswith("FAIL")]
        assert failed == [
            "FAIL  check_boundary_values: raised QuadrangleError('map broke') = inf (bound 0)",
            "FAIL  check_general_cycle_solution: raised SolverError('solve broke') = inf (bound 0)",
        ]


def test_fmt_round_trips(rng):
    for x in rng.uniform(-10, 10, 1000):
        assert float(fmt(x)) == x


def test_cached_parser_answers_as_a_fresh_one(monkeypatch, capsys, tmp_path):
    # main reuses one parser per process; a run of calls through it, a usage
    # error among them, must print and exit as with a parser built per call
    assert quadmap.cli.build_parser() is quadmap.cli.build_parser()
    start = "1.2,2.1,1.5,1.4831853071795865"
    traj = tmp_path / "traj.csv"
    argvs = [
        ["step", "--angles", start, "--json"],
        ["iterate", "--angles", start, "--out", str(traj)],
        ["cycle", "--angles", start],
        ["curve", "--samples", "5"],
        ["solve", "trapezoid"],
        ["basin", "--samples", "0"],
        ["basin", "--samples", "3"],
    ]

    def calls():
        seen = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen, traj.read_bytes()

    cached = calls()
    monkeypatch.setattr(quadmap.cli, "build_parser", quadmap.cli.build_parser.__wrapped__)
    assert calls() == cached
    assert [code for code, _, _ in cached[0]] == [0, 0, 0, 0, 0, 2, 0]


def test_one_exception_class_per_error_exit_code(monkeypatch, capsys):
    # a caller meets two kinds of failure, bad input (exit 2) and a failed
    # solve (exit 3); each has exactly one class, and main maps each raise
    defined = set()
    for info in pkgutil.iter_modules(quadmap.__path__):
        module = importlib.import_module(f"quadmap.{info.name}")
        defined |= {name for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__}
    assert defined == {"QuadrangleError", "SolverError"}
    for exc, code, prefix in ((QuadrangleError, 2, "error"), (SolverError, 3, "solver error")):
        def fail():
            raise exc("reason")
        monkeypatch.setattr(quadmap.cli, "run_all", fail)
        assert main(["verify"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{prefix}: reason\n")


def test_both_error_classes_are_package_exports():
    # README's Errors section names both; each imports from quadmap itself
    assert quadmap.QuadrangleError is core.QuadrangleError
    assert quadmap.SolverError is quadmap.solvers.SolverError
    assert {"QuadrangleError", "SolverError"} <= set(quadmap.__all__)


def test_public_surface_is_pinned():
    # every export is a visible edit here; every other name imports from its module
    assert sorted(quadmap.__all__) == [
        "AngleTuple", "QuadrangleError", "SolverError", "balanced_edges", "iterate", "step",
    ]


def test_readme_imports_exactly_the_root_exports():
    # README's Library block and Errors section are the root's documentation;
    # the Errors line wraps inside backticks, so its names follow "import" past a newline
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"from quadmap import\s+(\w+(?:,\s*\w+)*)", readme)
    assert len(lines) == 2
    names = {name for line in lines for name in re.split(r",\s*", line)}
    assert names == set(quadmap.__all__)


COLD_PATH = """
import sys
import quadmap
import quadmap.cli
loaded = ["numpy" in sys.modules]
out, angles = sys.argv[1], "1.2,2.1,1.5,1.4831853071795865"
for argv in (["step", "--angles", angles, "--json"], ["cycle", "--angles", angles],
             ["iterate", "--angles", angles], ["curve"], ["solve", "trapezoid"]):
    assert quadmap.cli.main(argv + ["--out", out]) == 0, argv
loaded.append("numpy" in sys.modules)
square = ",".join(["1.5707963267948966"] * 4)
for argv in (["solve", "cycle"], ["stability", "--angles", square, "--order", "1"],
             ["stability", "--angles", angles, "--order", "2"]):
    assert quadmap.cli.main(argv + ["--out", out]) == 0, argv
loaded.append("numpy" in sys.modules)
for argv in (["basin", "--samples", "20", "--seed", "42"], ["verify"]):
    assert quadmap.cli.main(argv + ["--out", out]) == 0, argv
    loaded.append("numpy" in sys.modules)
print(loaded)
"""


def test_numpy_stays_out_of_the_cold_path(tmp_path):
    # numpy's import is most of a fresh process's start-up, and no command
    # computes with it: sampling and the closure oracle run on plain floats
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH, str(tmp_path / "out.txt")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # after the imports, after the five commands that never sampled, after
    # solve cycle and stability, after basin, after verify
    assert proc.stdout.strip() == "[False, False, False, False, False]"


COLD_IMPORTS = """
import sys
import argparse, json, collections, functools, math
baseline = set(sys.modules)
import quadmap.cli
print(sorted({"dataclasses", "inspect", "typing"} & (set(sys.modules) - baseline)))
"""


def test_cold_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples: importing `dataclasses`, which pulls in
    # `inspect`, and defining the classes took a fifth of a fresh CLI call.
    # The baseline holds the stdlib modules cli imports itself and whatever
    # site hooks loaded (a .pth file may import typing before any user code)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_IMPORTS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_answers_as_main(capsys):
    # the cli benchmark spawns `python -m quadmap.cli`; each run here is a
    # fresh process through that entry point, with its exit code and streams
    src = Path(__file__).resolve().parent.parent / "src"
    angles = "1.2,2.1,1.5,1.4831853071795865"

    def spawn(*argv):
        return subprocess.run(
            [sys.executable, "-m", "quadmap.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60)

    ok = spawn("step", "--angles", angles, "--json")
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == run(capsys, "step", "--angles", angles, "--json")[1]
    bad = spawn("step", "--angles", "1,1,1,1")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")
    assert spawn("cycle", "--angles", angles, "--max-iter", "5").returncode == 3


WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None   # any import of numpy now raises ImportError
import quadmap.cli
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = quadmap.cli.main(argv)
    outs.append([code, buf.getvalue()])
print(json.dumps(outs))
"""

SOLVER_ARGVS = [
    ["solve", "cycle"],
    ["solve", "cycle", "--initial", "1.5,1.4,1.5"],
    ["stability", "--angles", SQUARE_ARG, "--order", "1"],
    ["stability", "--angles", "1.2,2.1,1.5,1.4831853071795865", "--order", "2"],
    ["basin", "--samples", "20", "--seed", "42"],
    ["verify", "--json"],
]


def test_solver_commands_run_without_numpy(capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(SOLVER_ARGVS)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the same bytes as in this process, where numpy is importable
    assert json.loads(proc.stdout) == [list(run(capsys, *argv)) for argv in SOLVER_ARGVS]


FLOATS = st.one_of(
    st.floats(),   # any double, nan and both infinities included
    st.floats(min_value=-1.0, max_value=4.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-14, 1e-13, 1.4, 1.5, PI / 2, PI, 2 * PI]),
)
ANGLES = st.one_of(
    st.tuples(FLOATS, FLOATS, FLOATS, FLOATS),
    # three angles and the fourth closing the sum, so valid states are common
    st.tuples(*[st.floats(0.0, PI)] * 3).map(lambda t: (*t, 2 * PI - sum(t))),
).map(lambda q: ["--angles=" + ",".join(repr(v) for v in q)])


def _opt(flag, values):
    """The option with a drawn value, or left out."""
    return st.lists(_req(flag, values).map(lambda a: a[0]), max_size=1)


def _req(flag, values):
    """The option with a drawn value; for sizes whose default runs long."""
    return values.map(lambda v: [f"{flag}={v}"])


MAX_ITER = _req("--max-iter", st.integers(-2, 40))

ARGVS = st.one_of(
    st.tuples(st.just(["step"]), ANGLES, st.lists(st.just("--json"), max_size=1)),
    st.tuples(st.sampled_from([["iterate"], ["cycle"]]), ANGLES, MAX_ITER),
    st.tuples(st.just(["basin"]), _req("--samples", st.integers(-1, 2)),
              _opt("--seed", st.integers(-2 ** 64, 2 ** 64)),
              _opt("--margin", st.floats(0.0, 1.5) | st.just(math.nan)), MAX_ITER),
    st.tuples(st.just(["curve"]), _opt("--from", FLOATS), _opt("--to", FLOATS),
              _req("--samples", st.integers(-1, 20))),
    st.tuples(st.sampled_from([["solve", "trapezoid"], ["solve", "cycle"]]),
              _opt("--initial", st.tuples(FLOATS, FLOATS, FLOATS).map(
                  lambda t: ",".join(repr(v) for v in t)))),
    st.tuples(st.just(["stability"]), ANGLES, _opt("--order", st.integers(-1, 3))),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=300, deadline=None)
@given(argv=ARGVS)
def test_cli_fuzz_exits_with_a_defined_code(argv):
    # sizes are bounded above, so every example ends within a few steps;
    # a traceback escapes as an exception and fails the example
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv
