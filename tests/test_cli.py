import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quadmap
import quadmap.cli
import quadmap.core as core
from quadmap.cli import fmt, main
from quadmap.core import EdgeTuple, QuadrangleError
from quadmap.solvers import SolverError
from quadmap.verify import run_all

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
        # --out names a directory: an OSError becomes a usage error, not a
        # traceback with the exit code that means "verification failed"
        code, err = run_bounded(capsys, 10, "step", "--angles", SQUARE_ARG,
                                "--out", str(tmp_path))
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
    ("solve", "trapezoid"),
    ("solve", "cycle"),
]


def test_thin_trapezoid_is_rejected_with_one_message(capsys):
    # a valid state whose endpoint edge passes pi + 1e-12; step's validated
    # types and iterate's float kernel must give the same reason
    angles = "0.0001,3.1414926535897933,3.1414926535897933,0.0001"
    errs = set()
    for argv in (["step"], ["iterate", "--max-iter", "5"], ["cycle"]):
        code, err = run_bounded(capsys, 10, *argv, "--angles", angles)
        assert code == 2
        errs.add(err)
    assert errs == {"error: x3 = 3.1415926535915304 outside allowed edge range\n"}


@pytest.mark.parametrize("argv", TOL_ARGVS)
def test_nan_tol_exit_2(capsys, argv):
    # d < nan never holds, so a NaN tolerance used to spend the whole budget;
    # in the solvers it slipped past the tol < floor guards
    code, err = run_bounded(capsys, 10, *argv, "--tol", "nan")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", TOL_ARGVS)
def test_inf_tol_exit_2(capsys, argv):
    # every distance is below inf: cycle and basin reported a period-1
    # other_cycle after 3 steps, and the solvers returned their first iterate
    code, err = run_bounded(capsys, 10, *argv, "--tol", "inf")
    assert code == 2
    assert err.startswith("error:")


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
BASIN_20_SEED_42_SHA256 = "d1c8b775ccaece577c9960d5899f0b21f25710fe69c92e84c960e4f13e34fde9"
BASIN_1000_SEED_42_SHA256 = "32f88f2652513cd703fe2f1222f16f82cc38c042b821b26aab77f72537cfe0a0"
README_ITERATE_CSV_SHA256 = "61e77b0e6c5618c42e46bcd65d06b6b10418db993498ed44db9e96a766796f1e"
README_SOLVE_CYCLE_SHA256 = "36134aad2a77a71b8d6b79761e382e23b4c3d85557f0e0a43516914cdde50946"
# verify adds every float sum left to right, so its bytes are the same on
# every supported Python (sum() rounds differently from 3.12 on)
VERIFY_JSON_SHA256 = "17533f340d6b17983b46a18ffded4631cd5a4d8bcbeed2c1037264adea5bc818"


def test_basin_stdout_bytes_are_pinned(capsys):
    code, out = run(capsys, "basin", "--samples", "20", "--seed", "42")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIN_20_SEED_42_SHA256


def test_larger_basin_stdout_bytes_are_pinned(capsys):
    # the 20-sample basin meets few detector paths; this run meets far more
    # and still takes about a second
    code, out = run(capsys, "basin", "--samples", "1000", "--seed", "42")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIN_1000_SEED_42_SHA256


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
        # the generator splits a seed into 32-bit words; a shift loop that
        # waits for 0 never ends on a negative int
        code, err = run_bounded(capsys, 10, "basin", "--samples", "1", "--seed", seed)
        assert code == 2
        assert err == f"error: seed word {seed} must be a non-negative integer\n"

    def test_different_seeds_differ(self, capsys):
        _, out1 = run(capsys, "basin", "--samples", "5", "--seed", "1")
        _, out2 = run(capsys, "basin", "--samples", "5", "--seed", "2")
        assert out1 != out2


class TestSolve:
    def test_trapezoid(self, capsys):
        code, out = run(capsys, "solve", "trapezoid", "--tol", "1e-13")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["a_star"]) == pytest.approx(
            1.48342158769377952440379165224, abs=1e-12)
        assert float(payload["repelling_fixed_point"]) == PI / 2
        assert 0.75 <= float(payload["derivative_at_a_star"]) <= 0.85

    def test_cycle(self, capsys):
        code, out = run(capsys, "solve", "cycle")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["alpha"]) == pytest.approx(
            1.54819305248669225152933985324, abs=1e-9)
        assert float(payload["beta"]) == pytest.approx(
            1.82405188512759300508614890573, abs=1e-9)

    @pytest.mark.parametrize("flag,value", [
        ("--bracket-hi", repr(PI / 2)),
        ("--bracket-hi", "2"),
        ("--bracket-lo", "nan"),
    ])
    def test_trapezoid_bad_bracket_exit_2(self, capsys, flag, value):
        # the bracket is fixed: c(a) = a has one root in (0, pi/2), so no
        # bracket flag is accepted, whatever its value
        with pytest.raises(SystemExit) as exc:
            main(["solve", "trapezoid", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err

    def test_trapezoid_huge_tol_stops_after_one_newton_step(self, capsys):
        code, out = run(capsys, "solve", "trapezoid", "--tol", "1e300")
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

    @pytest.mark.parametrize("initial", ["a,b,c", "3,3,3"])
    def test_cycle_invalid_initial_exit_2(self, capsys, initial):
        # a non-number, and a start whose implied beta is negative
        code, err = run_bounded(capsys, 30, "solve", "cycle", "--initial", initial)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("initial, message", [
        ("a,b,c", "bad number in 'a,b,c'"),
        ("3,3,3", "beta = -2.7168146928204138 must lie strictly inside (0, pi)"),
    ])
    def test_cycle_invalid_initial_message(self, capsys, initial, message):
        # the solver validates its start itself; the CLI's words stay the same
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
    def test_exit_zero_and_table(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 11

    def test_json_results(self, capsys):
        code, out = run(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 11
        assert all(r["passed"] for r in payload)

    def test_mutation_is_detected(self, monkeypatch):
        # swap two components of the first degenerate constructor; the
        # verification battery must notice
        original = core.degenerate_edges_first

        def broken(alpha, delta):
            e = original(alpha, delta)
            return EdgeTuple(e.x1, e.x4, e.x3, e.x2, degenerate=True)

        monkeypatch.setattr(core, "degenerate_edges_first", broken)
        try:
            detected = not all(r.passed for r in run_all())
        except Exception:
            # a solver blowing up on corrupted dynamics also counts
            detected = True
        assert detected


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
TOL = _opt("--tol", FLOATS)

ARGVS = st.one_of(
    st.tuples(st.just(["step"]), ANGLES, st.lists(st.just("--json"), max_size=1)),
    st.tuples(st.sampled_from([["iterate"], ["cycle"]]), ANGLES, TOL, MAX_ITER),
    st.tuples(st.just(["basin"]), _req("--samples", st.integers(-1, 2)),
              _opt("--seed", st.integers(-2 ** 64, 2 ** 64)),
              _opt("--margin", st.floats(0.0, 1.5) | st.just(math.nan)), TOL, MAX_ITER),
    st.tuples(st.just(["curve"]), _opt("--from", FLOATS), _opt("--to", FLOATS),
              _req("--samples", st.integers(-1, 20))),
    st.tuples(st.sampled_from([["solve", "trapezoid"], ["solve", "cycle"]]), TOL,
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
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3), argv
