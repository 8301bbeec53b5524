import json
import math
import signal

import pytest

import quadmap.core as core
from quadmap.cli import fmt, main
from quadmap.core import EdgeTuple
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


@pytest.mark.parametrize("argv", [
    ("cycle", "--angles", "1.2,2.1,1.5,1.4831853071795865"),
    ("iterate", "--angles", "1.2,2.1,1.5,1.4831853071795865"),
    ("basin", "--samples", "1"),
])
def test_nan_tol_exit_2(capsys, argv):
    # d < nan never holds, so a NaN tolerance used to spend the whole budget
    code, err = run_bounded(capsys, 10, *argv, "--tol", "nan")
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

    def test_cycle_bad_initial_exit_2(self, capsys):
        assert main(["solve", "cycle", "--initial", "1.0,2.0"]) == 2

    @pytest.mark.parametrize("initial", ["a,b,c", "3,3,3"])
    def test_cycle_invalid_initial_exit_2(self, capsys, initial):
        # a non-number, and a start whose implied beta is negative
        code, err = run_bounded(capsys, 30, "solve", "cycle", "--initial", initial)
        assert code == 2
        assert err.startswith("error:")


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
