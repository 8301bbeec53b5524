"""Acceptance battery: one test per verification criterion, plus the
end-to-end CLI gate.  Run with `pytest -s tests/test_acceptance.py` to see
the per-criterion pass/fail lines.
"""

import math
import time

import pytest

import quadmap.verify as verify
from quadmap.cli import main
from quadmap.verify import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_criterion(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_boundary_check_reads_the_map_near_zero(monkeypatch):
    # a map that is right at pi/2 but off by 1e-9 near 0 must fail the
    # check: the limit at 0 is measured through c_map, not a second formula
    original = verify.c_map

    def shifted(a):
        return original(a) + (1e-9 if a < 0.01 else 0.0)

    monkeypatch.setattr(verify, "c_map", shifted)
    assert shifted(math.pi / 2) == math.pi / 2
    assert not verify.check_boundary_values().passed


def test_boundary_check_compares_the_closed_form_with_the_map(monkeypatch):
    # a closed form off by 1e-12 at a = 0.5 must fail the check: it is
    # compared with a double step of the full map at the trapezoid state
    original = verify.c_map

    def shifted(a):
        return original(a) + (1e-12 if a == 0.5 else 0.0)

    monkeypatch.setattr(verify, "c_map", shifted)
    assert not verify.check_boundary_values().passed


# each verify gate holds the printed figure to what the code attains; a
# shift well inside the earlier, looser gate must now fail the check


def test_a_star_gate_is_a_few_ulp(monkeypatch):
    # the solve lands 2 ulp below A_STAR, exactly on the bound
    (_, err, bound), = verify.check_trapezoid_fixed_point().gates
    assert err == bound == 2 * math.ulp(verify.A_STAR)
    original = verify.solve_trapezoid_fixed_point

    def shifted():
        fp = original()
        a = fp.attracting.solution + 5 * math.ulp(verify.A_STAR)
        return fp._replace(attracting=fp.attracting._replace(solution=a))

    monkeypatch.setattr(verify, "solve_trapezoid_fixed_point", shifted)
    assert not verify.check_trapezoid_fixed_point().passed


def test_cycle_angle_gate_is_1e_14(monkeypatch):
    original = verify.solve_cycle_system

    def shifted():
        result = original()
        sol = result.solution._replace(alpha=result.solution.alpha + 1e-12)
        return result._replace(solution=sol)

    monkeypatch.setattr(verify, "solve_cycle_system", shifted)
    assert not verify.check_general_cycle_solution().passed


def test_cycle_residual_gate_is_1e_14(monkeypatch):
    original = verify._cycle_residual

    def shifted(p):
        da, dg, dd = original(p)
        return da, dg + 1e-12, dd

    monkeypatch.setattr(verify, "_cycle_residual", shifted)
    assert not verify.check_general_cycle_solution().passed


def test_slope_gate_is_1e_3(monkeypatch):
    # c'(a*) reads 0.80325; shifted by 2e-3 it reads 0.8052
    original = verify.c_map_slope
    monkeypatch.setattr(verify, "c_map_slope", lambda a: original(a) + 2e-3)
    assert not verify.check_slope_at_fixed_point().passed


@pytest.mark.parametrize("distance", ["relabel_distance", "rotation_distance"],
                         ids=["mirror", "double_step"])
def test_cycle_dynamics_gates_are_1e_14(monkeypatch, distance):
    # |step(q*) - mirror(q*)| reads 4.4e-16 and |step^2(q*) - q*| 6.7e-16
    original = getattr(verify, distance)
    monkeypatch.setattr(verify, distance, lambda *args: original(*args) + 1e-13)
    assert not verify.check_cycle_dynamics().passed


def test_trapezoid_basin_gate_is_1e_10(monkeypatch):
    # the worst match distance reads 4.1e-12; 1e-9 is still inside the
    # classification tolerance, so only the distance gate can reject it
    original = verify.iterate

    def shifted(q0, **kwargs):
        traj = original(q0, **kwargs)
        return traj._replace(cycle=traj.cycle._replace(match_distance=1e-9))

    monkeypatch.setattr(verify, "iterate", shifted)
    result = verify.check_trapezoid_basin()
    assert not result.passed
    assert [value for _, value, _ in result.gates] == [0, 1e-9]


@pytest.mark.parametrize("order", [1, 2], ids=["square", "cycle"])
def test_spectral_radius_gates_are_1e_4(monkeypatch, order):
    # rho(square) reads 1.11072 and rho(cycle, f^2) 0.91045
    original = verify.stability_report

    def shifted(q, map_order):
        report = original(q, map_order=map_order)
        if map_order != order:
            return report
        return report._replace(spectral_radius=report.spectral_radius + 2e-4)

    monkeypatch.setattr(verify, "stability_report", shifted)
    assert not verify.check_stability_spectra().passed


class SolverCalled(Exception):
    pass


def test_only_two_checks_run_a_solver(monkeypatch):
    # the others start from the published table in dynamics, which these
    # two hold the solvers to; each of them ran a solver of its own
    def solver(*args, **kwargs):
        raise SolverCalled

    monkeypatch.setattr(verify, "solve_trapezoid_fixed_point", solver)
    monkeypatch.setattr(verify, "solve_cycle_system", solver)
    solving = set()
    for check in CHECKS:
        try:
            result = check()
        except SolverCalled:
            solving.add(check.__name__)
        else:
            assert result.passed, f"{result.name}: {result.detail}"
    assert solving == {"check_trapezoid_fixed_point", "check_general_cycle_solution"}


def test_cli_verify_end_to_end(capsys):
    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    print(f"PASS  cmd_verify exit={code} in {elapsed:.2f}s")
    assert code == 0
    assert "11/11 checks passed" in out
    assert elapsed < 10.0
