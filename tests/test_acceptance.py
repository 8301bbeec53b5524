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


def test_cli_verify_end_to_end(capsys):
    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    print(f"PASS  cmd_verify exit={code} in {elapsed:.2f}s")
    assert code == 0
    assert "11/11 checks passed" in out
    assert elapsed < 10.0
