"""Command-line front end: iteration runs, curve/basin data, solvers, verify.

Exit codes: 0 ok, 1 verification failure, 2 usage/validation error,
3 solver non-convergence.  All emitted numbers use 17 significant decimal
digits, which round-trip doubles exactly; JSON carries them as strings.
Each cmd_* returns its exit code and output text; main writes the text once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter

from .core import AngleTuple, QuadrangleError
from .dynamics import c_map, iterate, step
from .sampling import DEFAULT_MARGIN, sample_angle_tuple, substream
from .solvers import (
    ChartPoint,
    SolverError,
    c_map_slope,
    solve_cycle_system,
    solve_trapezoid_fixed_point,
    stability_report,
)
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_floats(text: str, count: int, usage: str):
    parts = text.split(",")
    if len(parts) != count:
        raise QuadrangleError(usage)
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise QuadrangleError(f"bad number in {text!r}") from exc


def _parse_angles(text: str):
    vals = _parse_floats(text, 4, "--angles expects four comma-separated radians")
    return AngleTuple(*vals)


def _emit(text: str, out_path):
    if out_path is not None:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise QuadrangleError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _angles_json(q):
    # q is an AngleTuple or a ChartPoint; both name the four angles
    return {name: fmt(getattr(q, name)) for name in ("alpha", "beta", "gamma", "delta")}


def cmd_step(args) -> tuple[int, str]:
    q = _parse_angles(args.angles)
    out = step(q)
    if args.json:
        return EXIT_OK, _json(_angles_json(out))
    return EXIT_OK, ("alpha,beta,gamma,delta\n"
                     + ",".join(fmt(v) for v in out) + "\n")


def cmd_iterate(args) -> tuple[int, str]:
    q = _parse_angles(args.angles)
    traj = iterate(q, max_iter=args.max_iter)
    lines = ["iter,alpha,beta,gamma,delta"]
    for i, state in enumerate(traj.path):
        lines.append(f"{i}," + ",".join(fmt(v) for v in state))
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_cycle(args) -> tuple[int, str]:
    q = _parse_angles(args.angles)
    traj = iterate(q, max_iter=args.max_iter)
    payload = {
        "classification": traj.classification,
        "iterations": len(traj.path) - 1,
    }
    if traj.cycle:
        payload.update(
            period=traj.cycle.period,
            residual=fmt(traj.cycle.residual),
            match_distance=fmt(traj.cycle.match_distance),
            representatives=[_angles_json(s)
                             for s in traj.cycle.representative_states],
        )
    return (EXIT_OK if traj.cycle else EXIT_NO_CONVERGENCE), _json(payload)


def cmd_curve(args) -> tuple[int, str]:
    lo, hi, n = args.from_, args.to, args.samples
    if not (0.0 < lo < hi <= math.pi / 2) or n < 2:
        raise QuadrangleError("curve needs 0 < from < to <= pi/2 and samples >= 2")
    lines = ["a,c"]
    for i in range(n):
        a = min(lo + (hi - lo) * i / (n - 1), hi)
        lines.append(f"{fmt(a)},{fmt(c_map(a))}")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_basin(args) -> tuple[int, str]:
    if args.samples < 1:
        raise QuadrangleError("basin needs samples >= 1")
    lines = ["sample_id,alpha0,beta0,gamma0,delta0,class,iters,residual,match_distance"]
    counts = Counter()
    for i in range(args.samples):
        q0 = sample_angle_tuple(substream(args.seed, i), margin=args.margin)
        traj = iterate(q0, max_iter=args.max_iter)
        cls = traj.classification
        counts[cls] += 1
        match = traj.cycle.match_distance if traj.cycle else math.inf
        lines.append(",".join([
            str(i),
            *(fmt(v) for v in q0),
            cls,
            str(len(traj.path) - 1),
            fmt(traj.residual),
            fmt(match),
        ]))
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(f"# summary: {summary}")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_solve(args) -> tuple[int, str]:
    if args.target == "trapezoid":
        if args.initial is not None:
            raise QuadrangleError("--initial applies to solve cycle only")
        fp = solve_trapezoid_fixed_point()
        a = fp.attracting.solution
        payload = {
            "a_star": fmt(a),
            "residual": fmt(fp.attracting.residual_norm),
            "iterations": fp.attracting.iterations,
            "provenance": fp.attracting.provenance,
            "derivative_at_a_star": fmt(c_map_slope(a)),
            "repelling_fixed_point": fmt(fp.repelling),
        }
    else:
        initial = None
        if args.initial:
            initial = ChartPoint(*_parse_floats(
                args.initial, 3, "--initial expects alpha,gamma,delta"))
        result = solve_cycle_system(initial=initial)
        payload = {
            **_angles_json(result.solution),
            "residual": fmt(result.residual_norm),
            "iterations": result.iterations,
            "provenance": result.provenance,
        }
    return EXIT_OK, _json(payload)


def cmd_stability(args) -> tuple[int, str]:
    q = _parse_angles(args.angles)
    report = stability_report(q, map_order=args.order)
    payload = {
        "map_order": report.map_order,
        "point": _angles_json(report.point),
        "jacobian": [[fmt(v) for v in row] for row in report.jacobian],
        "eigenvalue_moduli": [fmt(v) for v in report.eigenvalue_moduli],
        "spectral_radius": fmt(report.spectral_radius),
    }
    return EXIT_OK, _json(payload)


def cmd_verify(args) -> tuple[int, str]:
    results = run_all()
    code = EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED
    if args.json:
        return code, _json([
            {"name": r.name, "passed": r.passed,
             "gates": [{"label": label, "value": fmt(value), "bound": fmt(bound)}
                       for label, value, bound in r.gates]}
            for r in results
        ])
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return code, "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The quadmap argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="quadmap",
        description="Balanced-quadrangle dynamics: iteration, solvers, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, angles=True, max_iter=True):
        if angles:
            p.add_argument("--angles", required=True,
                           help="four comma-separated angles in radians")
        if max_iter:
            p.add_argument("--max-iter", type=int, default=10000)

    p = sub.add_parser("step", help="apply the map once")
    common(p, max_iter=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("iterate", help="full trajectory as CSV")
    common(p)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("cycle", help="cycle classification as JSON")
    common(p)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser("curve", help="CSV samples of the trapezoid submap")
    p.add_argument("--from", dest="from_", type=float, default=1.4)
    p.add_argument("--to", type=float, default=math.pi / 2)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("basin", help="random-seed convergence experiment as CSV")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    common(p, angles=False)
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("solve", help="fixed-point / cycle-system solvers")
    p.add_argument("target", choices=("trapezoid", "cycle"))
    p.add_argument("--initial", default=None,
                   help="alpha,gamma,delta starting point for the cycle system")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("stability", help="Jacobian spectrum at a state")
    common(p, max_iter=False)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verify", help="reproduce every published constant")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed its usage error or --help
        return exc.code
    try:
        code, text = args.func(args)
        _emit(text, args.out)
    except QuadrangleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return code


if __name__ == "__main__":
    sys.exit(main())
