"""Command line interface.

    weyldisc classify  <scenario> [flags]   limit-type verdict + report + disc CSV
    weyldisc criteria  <scenario> [--M expr]  coefficient-based limit-point checks
    weyldisc ivp       <scenario> --c1 X --c2 Y --N n   trajectory dump
    weyldisc disc      <scenario> --N n     one Weyl disc
    weyldisc eigen     <scenario> --lambda-re x --beta b --N n   eigenvalue residual
    weyldisc examples                       list the built-in registry
    weyldisc check     <scenario>           run the invariant suite

A scenario is a built-in name or a path to a scenario JSON file.  Exit
codes: 0 success, 2 scenario problem, 3 inadmissible spectral parameter,
4 precision exhausted, 5 undecided classification under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import checks as checks_mod
from .backends import format_complex, format_real
from .errors import (
    EvaluationError,
    InadmissibleLambdaError,
    PrecisionExhaustedError,
    ScenarioError,
    WeyldiscError,
)
from .criteria import ratio_limit_point_check, weighted_limit_point_check
from .recurrence import BoundaryData, propagate
from .reporting import dump_report, report_body, write_disc_csv
from .scenarios import (
    Scenario,
    builtin_doc,
    builtin_names,
    builtin_scenario,
    resolve_scenario,
)
from .weyl import BoundaryAngles, classify, regular_eigen_residual, weyl_disc

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_INADMISSIBLE = 3
EXIT_PRECISION = 4
EXIT_UNDECIDED = 5


def _finite_float(text: str) -> float:
    """A float flag's value; inf and nan are refused like any non-number."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _add_common_flags(sub, out: bool = True):
    sub.add_argument("scenario", help="builtin name or scenario JSON path")
    sub.add_argument("--lambda-re", type=_finite_float, default=None)
    sub.add_argument("--lambda-im", type=_finite_float, default=None)
    sub.add_argument("--alpha", type=_finite_float, default=None)
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--bits", type=int, default=None)
    if out:
        sub.add_argument("--out", type=Path, default=Path("."),
                         help="directory for report artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyldisc",
        description="half-line mixed-order matrix difference equations: "
                    "solve, analyze, classify",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="limit-point/limit-circle verdict")
    _add_common_flags(p)
    p.add_argument("--strict", action="store_true",
                   help="exit 5 when the verdict is undecided")
    p.add_argument("--cross-check", action="store_true",
                   help="also classify at a second lam (1+i) and compare")

    p = subs.add_parser("criteria", help="coefficient-based limit-point checks")
    _add_common_flags(p)
    p.add_argument("--M", dest="weight", default=None,
                   help="weight expression for the weighted criterion")

    p = subs.add_parser("ivp", help="solve an initial value problem")
    _add_common_flags(p)
    p.add_argument("--c1", type=_finite_float, required=True, help="y1 at the origin")
    p.add_argument("--c2", type=_finite_float, required=True,
                   help="quasi-difference just before the origin")
    p.add_argument("--N", type=int, required=True)

    p = subs.add_parser("disc", help="one Weyl disc")
    _add_common_flags(p)
    p.add_argument("--N", type=int, required=True)

    p = subs.add_parser("eigen", help="regular boundary-problem residual")
    _add_common_flags(p)
    p.add_argument("--beta", type=_finite_float, default=0.0)
    p.add_argument("--N", type=int, required=True)

    subs.add_parser("examples", help="list the built-in registry")

    p = subs.add_parser("check", help="run the invariant suite")
    _add_common_flags(p, out=False)

    return parser


def _scenario_with_overrides(args) -> Scenario:
    scenario = resolve_scenario(args.scenario)
    updates = {}
    for flag in ("lambda_re", "lambda_im", "alpha", "n_max", "bits"):
        if getattr(args, flag, None) is not None:
            updates[flag] = getattr(args, flag)
    if "bits" in updates:
        updates["precision"] = dataclasses.replace(
            scenario.precision, mantissa_bits=updates.pop("bits")
        )
    return dataclasses.replace(scenario, **updates) if updates else scenario


def _cmd_classify(args) -> int:
    scenario = _scenario_with_overrides(args)
    model = scenario.model()
    kernel = model.kernel
    cross = complex(1, 1) if args.cross_check else None
    started = time.perf_counter()
    report = classify(model, scenario.lam, scenario.alpha,
                      scenario.classify_options(cross_check=cross))
    elapsed = time.perf_counter() - started

    csv_name = f"{scenario.name}_discs.csv"
    chi_sums = report.chi_profile.partial_sums if report.chi_profile else None
    write_disc_csv(args.out / csv_name, kernel, report.disc_samples,
                   report.psi_profile.partial_sums, chi_sums)
    ratio = ratio_limit_point_check(model, scenario.n_max)
    payload = {
        "ratio_criterion": _verdict_payload(ratio),
        "verdict": report.verdict,
        "l2_solution_count": report.l2_solution_count,
        "m_limit": format_complex(kernel, report.m_limit),
        "chi_method": report.chi_method,
        "psi_growth": report.psi_profile.growth_verdict,
        "chi_growth": report.chi_profile.growth_verdict if report.chi_profile else None,
        "final_radius": format_real(kernel, report.disc_samples[-1].radius),
        "disc_csv": csv_name,
        "reason": report.reason,
        "cross_check": (
            None if report.cross_check is None
            else {"lam": format_complex(kernel, report.cross_check[0]),
                  "verdict": report.cross_check[1]}
        ),
    }
    path = dump_report(report_body("classify", scenario, payload),
                       args.out / f"{scenario.name}_report.json")
    print(f"{scenario.name}: {report.verdict}"
          + (f" ({report.reason})" if report.reason else ""))
    print(f"  l2 solutions: {report.l2_solution_count}"
          f"  chi route: {report.chi_method}  backend: {kernel.name}")
    print(f"  report: {path}  discs: {args.out / csv_name}")
    print(f"  elapsed: {elapsed:.2f} s")
    if args.strict and report.verdict == "undecided":
        return EXIT_UNDECIDED
    return EXIT_OK


def _verdict_payload(v) -> dict:
    return {
        "outcome": v.outcome,
        "failing_condition": v.failing_condition,
        "reason": v.reason,
        "witnesses": v.witnesses,
    }


def _cmd_criteria(args) -> int:
    scenario = _scenario_with_overrides(args)
    model = scenario.model()
    ratio = ratio_limit_point_check(model, scenario.n_max)
    payload = {"ratio_criterion": _verdict_payload(ratio)}
    print(f"{scenario.name}: ratio criterion (|c/p| bounded, sum 1/|p| divergent): "
          f"{ratio.outcome}"
          + (f" [{ratio.failing_condition}]" if ratio.failing_condition else ""))
    if args.weight is not None:
        weighted = weighted_limit_point_check(model, args.weight, scenario.n_max)
        payload["weighted_criterion"] = _verdict_payload(weighted)
        payload["weight"] = args.weight
        print(f"{scenario.name}: weighted criterion (M = {args.weight}): "
              f"{weighted.outcome}"
              + (f" [{weighted.failing_condition}]" if weighted.failing_condition else ""))
    else:
        payload["weighted_criterion"] = None
        print("  (pass --M <expr> to run the weighted criterion)")
    dump_report(report_body("criteria", scenario, payload),
                args.out / f"{scenario.name}_criteria.json")
    return EXIT_OK


def _cmd_ivp(args) -> int:
    scenario = _scenario_with_overrides(args)
    model = scenario.model()
    kernel = model.kernel
    traj = propagate(model, scenario.lam, BoundaryData(args.c1, args.c2), args.N)
    rows = []
    for t in range(model.a - 1, args.N + 1):
        rows.append({
            "t": t,
            "y1": format_complex(kernel, traj.y1_at(t)),
            "y2": format_complex(kernel, traj.y2_at(t)),
            "quasi_diff": format_complex(kernel, traj.y1q_at(t)),
        })
    rows.append({"t": args.N + 1, "y1": format_complex(kernel, traj.y1_at(args.N + 1)),
                 "y2": None, "quasi_diff": None})
    dump_report(report_body("ivp", scenario, {"c1": args.c1, "c2": args.c2,
                                              "N": args.N, "trajectory": rows}),
                args.out / f"{scenario.name}_ivp.json")
    def fmt(z):
        return f"{float(z.real):.6g}{float(z.imag):+.6g}j"

    print(f"{'t':>5s}  {'y1':>24s}  {'y2':>24s}  {'y1q':>24s}")
    for t in range(model.a - 1, args.N + 1):
        y1, y2, qd = traj.y1_at(t), traj.y2_at(t), traj.y1q_at(t)
        print(f"{t:>5d}  {fmt(y1):>24s}  {fmt(y2):>24s}  {fmt(qd):>24s}")
    return EXIT_OK


def _cmd_disc(args) -> int:
    scenario = _scenario_with_overrides(args)
    model = scenario.model()
    kernel = model.kernel
    disc = weyl_disc(model, scenario.lam, scenario.alpha, args.N)
    payload = {
        "N": disc.n,
        "center": format_complex(kernel, disc.center),
        "radius": format_real(kernel, disc.radius),
    }
    dump_report(report_body("disc", scenario, payload),
                args.out / f"{scenario.name}_disc.json")
    print(f"{scenario.name}: N={disc.n} "
          f"center=({payload['center']['re']}, {payload['center']['im']}) "
          f"radius={payload['radius']}")
    return EXIT_OK


def _cmd_eigen(args) -> int:
    scenario = _scenario_with_overrides(args)
    model = scenario.model()
    kernel = model.kernel
    angles = BoundaryAngles(alpha=scenario.alpha, beta=args.beta)
    residual = regular_eigen_residual(model, scenario.lam, angles, args.N)
    mag = float(abs(residual))
    payload = {
        "N": args.N,
        "beta": args.beta,
        "residual": format_complex(kernel, residual),
        "residual_abs": mag,
    }
    dump_report(report_body("eigen", scenario, payload),
                args.out / f"{scenario.name}_eigen.json")
    print(f"{scenario.name}: |U2(psi)| = {mag:.6e} at lam = {scenario.lam}")
    return EXIT_OK


def _cmd_examples(_args) -> int:
    for name in builtin_names():
        scenario = builtin_scenario(name)
        coeffs = ", ".join(
            f"{c}={getattr(scenario, c)}" for c in ("p", "q", "c", "h", "d")
        )
        print(f"{name:8s} {builtin_doc(name)}")
        print(f"         {coeffs}")
    return EXIT_OK


def _cmd_check(args) -> int:
    scenario = _scenario_with_overrides(args)
    model = scenario.model()
    top = min(scenario.n_max, model.a + 40)
    results = checks_mod.run_suite(model, scenario.lam, scenario.alpha, top=top)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{status} {res.name:32s} worst={res.worst:.3e} tol={res.tol:.1e}")
    print(f"{scenario.name}: {len(results) - failed}/{len(results)} invariants hold")
    return EXIT_OK if failed == 0 else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "criteria": _cmd_criteria,
    "ivp": _cmd_ivp,
    "disc": _cmd_disc,
    "eigen": _cmd_eigen,
    "examples": _cmd_examples,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except ValueError as exc:
        # bad run parameters (window sizes, angles out of range, ...)
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except PrecisionExhaustedError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except InadmissibleLambdaError as exc:
        print(f"inadmissible lam: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except WeyldiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
