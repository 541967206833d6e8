"""Command-line front end.

Subcommands::

    constant   sharp constants at one radius
    curve      CSV curves of the radial quantities (or a z profile)
    verify     verification suites: identities | lemmas | sup | conjecture | oracle
    oracle     one direct spherical-quadrature query
    sweep      direction-profile sweep over a radius grid

Exit codes: 0 pass, 1 verified violation, 2 usage error, 3 numerical
failure.  All numbers print with 17 significant digits so text output
round-trips through the JSON reports.  JSON output is byte-identical
across runs for a fixed command line and seed once timing is suppressed
with --no-timing.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import __version__
from .closedform4 import (EvalPoint, c_at_zero, c_closed, disk_constant,
                          frak_c, gradient_bound)
from .exceptions import EvaluationError, QuadratureError
from .kernelint import ParamSet, QuadratureSpec, c_numeric
from .poisson_oracle import (DirectionalQuery, SphereQuadrature,
                             directional_constant_with_error, kernel_mass,
                             poisson_gradient, poisson_kernel)
from . import proofcheck

_EXIT_PASS = 0
_EXIT_VIOLATION = 1
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3

_DEFAULT_SEED = 20220417
_DEFAULT_TOLS = {
    "identities": 1e-7,
    "closed_vs_quadrature": 1e-9,
    "oracle_vs_closed": 1e-6,
    "inequalities": 1e-12,
}


@dataclass(frozen=True)
class RunManifest:
    """Provenance header embedded in (or accompanying) every output."""

    tool_version: str
    command_line: list
    tolerances: dict
    seed: int
    method_tags: list
    wall_time: Optional[float]


class UsageError(Exception):
    pass


def _fmt(x):
    return format(float(x), ".17g")


def _manifest(args, argv, tols, tags, t0):
    wall = None if args.no_timing else time.perf_counter() - t0
    return RunManifest(tool_version=__version__, command_line=list(argv),
                       tolerances=tols, seed=getattr(args, "seed", _DEFAULT_SEED),
                       method_tags=sorted(set(tags)), wall_time=wall)


def _emit_json(payload, out):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, manifest, out):
    lines = [header + "\n"]
    lines += [",".join(_fmt(x) for x in row) + "\n" for row in rows]
    body = "".join(lines)
    mtext = json.dumps({"manifest": asdict(manifest)}, sort_keys=True,
                       indent=2) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(body)
        with open(out + ".manifest.json", "w") as fh:
            fh.write(mtext)
    else:
        sys.stdout.write(body)
        sys.stderr.write(mtext)


def _sphere_quadrature(args):
    return SphereQuadrature(method=args.method.replace("-", "_"),
                            samples=args.samples, seed=args.seed)


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------

def cmd_constant(args, argv):
    t0 = time.perf_counter()
    r, n = args.r, args.n
    if not (0.0 <= r <= 1.0):
        raise UsageError(f"--r must lie in [0, 1], got {r}")

    if n == 4:
        fc = frak_c(r)
        c0 = fc / (1.0 + r)
        gb = fc / (1.0 - r * r) if r < 1.0 else None
        tag = "closed_form"
    elif n == 2:
        gb0 = disk_constant(r) if r < 1.0 else None
        fc = 4.0 / math.pi
        c0 = fc / (1.0 + r)
        gb = gb0
        tag = "closed_form"
    else:
        if not (0.0 < r < 1.0):
            raise UsageError(f"quadrature values for n={n} need 0 < r < 1")
        c0 = c_numeric(EvalPoint(r, 0.0), ParamSet.from_radius(r, n))[0]
        fc = c0 * (1.0 + r)
        gb = c0 / (1.0 - r)
        tag = "quadrature_exploratory"

    manifest = _manifest(args, argv, {}, [tag], t0)
    record = {"r": r, "n": n, "frak_c": fc, "c_at_zero": c0,
              "gradient_bound": gb, "method": tag}
    if args.json:
        _emit_json({"manifest": asdict(manifest), "reports": [record]}, args.out)
    else:
        lines = [f"r = {_fmt(r)}  n = {n}  [{tag}]",
                 f"frak_c         = {_fmt(fc)}",
                 f"c_at_zero      = {_fmt(c0)}",
                 "gradient_bound = "
                 + ("unbounded" if gb is None else _fmt(gb))]
        print("\n".join(lines))
    return _EXIT_PASS


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

_RADIAL_QUANTITIES = {
    "frak_c": frak_c,
    "c_at_zero": lambda r: frak_c(r) / (1.0 + r),
    "gradient_bound": gradient_bound,
}


def cmd_curve(args, argv):
    t0 = time.perf_counter()
    if args.steps < 2:
        raise UsageError("--steps must be >= 2 (empty or degenerate range)")

    if args.quantity == "c_of_z":
        if not (0.0 < args.r < 1.0):
            raise UsageError("c_of_z needs --r strictly inside (0, 1)")
        if args.z_max <= 0.0:
            raise UsageError("--z-max must be positive")
        grid = np.linspace(0.0, args.z_max, args.steps)
        rows = [(z, c_closed(EvalPoint(args.r, float(z)))) for z in grid]
        header = "z,value"
    else:
        fn = _RADIAL_QUANTITIES[args.quantity]
        if not (0.0 <= args.r_min < args.r_max <= 1.0):
            raise UsageError(f"bad radius range [{args.r_min}, {args.r_max}]")
        grid = np.linspace(args.r_min, args.r_max, args.steps)
        rows = [(r, fn(float(r))) for r in grid]
        header = "r,value"

    manifest = _manifest(args, argv, {}, ["closed_form"], t0)
    if args.json:
        payload = {"manifest": asdict(manifest),
                   "reports": [{"quantity": args.quantity, "header": header,
                                "rows": [[float(a), float(b)] for a, b in rows]}]}
        _emit_json(payload, args.out)
    else:
        _emit_csv(header, rows, manifest, args.out)
    return _EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _sup_reports(args):
    n = args.n
    radii = np.linspace(0.05, 0.95, 19)
    reports = []
    for r in radii:
        res = proofcheck.locate_sup(float(r), n=n)
        if n == 4:
            c0 = c_at_zero(float(r))
            ok = res.z_star <= 1e-4 and res.c_star <= c0 * (1.0 + 1e-9)
            worst = res.c_star / c0 - 1.0
            tol, note = 1e-9, "sup of C(., r) must sit at z = 0"
        else:
            ok, worst = True, 0.0
            tol, note = math.inf, "exploratory: maximizer reported, not judged"
        reports.append(proofcheck.VerificationReport(
            case_name=f"sup_n{n}_r{r:.2f}",
            sample_desc="512-point log grid + golden section",
            worst_violation=worst, worst_location=(float(r), res.z_star),
            tolerance=tol, passed=ok, seed=args.seed, method="golden_section",
            note=note))
    return reports


def _oracle_reports(args):
    sq = _sphere_quadrature(args)
    reports = []

    dev = max(abs(kernel_mass(r, args.n) - 1.0) for r in (0.0, 0.3, 0.6, 0.9))
    reports.append(proofcheck.VerificationReport(
        case_name="kernel_mass", sample_desc="r in {0, 0.3, 0.6, 0.9}",
        worst_violation=dev, worst_location=(), tolerance=1e-8,
        passed=dev <= 1e-8, seed=args.seed, method="gauss_legendre",
        note=f"normalized kernel integrates to 1 (n={args.n})"))

    rng = np.random.Generator(np.random.Philox(args.seed))
    worst_fd = 0.0
    for _ in range(5):
        x = 0.6 * rng.standard_normal(args.n)
        x *= 0.7 / max(1.0, np.linalg.norm(x) / 0.7)
        zeta = rng.standard_normal(args.n)
        zeta /= np.linalg.norm(zeta)
        g = poisson_gradient(x, zeta, args.n)
        h = 6e-6
        for i in range(args.n):
            e = np.zeros(args.n)
            e[i] = h
            fd = (poisson_kernel(x + e, zeta, args.n)
                  - poisson_kernel(x - e, zeta, args.n)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(g[i] - fd) / (1.0 + abs(fd)))
    reports.append(proofcheck.VerificationReport(
        case_name="gradient_vs_fd", sample_desc="5 random (x, zeta) pairs",
        worst_violation=float(worst_fd), worst_location=(), tolerance=1e-8,
        passed=bool(worst_fd <= 1e-8), seed=args.seed, method="central_fd",
        note="analytic kernel gradient against finite differences"))

    v, _ = directional_constant_with_error(DirectionalQuery(2, 0.0, 0.0), sq)
    dev2 = abs(v - 4.0 / math.pi)
    reports.append(proofcheck.VerificationReport(
        case_name="disk_center", sample_desc="n=2, r=0, theta=0",
        worst_violation=dev2, worst_location=(), tolerance=1e-8,
        passed=dev2 <= 1e-8, seed=args.seed, method=sq.method,
        note="classical disk constant 4/pi at the center"))

    tol = args.tol if args.tol is not None else _DEFAULT_TOLS["oracle_vs_closed"]
    worst_cmp = 0.0
    where = ()
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        v, _ = directional_constant_with_error(DirectionalQuery(4, r, 0.0), sq)
        d = abs(v - gradient_bound(r)) / gradient_bound(r)
        if d > worst_cmp:
            worst_cmp, where = d, (r,)
    reports.append(proofcheck.VerificationReport(
        case_name="oracle_vs_closed_n4", sample_desc="r in {0.1,...,0.9}",
        worst_violation=worst_cmp, worst_location=where, tolerance=tol,
        passed=worst_cmp <= tol, seed=args.seed, method=sq.method,
        note="spherical quadrature against the closed-form bound"))
    return reports


def cmd_verify(args, argv):
    t0 = time.perf_counter()
    tols = dict(_DEFAULT_TOLS)
    if args.tol is not None:
        tols[args.suite] = args.tol

    if args.suite == "identities":
        tol = args.tol if args.tol is not None else _DEFAULT_TOLS["identities"]
        reports = proofcheck.run_identity_suite(tolerance=tol, seed=args.seed)
        tags = ["richardson_fd", "sobol"]
    elif args.suite == "lemmas":
        tol = args.tol if args.tol is not None else _DEFAULT_TOLS["inequalities"]
        reports = proofcheck.run_inequality_suite(tolerance=tol, seed=args.seed)
        tags = ["grid_sweep"]
    elif args.suite == "sup":
        reports = _sup_reports(args)
        tags = ["golden_section"]
    elif args.suite == "conjecture":
        sq = _sphere_quadrature(args)
        r_grid = np.linspace(0.05, 0.95, args.r_steps)
        theta_grid = np.linspace(0.0, math.pi / 2.0, args.theta_steps)
        reports = [proofcheck.conjecture_report(args.n, r_grid, theta_grid, sq)]
        tags = [sq.method]
    else:  # oracle
        reports = _oracle_reports(args)
        tags = [args.method.replace("-", "_"), "central_fd"]

    manifest = _manifest(args, argv, tols, tags, t0)
    payload = {"manifest": asdict(manifest),
               "reports": [asdict(rep) for rep in reports]}
    if args.json or args.out:
        _emit_json(payload, args.out)
    if not args.json:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status} {rep.case_name}: worst={_fmt(rep.worst_violation)}"
                  f" tol={_fmt(rep.tolerance)}")

    all_pass = all(rep.passed for rep in reports)
    if args.suite == "conjecture" and args.n != 4:
        return _EXIT_PASS  # exploratory in every other dimension
    return _EXIT_PASS if all_pass else _EXIT_VIOLATION


# ---------------------------------------------------------------------------
# oracle / sweep
# ---------------------------------------------------------------------------

def cmd_oracle(args, argv):
    t0 = time.perf_counter()
    if not (0.0 <= args.r < 1.0):
        raise UsageError(f"--r must lie in [0, 1), got {args.r}")
    if not (0.0 <= args.theta <= math.pi / 2.0):
        raise UsageError(f"--theta must lie in [0, pi/2], got {args.theta}")
    sq = _sphere_quadrature(args)
    q = DirectionalQuery(n=args.n, r=args.r, theta=args.theta)
    value, err = directional_constant_with_error(q, sq)
    manifest = _manifest(args, argv, {}, [sq.method], t0)
    record = {"n": args.n, "r": args.r, "theta": args.theta,
              "value": value, "error": err, "method": sq.method}
    if args.json:
        _emit_json({"manifest": asdict(manifest), "reports": [record]}, args.out)
    else:
        print(f"C(n={args.n}, r={_fmt(args.r)}, theta={_fmt(args.theta)})"
              f" = {_fmt(value)}  (error ~ {_fmt(err)})")
    return _EXIT_PASS


def cmd_sweep(args, argv):
    t0 = time.perf_counter()
    sq = _sphere_quadrature(args)
    r_grid = np.linspace(0.05, 0.95, args.r_steps)
    theta_grid = np.linspace(0.0, math.pi / 2.0, args.theta_steps)
    rep = proofcheck.conjecture_report(args.n, r_grid, theta_grid, sq)
    manifest = _manifest(args, argv, {}, [sq.method], t0)
    payload = {"manifest": asdict(manifest), "reports": [asdict(rep)]}
    if args.json or args.out:
        _emit_json(payload, args.out)
    if not args.json:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.case_name}: worst={_fmt(rep.worst_violation)}"
              f" ({rep.note})")
    if args.n != 4:
        return _EXIT_PASS
    return _EXIT_PASS if rep.passed else _EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of text")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--no-timing", action="store_true",
                        help="omit wall time from the manifest (reproducible bytes)")
    common.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    common.add_argument("--tol", type=float, default=None,
                        help="override the suite's default tolerance")
    common.add_argument("--method", choices=["product-gauss", "monte-carlo"],
                        default="product-gauss")
    common.add_argument("--samples", type=int, default=200_000,
                        help="Monte Carlo sample count")

    parser = argparse.ArgumentParser(
        prog="ballgrad",
        description="Sharp gradient bounds for bounded harmonic functions "
                    "on the unit ball, with full numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", parents=[common],
                       help="sharp constants at one radius")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("curve", parents=[common], help="CSV curve output")
    p.add_argument("--quantity",
                   choices=sorted(_RADIAL_QUANTITIES) + ["c_of_z"],
                   default="frak_c")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.5,
                   help="fixed radius for the c_of_z profile")
    p.add_argument("--z-max", type=float, default=10.0)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", parents=[common], help="verification suites")
    p.add_argument("suite", choices=["identities", "lemmas", "sup",
                                     "conjecture", "oracle"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--r-steps", type=int, default=19)
    p.add_argument("--theta-steps", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", parents=[common],
                       help="one spherical-quadrature query")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", parents=[common],
                       help="direction-profile sweep (conjecture check)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--r-steps", type=int, default=19)
    p.add_argument("--theta-steps", type=int, default=50)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (QuadratureError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except ValueError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
