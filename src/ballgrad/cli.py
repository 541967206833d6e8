"""Command-line front end.

Subcommands::

    constant   sharp constants at one radius
    curve      CSV curves of the radial quantities (or a z profile)
    verify     verification suites: identities | lemmas | sup | conjecture | oracle
    oracle     one direct spherical-quadrature query
    sweep      direction-profile sweep over a radius grid (verify conjecture)

Each command, and each verify suite, has its own argparse parser, which
takes only the options it reads and checks their bounds in their types;
options follow the suite name (``verify sup --r-steps 5``).  The parser
is built once per process, on the first call of ``main``.

Exit codes: 0 pass, 1 verified violation, 2 usage error, 3 numerical
failure.  All numbers print with 17 significant digits so text output
round-trips through the JSON reports.  JSON output is byte-identical
across runs on one host for a fixed command line and seed once timing
is suppressed with --no-timing.
"""

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import __version__
from .closedform4 import (SERIES_R_THRESHOLD, EvalPoint, _c_at_zero_arr,
                          _c_closed_arr, _frak_c_arr, _gradient_bound_arr,
                          disk_constant, frak_c, gradient_bound)
from .exceptions import EvaluationError, QuadratureError
from .kernelint import ParamSet, c_numeric
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
    "oracle_vs_closed": 1e-6,
    "inequalities": 1e-12,
}
#: Suite -> the key of _DEFAULT_TOLS that its --tol overrides.
_TOL_KEYS = {
    "identities": "identities",
    "lemmas": "inequalities",
    "oracle": "oracle_vs_closed",
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


def _field_dict(obj):
    """A dataclass's fields as a flat dict; ``json.dumps`` encodes it to
    the bytes of ``dataclasses.asdict``, without that deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _manifest(args, argv, tols, tags, t0):
    wall = None if args.no_timing else time.perf_counter() - t0
    return RunManifest(tool_version=__version__, command_line=list(argv),
                       tolerances=tols, seed=args.seed,
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
    mtext = json.dumps({"manifest": _field_dict(manifest)}, sort_keys=True,
                       indent=2) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(body)
        with open(out + ".manifest.json", "w") as fh:
            fh.write(mtext)
    else:
        sys.stdout.write(body)
        sys.stderr.write(mtext)


def _int_at_least(least):
    """argparse type: an integer no smaller than ``least``."""
    def int_at_least(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return int_at_least


def _finite_float(positive):
    """argparse type: a finite float, > 0 if ``positive``, else >= 0."""
    def finite_float(text):
        value = float(text)
        if not (math.isfinite(value) and (value > 0.0 if positive
                                          else value >= 0.0)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if positive else '>='} 0, "
                f"got {text}")
        return value
    return finite_float


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
        c0 = float(_c_at_zero_arr(r))
        gb = gradient_bound(r) if r < 1.0 else None
        tag = "series_branch" if r < SERIES_R_THRESHOLD else "closed_form"
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
        _emit_json({"manifest": _field_dict(manifest), "reports": [record]},
                   args.out)
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
    "frak_c": _frak_c_arr,
    "c_at_zero": _c_at_zero_arr,
    "gradient_bound": _gradient_bound_arr,
}


def cmd_curve(args, argv):
    t0 = time.perf_counter()
    if args.quantity == "c_of_z":
        if not (0.0 < args.r < 1.0):
            raise UsageError("c_of_z needs --r strictly inside (0, 1)")
        grid = np.linspace(0.0, args.z_max, args.steps)
        values = _c_closed_arr(args.r, grid)
        header = "z,value"
    else:
        if not (0.0 <= args.r_min < args.r_max <= 1.0):
            raise UsageError(f"bad radius range [{args.r_min}, {args.r_max}]")
        if args.quantity == "gradient_bound" and args.r_max >= 1.0:
            raise UsageError("gradient_bound diverges at r = 1: "
                             f"--r-max must be < 1, got {args.r_max}")
        grid = np.linspace(args.r_min, args.r_max, args.steps)
        values = _RADIAL_QUANTITIES[args.quantity](grid)
        header = "r,value"
    rows = list(zip(grid, values))

    manifest = _manifest(args, argv, {}, ["closed_form"], t0)
    if args.json:
        payload = {"manifest": _field_dict(manifest),
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
    radii = np.linspace(0.05, 0.95, args.r_steps)
    # the n = 4 sup must equal C(0, r): one array call for all radii
    c0s = _c_at_zero_arr(radii).tolist() if n == 4 else [None] * radii.size
    reports = []
    for r, c0, res in zip(radii, c0s, proofcheck.locate_sup(radii, n=n)):
        if n == 4:
            ok = res.z_star <= 1e-4 and res.c_star <= c0 * (1.0 + 1e-9)
            worst = res.c_star / c0 - 1.0
            tol, note = 1e-9, "sup of C(., r) must sit at z = 0"
        else:
            ok, worst = True, 0.0
            tol, note = math.inf, "exploratory: maximizer reported, not judged"
        reports.append(proofcheck.VerificationReport(
            case_name=f"sup_n{n}_r{r:.2f}",
            sample_desc="512-point log grid",
            worst_violation=worst, worst_location=(float(r), res.z_star),
            tolerance=tol, passed=ok, method="log_grid",
            note=note))
    return reports


def _oracle_reports(args, tol):
    """The oracle self-tests.  The oracle's values are judged against
    the known constants by fixed tolerances under the product rule, and
    under Monte Carlo within proofcheck._MC_FLAT_SIGMAS of their standard
    errors, which each report records as its tolerance."""
    sq = _sphere_quadrature(args)
    sigmas = proofcheck._MC_FLAT_SIGMAS if sq.method == "monte_carlo" else None
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

    v, se = directional_constant_with_error(DirectionalQuery(2, 0.0, 0.0), sq)
    dev2 = abs(v - 4.0 / math.pi)
    tol2 = 1e-8 if sigmas is None else sigmas * se
    reports.append(proofcheck.VerificationReport(
        case_name="disk_center", sample_desc="n=2, r=0, theta=0",
        worst_violation=dev2, worst_location=(), tolerance=tol2,
        passed=dev2 <= tol2, seed=args.seed, method=sq.method,
        note="classical disk constant 4/pi at the center"))

    # (relative deviation, its tolerance, r); the worst exceeds its
    # tolerance by the most
    cases = []
    radii = (0.1, 0.3, 0.5, 0.7, 0.9)
    for r, ref in zip(radii, _gradient_bound_arr(np.array(radii)).tolist()):
        v, se = directional_constant_with_error(DirectionalQuery(4, r, 0.0), sq)
        cases.append((abs(v - ref) / ref,
                      tol if sigmas is None else sigmas * se / ref, r))
    worst_cmp, tol_cmp, r = max(cases, key=lambda c: c[0] - c[1])
    reports.append(proofcheck.VerificationReport(
        case_name="oracle_vs_closed_n4", sample_desc="r in {0.1,...,0.9}",
        worst_violation=worst_cmp, worst_location=(r,), tolerance=tol_cmp,
        passed=worst_cmp <= tol_cmp, seed=args.seed, method=sq.method,
        note="spherical quadrature against the closed-form bound"))
    return reports


def cmd_verify(args, argv):
    t0 = time.perf_counter()
    tols = dict(_DEFAULT_TOLS)
    if args.suite in _TOL_KEYS and args.tol is not None:
        if args.suite == "oracle" and args.method == "monte-carlo":
            raise UsageError("--tol sets the product-rule tolerance; under "
                             "--method monte-carlo verify oracle is judged "
                             "by the standard error")
        tols[_TOL_KEYS[args.suite]] = args.tol

    if args.suite == "identities":
        reports = proofcheck.run_identity_suite(tolerance=tols["identities"])
        tags = ["complex_step", "sobol"]
    elif args.suite == "lemmas":
        reports = proofcheck.run_inequality_suite(tolerance=tols["inequalities"])
        tags = ["grid_sweep"]
    elif args.suite == "sup":
        reports = _sup_reports(args)
        tags = ["log_grid"]
    elif args.suite == "conjecture":
        sq = _sphere_quadrature(args)
        r_grid = np.linspace(0.05, 0.95, args.r_steps)
        theta_grid = np.linspace(0.0, math.pi / 2.0, args.theta_steps)
        reports = [proofcheck.conjecture_report(args.n, r_grid, theta_grid, sq)]
        tags = [sq.method]
    else:  # oracle
        reports = _oracle_reports(args, tols["oracle_vs_closed"])
        tags = [args.method.replace("-", "_"), "central_fd"]

    manifest = _manifest(args, argv, tols, tags, t0)
    payload = {"manifest": _field_dict(manifest),
               "reports": [_field_dict(rep) for rep in reports]}
    if args.json or args.out:
        _emit_json(payload, args.out)
    if not args.json:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status} {rep.case_name}: worst={_fmt(rep.worst_violation)}"
                  f" tol={_fmt(rep.tolerance)}")

    return _EXIT_PASS if all(rep.passed for rep in reports) else _EXIT_VIOLATION


# ---------------------------------------------------------------------------
# oracle
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
        _emit_json({"manifest": _field_dict(manifest), "reports": [record]},
                   args.out)
    else:
        print(f"C(n={args.n}, r={_fmt(args.r)}, theta={_fmt(args.theta)})"
              f" = {_fmt(value)}  (error ~ {_fmt(err)})")
    return _EXIT_PASS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The ``ballgrad`` parser: built on first use, then shared."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of text")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--no-timing", action="store_true",
                        help="omit wall time from the manifest (reproducible bytes)")
    common.add_argument("--seed", type=_int_at_least(0), default=_DEFAULT_SEED)

    # sphere quadrature: commands that query the Poisson oracle
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument("--method", choices=["product-gauss", "monte-carlo"],
                            default="product-gauss")
    quadrature.add_argument("--samples", type=_int_at_least(2), default=200_000,
                            help="Monte Carlo sample count")
    radii = argparse.ArgumentParser(add_help=False)
    radii.add_argument("--r-steps", type=_int_at_least(1), default=19,
                       help="radii in [0.05, 0.95]")
    angles = argparse.ArgumentParser(add_help=False)
    angles.add_argument("--theta-steps", type=_int_at_least(2), default=50,
                        help="angles in [0, pi/2]: theta = 0 and at least "
                             "one other")

    # options are spelled in full: abbreviated, `curve --n 5` would parse
    # as --no-timing
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="ballgrad",
        description="Sharp gradient bounds for bounded harmonic functions "
                    "on the unit ball, with full numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=strict)

    p = sub.add_parser("constant", parents=[common],
                       help="sharp constants at one radius")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=_int_at_least(2), default=4)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("curve", parents=[common], help="CSV curve output")
    p.add_argument("--quantity",
                   choices=sorted(_RADIAL_QUANTITIES) + ["c_of_z"],
                   default="frak_c")
    p.add_argument("--steps", type=_int_at_least(2), default=101)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.5,
                   help="fixed radius for the c_of_z profile")
    p.add_argument("--z-max", type=_finite_float(positive=True), default=10.0)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="verification suites")
    suites = p.add_subparsers(dest="suite", required=True, parser_class=strict)
    # the identity and lemma registries are the n = 4 closed forms
    only_4 = {"type": int, "choices": [4]}
    for suite, parents, n_kwargs in (
            ("identities", [], only_4),
            ("lemmas", [], only_4),
            ("sup", [radii], {"type": _int_at_least(3)}),
            ("conjecture", [quadrature, radii, angles],
             {"type": _int_at_least(2)}),
            ("oracle", [quadrature], {"type": _int_at_least(2)})):
        p = suites.add_parser(suite, parents=[common, *parents])
        p.add_argument("--n", default=4, **n_kwargs)
        if suite in _TOL_KEYS:
            key = _TOL_KEYS[suite]
            p.add_argument("--tol", type=_finite_float(positive=False),
                           help=f"override the {key} tolerance "
                                f"({_DEFAULT_TOLS[key]:g})")
        p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", parents=[common, quadrature],
                       help="one spherical-quadrature query")
    p.add_argument("--n", type=_int_at_least(2), default=4)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", parents=[common, quadrature, radii, angles],
                       help="direction-profile sweep (verify conjecture)")
    p.add_argument("--n", type=_int_at_least(2), default=4)
    p.set_defaults(func=cmd_verify, suite="conjecture")

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
