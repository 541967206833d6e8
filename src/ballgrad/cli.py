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

Every command writes its result through ``_write``: the JSON document
``{"manifest": ..., "reports": [...]}`` goes to --out, or to stdout
under --json; without --json the text goes to stdout.  ``curve``'s CSV
is the one other output, with its manifest in a sidecar.  The reports
and verdicts of the verify suites are proofcheck's; this module maps
options to grids, tags and tolerances.  Every command that queries the
Poisson oracle takes its product rule (Monte Carlo is a library-only
cross-check), so none has a method or sample-count option.

Exit codes: 0 pass, 1 verified violation, 2 usage error, 3 numerical
failure.  All numbers print with 17 significant digits so text output
round-trips through the JSON reports.  JSON output is standard JSON (no
NaN or Infinity) and byte-identical across runs on one host for a fixed
command line and seed once timing is suppressed with --no-timing.
"""

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .closedform4 import (SERIES_R_THRESHOLD, EvalPoint, _c_at_zero_arr,
                          _c_closed_arr, _frak_c_arr, _gradient_bound_arr,
                          disk_constant, frak_c, gradient_bound)
from .exceptions import EvaluationError, QuadratureError
from .kernelint import ParamSet, c_numeric
from .poisson_oracle import (DEFAULT_SEED, PRODUCT_GAUSS, DirectionalQuery,
                             directional_constant_with_error)
from . import proofcheck

_EXIT_PASS = 0
_EXIT_VIOLATION = 1
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3

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


class UsageError(Exception):
    pass


def _fmt(x):
    return format(float(x), ".17g")


def _field_dict(obj):
    """A dataclass's fields as a flat dict; ``json.dumps`` encodes it to
    the bytes of ``dataclasses.asdict``, without that deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _manifest(args, argv, tols, tags, t0):
    """The provenance header of every output."""
    return {"tool_version": __version__, "command_line": list(argv),
            "tolerances": tols, "seed": args.seed,
            "method_tags": sorted(set(tags)),
            "wall_time": None if args.no_timing else time.perf_counter() - t0}


def _write(args, argv, t0, tols, tags, reports, text):
    """Write a command's result: the JSON document, standard JSON, goes
    to --out, or to stdout under --json; without --json, ``text()`` goes
    to stdout.  The manifest is built, and ``text`` called, only when
    written."""
    if args.json or args.out:
        doc = json.dumps({"manifest": _manifest(args, argv, tols, tags, t0),
                          "reports": reports},
                         sort_keys=True, indent=2, allow_nan=False) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
    if not args.json:
        print(text())


def _emit_csv(header, rows, manifest, out):
    lines = [header + "\n"]
    lines += [",".join(_fmt(x) for x in row) + "\n" for row in rows]
    body = "".join(lines)
    mtext = json.dumps({"manifest": manifest}, sort_keys=True,
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

    record = {"r": r, "n": n, "frak_c": fc, "c_at_zero": c0,
              "gradient_bound": gb, "method": tag}
    _write(args, argv, t0, {}, [tag], [record], lambda: "\n".join([
        f"r = {_fmt(r)}  n = {n}  [{tag}]",
        f"frak_c         = {_fmt(fc)}",
        f"c_at_zero      = {_fmt(c0)}",
        "gradient_bound = " + ("unbounded" if gb is None else _fmt(gb))]))
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

    if args.json:
        record = {"quantity": args.quantity, "header": header,
                  "rows": [[float(a), float(b)] for a, b in rows]}
        _write(args, argv, t0, {}, ["closed_form"], [record], None)
    else:
        _emit_csv(header, rows, _manifest(args, argv, {}, ["closed_form"], t0),
                  args.out)
    return _EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, argv):
    t0 = time.perf_counter()
    tols = dict(_DEFAULT_TOLS)
    if args.suite in _TOL_KEYS and args.tol is not None:
        tols[_TOL_KEYS[args.suite]] = args.tol

    if args.suite == "identities":
        reports = proofcheck.run_identity_suite(tolerance=tols["identities"])
        tags = ["complex_step", "sobol"]
    elif args.suite == "lemmas":
        reports = proofcheck.run_inequality_suite(tolerance=tols["inequalities"])
        tags = ["grid_sweep"]
    elif args.suite == "sup":
        reports = proofcheck.sup_reports(args.n,
                                         np.linspace(0.05, 0.95, args.r_steps))
        tags = ["log_grid"]
    elif args.suite == "conjecture":
        r_grid = np.linspace(0.05, 0.95, args.r_steps)
        theta_grid = np.linspace(0.0, math.pi / 2.0, args.theta_steps)
        reports = [proofcheck.conjecture_report(args.n, r_grid, theta_grid,
                                                args.seed)]
        tags = [PRODUCT_GAUSS]
    else:  # oracle
        reports = proofcheck.oracle_reports(args.n, args.seed,
                                            tols["oracle_vs_closed"])
        tags = [PRODUCT_GAUSS, "central_fd"]

    _write(args, argv, t0, tols, tags, [_field_dict(rep) for rep in reports],
           lambda: "\n".join(
               f"{'PASS' if rep.passed else 'FAIL'} {rep.case_name}: "
               f"worst={_fmt(rep.worst_violation)} tol="
               + ("none" if rep.tolerance is None else _fmt(rep.tolerance))
               for rep in reports))
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
    q = DirectionalQuery(n=args.n, r=args.r, theta=args.theta)
    value, err = directional_constant_with_error(q)
    record = {"n": args.n, "r": args.r, "theta": args.theta,
              "value": value, "error": err, "method": PRODUCT_GAUSS}
    _write(args, argv, t0, {}, [PRODUCT_GAUSS], [record], lambda: (
        f"C(n={args.n}, r={_fmt(args.r)}, theta={_fmt(args.theta)})"
        f" = {_fmt(value)}  (error ~ {_fmt(err)})"))
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
    common.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED)

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
            ("conjecture", [radii, angles], {"type": _int_at_least(2)}),
            ("oracle", [], {"type": _int_at_least(2)})):
        p = suites.add_parser(suite, parents=[common, *parents])
        p.add_argument("--n", default=4, **n_kwargs)
        if suite in _TOL_KEYS:
            key = _TOL_KEYS[suite]
            p.add_argument("--tol", type=_finite_float(positive=False),
                           help=f"override the {key} tolerance "
                                f"({_DEFAULT_TOLS[key]:g})")
        p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", parents=[common],
                       help="one spherical-quadrature query")
    p.add_argument("--n", type=_int_at_least(2), default=4)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", parents=[common, radii, angles],
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
