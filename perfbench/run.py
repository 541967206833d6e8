"""Benchmark of ballgrad: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload direction_sweep --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ballgrad from
``src/`` there and refuses to run without it.  Workloads:
direction_sweep, verify_suites, point_oracles (README.md says why).

Set-up is timed ``SETUP_RUNS + 1`` times, each from the spawn of a fresh
interpreter to its first checked answer.  The workload then runs in one
process, with the BLAS thread pools pinned to one thread, for
``--seconds``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` spends half the time untraced and half traced and reports the
per-layer metrics.  The last stdout line is the JSON result; the line
before it holds the run metadata, and the whole record is written under
``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("direction_sweep", "verify_suites", "point_oracles")
SETUP_RUNS = 2
DEADLINE_S = 170.0
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}

_UNITS = {"_s": "s", "_share": "ratio", "us_per_call": "us",
          "ns_per_point": "ns", "_bytes": "B", "bytes_computed": "B",
          "_mb": "MB", "_rate": "ratio"}


def unit_of(name):
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class HarnessError(Exception):
    pass


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _child(argv, env, deadline):
    """Run child.py to completion; returns its record with ``setup_s``."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {argv[:3]} ran past the deadline") from exc
    if proc.returncode != 0:
        raise HarnessError(f"child {argv[:3]} exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(rec["ballgrad_file"]).resolve().is_relative_to(ROOT / "src"):
        raise HarnessError(f"imported ballgrad from {rec['ballgrad_file']}, not src/")
    rec["setup_s"] = rec["ready"] - spawned
    return rec


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    OUT.mkdir(exist_ok=True)
    setups = [_child(["setup", "--workload", workload], env, deadline)
              for _ in range(SETUP_RUNS)]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        argv = ["run", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--tmpdir", tmp]
        if trace:
            argv += ["--spans", str(OUT / f"{workload}.spans.npz")]
        rec = _child(argv, env, deadline)
    setups.append(rec)

    median = statistics.median
    wall_s = median(rec["walls"])
    if trace:
        metrics = {"setup.import_s": median(s["import_s"] for s in setups),
                   "setup.first_call_s": median(s["first_call_s"] for s in setups),
                   **rec["layers"],
                   "trace.wall_s": median(rec["traced_walls"]),
                   "trace.overhead_s": median(rec["traced_walls"]) - wall_s}
    else:
        metrics = {"setup_s": median(s["setup_s"] for s in setups),
                   "wall_s": wall_s,
                   "peak_rss_mb": rec["peak_rss_mb"],
                   "ok_rate": 1.0 - rec["failed"] / rec["attempted"]}
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": rec["versions"]["python"], "numpy": rec["versions"]["numpy"],
            "scipy": rec["versions"]["scipy"], "backend": rec["backend"],
            "child_env": THREAD_ENV, "passes": rec["passes"],
            "setup_samples_s": [s["setup_s"] for s in setups],
            "walls_s": rec["walls"], "traced_walls_s": rec.get("traced_walls"),
            "wrong": rec["wrong"], "failures": rec["failures"]}
    result = {"correct": rec["wrong"] == 0, "attempted": rec["attempted"],
              "failed": rec["failed"],
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"meta": meta, "result": result, "calls": rec.get("calls")}, fh, indent=1)
    return meta, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ballgrad" / "__init__.py").is_file():
        print(f"perfbench: no ballgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        meta, result = run(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
