"""Workload process of the benchmark, started by run.py.

    python3 perfbench/child.py setup --workload W
    python3 perfbench/child.py run --workload W --seed N --seconds S \
        --trace 0|1 --tmpdir DIR [--spans FILE]

Both modes import ballgrad and make the workload's warm-up call, then
report ``time.monotonic()`` at that point, so the parent can time set-up
from its own spawn; ``run`` goes on with passes of the workload until
its time is spent.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced.  The last stdout line is a JSON
record.
"""

import argparse
import json
import platform
import resource
import sys
import time
import traceback


class Runner:
    """Runs passes and keeps the operation tally."""

    def __init__(self, workload, ctx, wrong_answer):
        self.workload = workload
        self.ctx = ctx
        self.wrong_answer = wrong_answer
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}  # first message of each failing operation label

    def _fail(self, label, message):
        self.failed += 1
        if label not in self.failures:
            self.failures[label] = message
            print(f"perfbench: {label} failed: {message}", file=sys.stderr)

    def run_pass(self, tracer=None):
        ops = self.workload.make_pass(self.ctx, self.passes)
        self.passes += 1
        t0 = time.perf_counter()
        pass_span = tracer.open("pass") if tracer else None
        for label, op in ops:
            self.attempted += 1
            op_span = tracer.open("op") if tracer else None
            try:
                op()
            except self.wrong_answer as exc:
                self.wrong += 1
                self._fail(label, f"wrong answer: {exc}")
            except Exception as exc:  # counted and reported, the run goes on
                self._fail(label, "".join(
                    traceback.format_exception_only(type(exc), exc)).strip())
            finally:
                if tracer:
                    tracer.close(op_span)
        if tracer:
            tracer.close(pass_span)
        return time.perf_counter() - t0

    def run_for(self, seconds, tracer=None):
        """Passes until ``seconds`` would be exceeded (at least one); returns
        the wall time of each, and with a tracer the per-layer metrics."""
        walls, layers = [], []
        t_end = time.perf_counter() + seconds
        while True:
            if tracer:
                tracer.reset_counts()
                first = len(tracer.start)
                self.ctx.json_bytes = 0
            walls.append(self.run_pass(tracer))
            if tracer:
                m = tracer.layer_metrics(first, len(tracer.start))
                m["cli.json_bytes"] = self.ctx.json_bytes
                layers.append(m)
            if time.perf_counter() + sum(walls) / len(walls) > t_end:
                return walls, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description="benchmark workload process")
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tmpdir")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import ballgrad
    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    workload.warmup()
    first_call_s = time.perf_counter() - t1
    record = {"ready": time.monotonic(), "import_s": import_s,
              "first_call_s": first_call_s, "ballgrad_file": ballgrad.__file__}

    if args.mode == "run":
        ctx = workloads.Context(args.seed, args.tmpdir)
        runner = Runner(workload, ctx, workloads.WrongAnswer)
        budget = args.seconds / 2.0 if args.trace else args.seconds
        walls, _ = runner.run_for(budget)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["walls"] = walls
        if args.trace:
            from layertrace import Tracer, median_metrics
            tracer = Tracer()
            tracer.install()
            try:
                traced_walls, layers = runner.run_for(budget, tracer)
            finally:
                tracer.uninstall()
            record["traced_walls"] = traced_walls
            record["layers"] = median_metrics(layers)
            record["calls"] = layers[-1]["_calls"]
            if args.spans:
                tracer.save(args.spans)
        record.update(passes=runner.passes, attempted=runner.attempted,
                      failed=runner.failed, wrong=runner.wrong,
                      failures=runner.failures)
        record["versions"] = {"python": platform.python_version(),
                              "numpy": numpy.__version__, "scipy": scipy.__version__,
                              "ballgrad": ballgrad.__version__}
        record["backend"] = ballgrad.backend_name()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
