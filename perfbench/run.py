"""Benchmark of spherecomplex's certificates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: homology, rigidity, flip-lift, cli (see perfbench/README.md).
The seed makes the inputs; they are built before timing starts.  The
workload's items then run one after another, in passes over the whole
item set, until the next pass would end after ``--seconds`` (at least
one pass).  Every result is checked against an exact oracle; a mismatch
or an exception counts as a failed item and the run goes on.  An item's
latency is the median of its runs; the times of the in-process
workloads are scaled by the machine's speed around each run (see
calibrate.py).  The run, and every process it spawns, uses
PYTHONHASHSEED=0.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead, and the spans are written to
perfbench/out/.  Only one process computes at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import NamedTuple, Optional

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

HASH_SEED = "0"
SETUP_SPAWNS = 11
IMPORT_SPAWNS = 5
IMPORTTIME_SPAWNS = 3

SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
               "workloads.build(sys.argv[2], int(sys.argv[3]), sys.argv[4] == '1', "
               "workloads.CliContext(sys.argv[5])); print('ready', flush=True)")
IMPORT_CHILD = ("import time; t = time.perf_counter(); import spherecomplex.cli; "
                "print(time.perf_counter() - t)")


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n items above
    it; 100 (the maximum) when n is too small to have one."""
    return 100 * (n - 10) // n if n > 10 else 100


def nearest_rank(sorted_values: list[float], q: int) -> float:
    rank = max(1, math.ceil(q * len(sorted_values) / 100))
    return sorted_values[rank - 1]


class Run(NamedTuple):
    """One run of one item: its pass, its index in the item set, when it
    started, the seconds of the timed call (None if it raised) and the
    seconds including the oracle check."""
    pass_no: int
    index: int
    start: float
    latency: Optional[float]
    total: float


def unscaled(start: float, seconds: float) -> float:
    return 1.0


class Passes:
    """Runs items in passes and keeps what the metrics need."""

    def __init__(self, items, seconds: float, tracer=None, log=sys.stderr):
        self.items, self.seconds, self.tracer, self.log = items, seconds, tracer, log
        self.runs: list[Run] = []
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self) -> "Passes":
        start = perf_counter()
        while True:
            if self.tracer is not None:
                self.tracer.phase = len(self.walls)
            t0 = perf_counter()
            for index, item in enumerate(self.items):
                self._one(index, item)
            self.walls.append(perf_counter() - t0)
            if perf_counter() - start + self.walls[-1] > self.seconds:
                return self

    def item_latencies(self, scale=unscaled) -> list[float]:
        """Each item's median latency over the passes, sorted.  One slow
        or fast stretch of the machine moves single runs, not medians."""
        per_item: list[list[float]] = [[] for _ in self.items]
        for r in self.runs:
            if r.latency is not None:
                per_item[r.index].append(r.latency * scale(r.start, r.total))
        return sorted(statistics.median(t) for t in per_item if t)

    def pass_walls(self, scale=unscaled) -> list[float]:
        """The seconds of each pass: the sum of its items' runs, checks
        included."""
        walls = [0.0] * len(self.walls)
        for r in self.runs:
            walls[r.pass_no] += r.total * scale(r.start, r.total)
        return walls

    def _one(self, index: int, item) -> None:
        self.attempted += 1
        tracer = self.tracer
        latency = None
        t0 = perf_counter()
        try:
            if tracer is not None:
                tracer.active = True
            try:
                out = item.run()
            finally:
                if tracer is not None:
                    tracer.active = False
            latency = perf_counter() - t0
            problem = item.check(out)
        except Exception as exc:  # a failed item is counted, not fatal
            problem = "%s: %s" % (type(exc).__name__, exc)
        self.runs.append(Run(len(self.walls), index, t0, latency, perf_counter() - t0))
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print("FAILED %s: %s" % (item.label, problem), file=self.log)


def setup_spans(name: str, seed: int, tiny: bool) -> list[tuple[float, float]]:
    """(start, seconds) of each spawn of a fresh interpreter until it is
    ready: the library imported and the workload's inputs built."""
    argv = [sys.executable, "-c", SETUP_CHILD, HERE, name, str(seed), "1" if tiny else "0", ROOT]
    spans = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=workloads.child_env(ROOT), cwd=ROOT,
                              text=True) as p:
            ready = p.stdout.readline().strip() == "ready"
            spans.append((t0, perf_counter() - t0))
            p.stdout.read()
        if p.returncode != 0 or not ready:
            raise RuntimeError("set-up child failed with exit code %d" % p.returncode)
    return spans


def import_seconds() -> tuple[float, float]:
    """Median ``import spherecomplex.cli`` time, and the median numpy
    share of it as ``python -X importtime`` reports it."""
    env = workloads.child_env(ROOT)

    def spawn(*argv):
        return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)

    plain = [float(spawn("-c", IMPORT_CHILD).stdout) for _ in range(IMPORT_SPAWNS)]
    numpy = []
    for _ in range(IMPORTTIME_SPAWNS):
        lines = spawn("-X", "importtime", "-c", "import spherecomplex.cli").stderr.splitlines()
        us = [int(line.split("|")[1]) for line in lines
              if line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"]
        numpy.append(us[0] / 1e6 if us else 0.0)
    return statistics.median(plain), statistics.median(numpy)


def end_to_end(args) -> tuple[Passes, dict, str]:
    cal = calibrate.Calibration()
    with cal:
        setup = setup_spans(args.workload, args.seed, args.tiny)
        ctx = workloads.CliContext(ROOT)
        items = workloads.build(args.workload, args.seed, args.tiny, ctx)
        passes = Passes(items, args.seconds).run()
    q = tail_percentile(len(items))

    def times(scale):
        lat = passes.item_latencies(scale) or [0.0]
        return {
            "wall_s": (statistics.median(passes.pass_walls(scale)), "s"),
            "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "item_tail_ms": (nearest_rank(lat, q) * 1e3, "ms"),
            "setup_s": (statistics.median(t * scale(t0, t) for t0, t in setup), "s"),
        }

    raw = times(unscaled)
    metrics = times(cal.factor)
    rss_kb = ctx.max_rss_kb if args.workload in workloads.IN_CHILD_PROCESSES else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    note = ("%d items/pass x %d pass(es); item latencies are per-item medians over "
            "the passes; item_tail_ms is their p%d; setup_s is the median of %d "
            "spawns; fail_frac = %d/%d; %s; unscaled: %s"
            % (len(items), len(passes.walls), q, SETUP_SPAWNS, passes.failed,
               passes.attempted, "times scaled by %d calibration samples" % len(cal.samples),
               ", ".join("%s=%.6g" % (k, v) for k, (v, _) in raw.items())))
    return passes, metrics, note


def traced(args) -> tuple[Passes, dict, str]:
    half = args.seconds / 2
    plain = Passes(workloads.build(args.workload, args.seed, args.tiny,
                                   workloads.CliContext(ROOT)), half).run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        items = workloads.build(args.workload, args.seed, args.tiny,
                                workloads.CliContext(ROOT, tracer))
        tracer.active = False
        passes = Passes(items, half, tracer).run()
    finally:
        tracer.uninstall()
    layer = tracer.per_layer(len(passes.walls))
    layer["cli.import_s"], layer["cli.numpy_import_s"] = import_seconds()
    layer["trace.wall_s"] = statistics.median(passes.walls)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(plain.walls)
    metrics = {name: (value, tracing.layer_unit(name)) for name, value in layer.items()}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spans-%s.json" % args.workload), "w") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "extra", "phase"],
                   "spans": tracer.spans}, fh)
    passes.attempted += plain.attempted
    passes.failed += plain.failed
    note = ("per-layer values: set-up once plus the mean of %d traced pass(es); "
            "homology.boundary_cells/_nnz and whitney.k3k13_triples are computed "
            "from shapes, not counted; tracing overhead %.4f s per pass"
            % (len(passes.walls), layer["trace.overhead_s"]))
    return passes, metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spherecomplex", "__init__.py")):
        print("error: no spherecomplex sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spherecomplex
    if not os.path.abspath(spherecomplex.__file__).startswith(SRC + os.sep):
        print("error: imported spherecomplex from %s" % spherecomplex.__file__, file=sys.stderr)
        return 2

    if args.trace:
        passes, metrics, note = traced(args)
    else:
        passes, metrics, note = end_to_end(args)
    print("%s seed %d: %s" % (args.workload, args.seed, note))
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # one CPU for this process and every child: the calibration kernel then
    # times the CPU the set-up and cli processes run on, and one process
    # computes at a time anyway
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the order of the library's sets of strings follows the hash seed,
        # and the search cost of some items follows that order (up to 20%
        # apart for the s = 7 X_sigma); run, and spawn children, with one seed
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
