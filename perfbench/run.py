"""zetacheck benchmark: seeded, closed-loop, single-process workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload quadrant --seed 0 --seconds 36 --trace 0

Workloads (see workloads.py): quadrant, oscillatory, series.  One caller
runs the workload's batch of audits again and again (a pass) until the time
budget is spent; every pass replays the same seeded inputs, is checked at
the suites' tolerances, and must serialise to the same report digest.

--trace 0 prints the end-to-end metrics: wall_s (median pass), audit_p50_ms
(median per-report latency), setup_s (median of fresh-interpreter import
plus warm-up), peak_rss_mb and ok_frac (1 - failed/attempted).
--trace 1 spends half the budget untraced and half traced, and prints the
per-layer metrics of spans.py.  Spans of the last traced pass and a summary
of every run, raw timings included, are written under perfbench/out/.

Times are reported at a reference machine speed (see SpeedProbe): on a
shared host the raw wall time of a whole run drifts by 10-30% with other
tenants' load, which would hide any regression smaller than that.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 5
# Single caller, no helper threads: pin BLAS/OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("quadrant", "oscillatory", "series"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


def measure_setup(workload: str, tmp_dir: str, speed) -> list[float]:
    """Set-up seconds of SETUP_RUNS fresh interpreters, after one untimed
    start that compiles bytecode and warms the file cache."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_RUNS + 1):
        for _ in range(3):
            speed.sample()
        done = subprocess.run([sys.executable, probe, workload, tmp_dir],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class SpeedProbe:
    """Machine speed, sampled every EVERY_S seconds of a run.

    The host is shared: other tenants slow every instruction stream by up
    to 2x for seconds to minutes at a time, so raw run medians drift by
    10-30%.  While the probe is entered, a SIGALRM handler times a fixed
    kernel (workloads.speed_kernel) every EVERY_S seconds, inside or
    between audit calls alike.  `clock()` leaves out the time the kernel
    used, so timed regions do not pay for it.  Timing metrics are
    multiplied by `scale()`, which puts them in seconds at the speed where
    the kernel takes REF_S.
    """

    REF_S = 0.005
    EVERY_S = 0.2

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.used = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a signal that lands inside the handler
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.used += dt
        self._busy = False

    def clock(self) -> float:
        """perf_counter minus kernel time; retried if a sample lands mid-read."""
        while True:
            used = self.used
            now = time.perf_counter()
            if used == self.used:
                return now - used

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        return self.REF_S / statistics.median(self.samples)


def pass_digest(result) -> str:
    return hashlib.sha256("\n".join(result.digest_parts).encode()).hexdigest()


def run_passes(workloads, workload, calls, tmp_dir, budget, speed,
               tracer=None):
    """Closed loop: passes until the next one would overrun the budget.

    At least two passes run, so their digests can be compared.  Returns the
    pass results and, when traced, each pass's (counts, self times).
    """
    from spans import pass_layers

    on_call = tracer.set_audit if tracer is not None else None
    results, layers, laps = [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        results.append(workloads.run_pass(workload, calls, tmp_dir,
                                          speed.clock, on_call))
        if tracer is not None:
            layers.append(pass_layers(tracer.spans))
        now = time.perf_counter()
        laps.append(now - lap)
        if len(results) >= 2 and now - start + statistics.median(laps) > budget:
            return results, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zetacheck", "__init__.py")):
        print(f"error: no zetacheck sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import spans
    import workloads
    import zetacheck
    if not os.path.abspath(zetacheck.__file__).startswith(SRC + os.sep):
        print(f"error: imported zetacheck from {zetacheck.__file__}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        return _run(args, workloads, spans, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _run(args, workloads, spans, tmp_dir) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calls = workloads.build_calls(args.workload, args.seed)
    kernel = workloads.speed_kernel(args.workload)
    setup_speed, speed = SpeedProbe(kernel), SpeedProbe(kernel)
    setup = ([] if args.trace
             else measure_setup(args.workload, tmp_dir, setup_speed))

    budget = args.seconds / 2 if args.trace else args.seconds
    traced, layers = [], []
    with speed:
        plain, _ = run_passes(workloads, args.workload, calls, tmp_dir,
                              budget, speed)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = spans.Tracer(speed.clock)
            tracer.install()
            try:
                traced, layers = run_passes(workloads, args.workload, calls,
                                            tmp_dir, budget, speed, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}"
                                          f"-seed{args.seed}.jsonl"))

    everything = plain + traced
    problems = []
    digests = sorted({pass_digest(r) for r in everything})
    if len(digests) != 1:
        problems.append(f"report digests differ between passes: {digests}")
    counts_digest = None
    if layers:
        counts = [c for c, _ in layers]
        if any(c != counts[0] for c in counts):
            problems.append("traced passes differ in calls or evals")
        counts_digest = hashlib.sha256(
            json.dumps(counts[0], sort_keys=True).encode()).hexdigest()
    attempted = sum(r.attempted for r in everything)
    failures = [f for r in everything for f in r.failures]
    latencies = [x for r in plain for x in r.latencies_ms]
    walls = [r.wall_s for r in plain]
    last = everything[-1]
    report_stats = {
        "bytes": last.report_bytes,
        "confirmed": last.statuses.count("CONFIRMED"),
        "violated": last.statuses.count("VIOLATED"),
        "inconclusive": last.statuses.count("INCONCLUSIVE"),
    }

    scale = speed.scale()
    if args.trace:
        metrics = spans.layer_metrics(
            layers[-1][0], [s for _, s in layers],
            [r.wall_s for r in traced], walls, report_stats, scale)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls) * scale,
                       "unit": "s"},
            "audit_p50_ms": {"value": statistics.median(latencies) * scale,
                             "unit": "ms"},
            "setup_s": {"value": statistics.median(setup)
                        * setup_speed.scale(), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - len(failures) / attempted,
                        "unit": "ratio"},
        }
    correct = not failures and not problems
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced),
        "audits_per_pass": plain[0].attempted,
        "audit_latency_samples": len(latencies),
        "audit_p90_ms": (statistics.quantiles(latencies, n=10)[-1]
                         if len(latencies) > 1 else latencies[0]),
        "pass_wall_s": walls, "setup_runs_s": setup,
        "raw_wall_s": statistics.median(walls),
        "raw_audit_p50_ms": statistics.median(latencies),
        "raw_setup_s": statistics.median(setup) if setup else None,
        "speed_scale": scale, "speed_samples": len(speed.samples),
        "setup_speed_scale": setup_speed.scale() if setup else None,
        "failed_frac": len(failures) / attempted,
        "report_digest": digests[0] if len(digests) == 1 else digests,
        "counts_digest": counts_digest, "report_stats": report_stats,
        "deterministic_counts": layers[-1][0] if layers else None,
        "failures": failures, "problems": problems, "metrics": metrics,
    }
    with open(os.path.join(OUT, f"summary-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print(f"{tag}: {len(plain)} passes + {len(traced)} traced, "
          f"{plain[0].attempted} audits per pass, "
          f"{len(latencies)} latency samples")
    print(f"report digest {summary['report_digest']}")
    if counts_digest:
        print(f"counts digest {counts_digest}")
    print(f"failed_frac {summary['failed_frac']:.6g} ratio "
          f"({len(failures)}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in sorted(set(failures))[:20] + problems:
        print(f"FAIL {line}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
