"""Benchmark of the signflip public API: one closed-loop caller.

Run from the repository root:

    python3 bench/run.py --workload warpbreaks-1e6 --seed 1 --seconds 20 --trace 0

Workloads: warpbreaks-1e6, scenarios-desk, wide-n-quadratic (see
bench/workloads.py and bench/README.md).  The caller sends its next
operation only after the previous one returned, for ``--seconds``
seconds, and checks every result.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` is the separate traced run: operations alternate between
untraced and traced (same inputs, in pairs), and it reports per-layer
self times, exact counters, per-layer memory peaks and the tracing
overhead, and writes every span to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric by name and unit, the environment and the run's details.  The
library is imported from src/ next to this directory and nowhere else;
without it the benchmark exits with an error and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# the keys of workloads.WORKLOADS, which imports numpy only inside set-up
WORKLOAD_NAMES = ("warpbreaks-1e6", "scenarios-desk", "wide-n-quadratic")
SETUP_SAMPLES = 3   # set-ups per untraced run: this process plus two fresh ones
TAIL_BEYOND = 10    # samples that must lie beyond the reported tail percentile

END_TO_END = {  # name -> unit, in BENCHMARK.json order
    "setup_s": "s",
    "call_tail_ms": "ms",
    "flips_per_s": "1/s",
    "reps_per_s": "1/s",
    "peak_mem_mb": "MB",
}
SELF_TIMES = (  # metric, span: self time per operation, summed over its calls
    ("flips.make_flip_plan.s", "flips.make_flip_plan"),
    ("engine.flip_statistics.s", "engine.flip_statistics"),
    ("engine.effective_contributions.s", "engine.effective_contributions"),
    ("engine.decide.s", "engine.decide"),
    ("engine.flip_test.self_s", "engine.flip_test"),
    ("glm.fit_null.s", "glm.fit_null"),
    ("glm.fit_full.s", "glm.fit_full"),
    ("glm.score_contributions.s", "glm.score_contributions"),
    ("baselines.parametric_score_test.s", "baselines.parametric_score_test"),
    ("baselines.sandwich_wald_test.s", "baselines.sandwich_wald_test"),
    ("baselines.one_sample_t.s", "baselines.one_sample_t"),
    ("design.build_design.s", "design.build_design"),
    ("simulate.run_scenario.self_s", "simulate.run_scenario"),
)
COUNTERS = (  # metric, unit, the counts summed into it
    ("flips.make_flip_plan.calls", "count", ("flips.make_flip_plan.calls",)),
    ("flips.sign_bytes", "B", ("flips.sign_bytes",)),
    ("engine.sign_madds", "count", ("engine.sign_madds",)),
    ("glm.fit_null.calls", "count", ("glm.fit_null.calls",)),
    ("glm.fit_full.calls", "count", ("glm.fit_full.calls",)),
    ("glm.irls_iterations", "count", ("glm.irls_iterations",)),
    ("baselines.calls", "count", ("baselines.parametric_score_test.calls",
                                  "baselines.sandwich_wald_test.calls",
                                  "baselines.one_sample_t.calls")),
    ("simulate.failed_reps", "count", ("simulate.failed_reps",)),
)
PEAKS = (("flips.make_flip_plan.peak_mb", "flips.make_flip_plan"),
         ("engine.flip_statistics.peak_mb", "engine.flip_statistics"))
SCENARIO_NAMES = ("overdispersed-nuisance", "ignored-latent", "power-correct-model",
                  "hetero-t", "multivariate")
# printed above the result, not part of it; call_p50_ms is left out of the
# result because it jumps between the host's fast and slow modes (README)
DETAIL_UNITS = {"call_p50_ms": "ms", "setup_s_samples": "s"} | {
    f"ms_per_rep.{s}": "ms" for s in SCENARIO_NAMES}
PER_LAYER = (
    {m: "s" for m, _ in SELF_TIMES}
    | {m: unit for m, unit, _ in COUNTERS}
    | {m: "MB" for m, _ in PEAKS}
    | {"trace.overhead_frac": "ratio", "trace.op_ms": "ms",
       "trace.unattributed_frac": "ratio"}
    | {f"ms_per_rep.{s}": "ms" for s in SCENARIO_NAMES}
)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def single_blas_thread():
    """Run BLAS on the caller's thread only, like the single caller itself.

    A second BLAS thread would wait on whichever core the host's other
    tenants slow down.  Must run before numpy is imported; child
    processes inherit it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """Threads the loaded OpenBLAS uses, asked of the library itself."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn(), "queried"
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "configured"


def environment():
    import platform

    import numpy
    import scipy

    threads, source = blas_threads()
    return {"nproc": nproc(), "blas_threads": threads, "blas_threads_source": source,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def import_signflip():
    """Import the package from src/ beside this directory, never elsewhere."""
    if not (SRC / "signflip" / "__init__.py").is_file():
        raise SystemExit(f"bench: no signflip sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import signflip

    if Path(signflip.__file__).resolve().parent != SRC / "signflip":
        raise SystemExit(f"bench: imported signflip from {signflip.__file__}, not {SRC}")
    return signflip


def set_up(args, traced):
    """Import, build the inputs, make one warm-up call (operation 0).

    Returns (workload, warm-up result, seconds, tracer or None).  The
    benchmark's own modules import numpy, so they are imported here too,
    inside the timed set-up.
    """
    t0 = time.perf_counter()
    sf = import_signflip()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](sf, args.seed, args.size == "tiny")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(sf)
        with tracer.operation("warmup"):
            warm = workload.run(0)
    else:
        warm = workload.run(0)
    return workload, warm, time.perf_counter() - t0, tracer


def probe_set_up(args):
    """Set-up time of a fresh interpreter, measured in a child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """Operations, failures and check outcomes of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = 0
        self.failed_ops = 0   # raised, or failed a check
        self.failed_reps = 0  # scenario repetitions listed in failed_reps

    def attempt(self, k):
        """Run and check operation k; return (seconds, result or None)."""
        self.ops += 1
        t0 = time.perf_counter()
        try:
            res = self.workload.run(k)
        except Exception:  # a failed operation is counted; the run goes on
            traceback.print_exc()
            self.failed_ops += 1
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        self.check(k, res)
        return seconds, res

    def check(self, k, res):
        from workloads import CheckFailed

        self.failed_reps += self.workload.failed_reps(res)
        try:
            self.workload.check(k, res)
        except CheckFailed as exc:
            self.fail(f"operation {k}: {exc}")

    def finish(self):
        from workloads import CheckFailed

        try:
            self.workload.final_check()
        except CheckFailed as exc:
            self.fail(str(exc))

    def fail(self, message):
        print(f"bench: check failed: {message}", file=sys.stderr)
        self.failed_ops += 1

    @property
    def attempted(self):
        return self.ops * (1 + self.workload.scenario_reps)

    @property
    def failed(self):
        return self.failed_ops + self.failed_reps


def closed_loop(seconds, step):
    """Call step(i) for i = 0, 1, ... until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        step(i)
        i += 1


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile); with too few samples, the maximum.
    """
    lat = sorted(latencies)
    i = max(len(lat) - 1 - TAIL_BEYOND, 0) if len(lat) > TAIL_BEYOND else len(lat) - 1
    return lat[i], 100.0 * (i + 1) / len(lat)


def ms_per_rep(workload, results):
    """Median seconds per scenario over the results, per repetition, in ms."""
    per = {s: [] for s in SCENARIO_NAMES}
    for res in results:
        for name, seconds in workload.scenario_seconds(res).items():
            per[name].append(seconds)
    return {f"ms_per_rep.{s}": statistics.median(v) / workload.reps * 1e3 if v else 0.0
            for s, v in per.items()}


def untraced(args):
    """End-to-end metrics, with no tracing anywhere in the process."""
    workload, warm, setup_s, _ = set_up(args, traced=False)
    workload.prepare_checks()
    run = Run(workload)
    run.ops += 1
    run.check(0, warm)
    setups = [setup_s] + [probe_set_up(args) for _ in range(SETUP_SAMPLES - 1)]

    tracemalloc.start()
    run.attempt(0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    latencies, results = [], []

    def step(k):
        seconds, res = run.attempt(k)
        if res is not None:
            latencies.append(seconds)
            results.append(res)

    closed_loop(args.seconds, step)
    run.finish()
    busy = sum(latencies)  # wall time of the timed operations
    reps_done = workload.reps_per_op * len(results) - sum(
        workload.failed_reps(r) for r in results)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_tail_ms": tail_s * 1e3,
        "flips_per_s": workload.flips_per_op * len(results) / busy,
        "reps_per_s": reps_done / busy,
        "peak_mem_mb": peak / 2**20,
    }
    details = {
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "setup_s_samples": setups,
        "call_tail_percentile": tail_pct,
        "call_samples": len(latencies),
        "failed_frac": run.failed / run.attempted,
    }
    if workload.scenario_reps:
        details.update(ms_per_rep(workload, results))
    return run, metrics, END_TO_END, details


def traced(args):
    """Per-layer metrics from traced operations, paired with untraced ones."""
    workload, warm, _, tracer = set_up(args, traced=True)
    workload.prepare_checks()
    run = Run(workload)
    run.ops += 1
    run.check(0, warm)

    tracemalloc.start()
    with tracer.operation("peak", memory=True):
        run.attempt(0)
    tracemalloc.stop()

    plain, spanned, plain_results = [], [], []

    def step(k):
        # operation k runs untraced and traced, in an order alternating with k
        for with_spans in (k % 2 == 1, k % 2 == 0):
            if with_spans:
                with tracer.operation(k):
                    seconds, res = run.attempt(k)
                if res is not None:
                    spanned.append(seconds)
            else:
                seconds, res = run.attempt(k)
                if res is not None:
                    plain.append(seconds)
                    plain_results.append(res)

    closed_loop(args.seconds, step)
    run.finish()

    from tracer import ROOT_SPAN

    by_label = {op.label: op for op in tracer.ops}
    ops = [op for op in tracer.ops if isinstance(op.label, int)]
    if by_label["warmup"].counts != by_label[0].counts or (
            by_label["peak"].counts != by_label[0].counts):
        run.fail("exact counters differ between runs of operation 0")

    def mean(values):
        return sum(values) / len(values)

    wall = mean([op.wall for op in ops])
    metrics = {m: mean([op.self_time(span) for op in ops]) for m, span in SELF_TIMES}
    first = by_label[0]
    metrics.update({m: sum(first.counts.get(key, 0) for key in keys)
                    for m, _, keys in COUNTERS})
    metrics.update({m: by_label["peak"].peak_mb(span) for m, span in PEAKS})
    metrics["trace.overhead_frac"] = statistics.median(spanned) / statistics.median(plain) - 1
    metrics["trace.op_ms"] = wall * 1e3
    metrics["trace.unattributed_frac"] = mean([op.self_time(ROOT_SPAN) for op in ops]) / wall
    metrics.update(ms_per_rep(workload, plain_results))
    details = {"traced_ops": len(spanned), "untraced_ops": len(plain),
               "failed_frac": run.failed / run.attempted}
    return run, metrics, PER_LAYER, details, tracer


def report(args, env, run, metrics, units, details):
    """Print every metric with its unit; return the result object."""
    print(f"signflip bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    for name, value in details.items():
        print(f"  {name:40s} {value} {DETAIL_UNITS.get(name, '')}".rstrip())
    result = {
        "correct": run.failed_ops == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    single_blas_thread()
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args, traced=False)[2]}))
        return 0
    if args.trace:
        run, metrics, units, details, tracer = traced(args)
    else:
        run, metrics, units, details = untraced(args)
    env = environment()
    result = report(args, env, run, metrics, units, details)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "environment": env, "details": details}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**header, "result": result}, fh, indent=1)
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.json", header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
