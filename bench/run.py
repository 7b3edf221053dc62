#!/usr/bin/env python3
"""The nsopt benchmark.

Run from the root of the repository::

    python3 bench/run.py --workload moles_l1 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload sweep_svm --seed 1 --seconds 36 --trace 1
    python3 bench/run.py --selfcheck

``--trace 0`` repeats the workload's set-up and timed call, checking every
result, for about ``--seconds`` (the whole number of calls that ends nearest
to it), and reports the end-to-end metrics: median wall times and the peak
RSS.  ``--trace 1`` reports the
per-layer metrics, which are named by workload: kernel timings, then for
every workload alternating untraced and traced solves with their span
counts, self times and oracle counts; it ignores ``--seconds``.
``--selfcheck`` runs every workload, check and metric at a tiny size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  See ``bench/README.md`` for the workloads and
metrics.
"""

import os
import sys
import time

# One BLAS thread, so that the timings measure the program and not the
# scheduler.  This must happen before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORT_SAMPLES = 9


def load_modules():
    """Import the library from this checkout's ``src`` and the benchmark's
    own modules; exit with code 2 when the source is not there."""
    if not (SRC / "nsopt" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import kernels
    import spans
    import workloads
    return workloads, kernels, spans


# ---------------------------------------------------------------------------
# Running workloads
# ---------------------------------------------------------------------------


def one_run(workload, seed, tracer=None):
    """Set up, make the timed call, check; return set-up seconds, solve
    seconds and the check outcome."""
    clock = time.perf_counter
    start = clock()
    case = workload.build(seed, tracer)
    try:
        built = clock()
        result = workload.run(case, tracer)
        solved = clock()
        outcome = workload.check(case, result)
    finally:
        workload.close(case)
    return built - start, solved - built, outcome


def measure(workload, seed, seconds):
    """Repeat :func:`one_run` while one more would end nearer to
    ``seconds`` than stopping now does.

    Peak RSS is read after the first run: later runs repeat the same work,
    and the allocator's high-water mark should not depend on how many of
    them fit in ``seconds``."""
    setups, solves, laps, failures = [], [], [], []
    attempted = failed = 0
    info = {}
    peak_mb = 0.0
    start = time.perf_counter()
    while True:
        attempted += 1
        lap = time.perf_counter()
        try:
            setup_s, solve_s, outcome = one_run(workload, seed)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        if not solves:
            peak_mb = peak_rss_mb()
        setups.append(setup_s)
        solves.append(solve_s)
        laps.append(time.perf_counter() - lap)
        info = outcome.info
        if outcome.failures:
            failures += outcome.failures
            failed += 1
            break
        if time.perf_counter() - start + statistics.median(laps) / 2 > seconds:
            break
    return {"setups": setups, "solves": solves, "peak_rss_mb": peak_mb,
            "attempted": attempted, "failed": failed, "failures": failures, "info": info}


def trace_failures(workload, tracer, plain, traced):
    """Checks of the traced run itself."""
    failures = []
    seen = set(tracer.names())
    missing = [s for s in workload.spans if tracer.count(s) == 0]
    if missing:
        failures.append(f"spans never entered: {missing}")
    if seen - set(workload.spans):
        failures.append(f"unexpected spans: {sorted(seen - set(workload.spans))}")
    total = tracer.total_s(workload.spans[0])
    self_sum = sum(tracer.self_s(s) for s in seen)
    if abs(self_sum - total) > 1e-9 + 1e-6 * total:
        failures.append(f"self times add to {self_sum} s, traced solve took {total} s")
    if traced.counts != plain.counts:
        failures.append(f"traced counts {traced.counts} differ from untraced {plain.counts}")
    return failures


def layer_metric_units(workload_objects, kernels, spans):
    from workloads import COUNT_KEYS
    units = dict(kernels.metric_units())
    for name, workload in workload_objects.items():
        for span in workload.spans:
            units[f"{name}.{span}.count"] = "count"
            units[f"{name}.{span}.self_s"] = "s"
        units[f"{name}.trace_overhead_share"] = "share"
        for key in COUNT_KEYS:
            units[f"{name}.{key}_calls"] = "count"
        units.update({k: u for k, (_, u) in workload.layer_metrics(spans.Tracer()).items()})
    return units


def trace_report(workload_objects, kernels, spans, seed, kernel_samples, pairs=None):
    """Per-layer metrics for every workload: alternating untraced and traced
    solves (``workload.trace_pairs`` of each unless ``pairs`` is given),
    plus the kernel timings.  Spans come from the last traced solve; the
    tracing overhead compares the medians."""
    metrics = dict(kernels.run(seed, kernel_samples))
    attempted = failed = 0
    failures = []
    for name, workload in workload_objects.items():
        plain_times, traced_times = [], []
        try:
            for _ in range(pairs or workload.trace_pairs):
                attempted += 2
                tracer = spans.Tracer()
                _, plain_s, plain = one_run(workload, seed)
                _, _, traced = one_run(workload, seed, tracer)
                plain_times.append(plain_s)
                traced_times.append(tracer.total_s(workload.spans[0]))
                traced_problems = traced.failures + trace_failures(workload, tracer,
                                                                   plain, traced)
                failed += bool(plain.failures) + bool(traced_problems)
                failures += [f"{name}: {p}" for p in plain.failures + traced_problems]
        except Exception:
            traceback.print_exc()
            failed += 1
            failures.append(f"{name}: a run raised")
            continue
        for span in workload.spans:
            metrics[f"{name}.{span}.count"] = (tracer.count(span), "count")
            metrics[f"{name}.{span}.self_s"] = (tracer.self_s(span), "s")
        overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        metrics[f"{name}.trace_overhead_share"] = (overhead, "share")
        for key, count in traced.counts.items():
            metrics[f"{name}.{key}_calls"] = (count, "count")
        metrics.update(workload.layer_metrics(tracer))
    # A run that raised leaves its metrics out; report them as zero so the
    # output names every metric, and let ``correct`` carry the failure.
    for key, unit in layer_metric_units(workload_objects, kernels, spans).items():
        metrics.setdefault(key, (0, unit))
    return metrics, attempted, failed, failures


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0  # Linux reports kilobytes


def emit(info: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


IMPORT_PROBE = ("import time; start = time.perf_counter(); import nsopt; "
                "print(time.perf_counter() - start)")


def import_seconds(samples: int) -> list[float]:
    """Wall times of importing nsopt (and with it numpy) into a fresh
    interpreter, each in its own process, waited for in turn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(samples)]


def end_to_end(workload, seed, seconds, import_samples=IMPORT_SAMPLES):
    """End-to-end metrics in wall seconds: the median solve, and the median
    import time plus the median instance set-up.  Every wall time goes to
    the info line."""
    imports = import_seconds(import_samples)
    run = measure(workload, seed, seconds)
    solves = run["solves"] or [0.0]
    setups = run["setups"] or [0.0]
    metrics = {
        "solve_s": (statistics.median(solves), "s"),
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    info = {"solves_s": solves, "setups_s": setups, "imports_s": imports,
            "failures": run["failures"], **run["info"]}
    return metrics, run["attempted"], run["failed"], info


def selfcheck(workloads, kernels, spans) -> list:
    """Every workload, check and metric at a tiny size; return the problems."""
    tiny = {name: cls(tiny=True) for name, cls in workloads.WORKLOADS.items()}
    problems = []
    for name, workload in tiny.items():
        metrics, _, failed, info = end_to_end(workload, 1, 0.0, import_samples=1)
        if failed or set(metrics) != set(END_TO_END):
            problems.append(f"{name}: end-to-end run failed: {info['failures']}")
    metrics, _, _, failures = trace_report(tiny, kernels, spans, 1, 20, pairs=1)
    problems += failures
    full = {name: cls() for name, cls in workloads.WORKLOADS.items()}
    units = layer_metric_units(full, kernels, spans)
    if {k: u for k, (_, u) in metrics.items()} != units:
        problems.append("traced metrics differ from the declared per-layer metrics")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in declared["per_layer"]} != units:
        problems.append("BENCHMARK.json per_layer differs from the metrics the code reports")
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the metrics the code reports")
    if sorted(m["name"] for m in declared["workloads"]) != sorted(full):
        problems.append("BENCHMARK.json workloads differ from the code's workloads")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    workloads, kernels, spans = load_modules()

    if args.selfcheck:
        problems = selfcheck(workloads, kernels, spans)
        for problem in problems:
            print(f"selfcheck: {problem}", file=sys.stderr)
        print("selfcheck " + ("failed" if problems else "ok"))
        return 1 if problems else 0

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    info = {"env": environment(args.seed), "workload": args.workload, "trace": args.trace}
    if args.trace:
        # Every per-layer metric is named by workload, so a traced run
        # covers all of them, the requested workload first.
        order = [args.workload] + [n for n in workloads.WORKLOADS if n != args.workload]
        objects = {name: workloads.WORKLOADS[name]() for name in order}
        metrics, attempted, failed, failures = trace_report(objects, kernels, spans,
                                                            args.seed, kernels.SAMPLES)
        info["failures"] = failures
        info["kernel_samples"] = kernels.SAMPLES
        correct = failed == 0 and not failures
    else:
        workload = workloads.WORKLOADS[args.workload]()
        metrics, attempted, failed, extra = end_to_end(workload, args.seed, args.seconds)
        info.update(extra)
        correct = failed == 0
    emit(info, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
