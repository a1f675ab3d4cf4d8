"""Benchmark of eigenbreak: four workloads, timed end to end, and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload sim-eigval-n2000 --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics.  ``--trace 1`` runs the same first call untraced, then
serially with every layer wrapped, checks that both give the same outputs,
and prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the machine, the thread cap and the output digests.
See ``bench/README.md`` for the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: the keys of ``workloads.WORKLOADS``, which cannot load before the thread cap
WORKLOAD_NAMES = ("sim-eigval-n2000", "sim-eigfun-pool", "analyze-123y", "scan-grid-m200")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: set-ups per run whose median is ``setup_s``: this process plus fresh children
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
#: untraced calls of a repeated-input workload before tracing, for the overhead
REFERENCE_S = 3.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed calls repeat until this much wall time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="trivial input sizes, for the runner's self-test")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write the traced spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def cap_threads() -> int:
    """Cap BLAS/OpenMP at one thread per process; must run before numpy loads.

    Workers x threads then stays within nproc.  The BLAS calls here work on
    matrices of at most 200 x 200, where a second thread costs more than it
    saves and makes call times bimodal across processes.
    """
    cap = 1
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


@dataclass
class Call:
    """One timed call of the workload's entry point and what its outputs showed."""

    index: int
    ops: int
    seconds: float
    digest: str | None = None
    errors: list[str] = field(default_factory=list)


def timed_call(w, index: int, workers: int) -> Call:
    ops = w.ops(index)
    start = time.perf_counter()
    try:
        result = w.call(index, workers)
    except Exception as exc:  # a failed operation is counted, and the run goes on
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Call(index, ops, seconds, errors=[f"call {index} raised {exc!r}"])
    seconds = time.perf_counter() - start
    try:
        errors = w.check(index, result)
        digest = w.digest(index, result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Call(index, ops, seconds, errors=[f"checking call {index} raised {exc!r}"])
    return Call(index, ops, seconds, digest, errors)


def timed_calls(w, workers: int, seconds: float, first: int = 0) -> list[Call]:
    """Closed loop: call after call, until ``seconds`` have passed (at least one call)."""
    calls = []
    start = time.perf_counter()
    index = first
    while not calls or time.perf_counter() - start < seconds:
        calls.append(timed_call(w, index, workers))
        index += 1
    return calls


def check_repeats(w, calls: list[Call]) -> None:
    """A workload that repeats one input must give one output."""
    if w.repeats_input:
        for call in calls:
            if call.digest is not None and call.digest != calls[0].digest:
                call.errors.append(f"call {call.index} output differs from the first call's")


def parent_holds_pivot(eb) -> bool:
    return any(isinstance(obj, eb.PivotDistribution) for obj in gc.get_objects())


def machine_block(numpy, threads: int, workers: int, nproc: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "start_method": multiprocessing.get_context().get_start_method(),
        "workers": workers,
        "blas_threads_cap": threads,
    }


def peak_rss_mb(pool_workers: int) -> float:
    """Parent peak RSS plus, for a pool, workers x the largest worker's peak RSS.

    A forked worker's RSS counts the pages it shares with the parent, so
    this is an upper bound on the joint high-water mark.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) * 1024 / 1e6


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    except (IndexError, ValueError, KeyError) as exc:
        raise RuntimeError(f"set-up child printed no set-up time: {proc.stdout[-500:]!r}") from exc


def measure(w, args, eb, setup_s: float) -> tuple[list[Call], dict, list[str]]:
    """Untraced timed calls: the end-to-end metrics."""
    problems = []
    if w.workers > 1 and parent_holds_pivot(eb):
        problems.append("the parent holds a built pivot when timing starts")
    calls = timed_calls(w, w.workers, args.seconds)
    check_repeats(w, calls)
    rss = peak_rss_mb(w.workers if w.workers > 1 else 0)
    setups = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        try:
            setups.append(child_setup_seconds(args))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"set-up sample failed: {exc}")
    seconds = [c.seconds for c in calls]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(c.ops for c in calls) / sum(seconds), "1/s"),
        "call_ms_p50": (statistics.median(seconds) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"set-up samples (s): {[round(s, 4) for s in setups]}")
    print(f"call seconds: {[round(s, 4) for s in seconds]}")
    return calls, metrics, problems


def trace(w, args, eb) -> tuple[list[Call], dict, list[str]]:
    """Untraced first call, then the traced serial run that must reproduce it."""
    from tracer import PivotCounter, ReplicateProbe, Tracer

    pivots = PivotCounter()
    with pivots.installed():
        w.setup()
    problems = []
    if w.workers > 1 and parent_holds_pivot(eb):
        problems.append("the parent holds a built pivot when timing starts")
    calls = timed_calls(w, w.workers, REFERENCE_S if w.repeats_input else 0.0)
    reference = calls[0]
    untraced_s = statistics.median(c.seconds for c in calls)
    pool = {"cell_s": 0.0, "overhead": 0.0}
    outcomes = None
    if w.experiment:
        probe = ReplicateProbe(w.config(0))
        built_s = pivots.seconds
        with pivots.installed(), probe.installed():
            probed = timed_call(w, 0, w.workers)
        # a worker builds its pivot inside its first replicate: not replicate work
        work_s = probe.work_seconds() - (pivots.seconds - built_s)
        calls.append(probed)
        if probed.digest != reference.digest:
            problems.append("the probed run's table differs from the untraced one")
        if probe.complete:
            outcomes = probe.outcomes()
        else:
            print("note: pool workers did not report replicates (start method is not fork)")
        if probe.cell_seconds:
            cell_total = sum(probe.cell_seconds)
            pool["cell_s"] = statistics.median(probe.cell_seconds)
            pool["overhead"] = (cell_total - work_s / w.workers) / cell_total
    if w.workers > 1:
        w.warm_serial()
        baseline = timed_call(w, 0, 1)
        untraced_s = baseline.seconds
        calls.append(baseline)
        if baseline.digest != reference.digest:
            problems.append("the serial table differs from the pool table")

    tracer = Tracer()
    with tracer.installed():
        serial_probe = ReplicateProbe(w.config(0)) if w.experiment else None
        with serial_probe.installed() if serial_probe else contextlib.nullcontext():
            first = timed_call(w, 0, 1)
        events = dict(tracer.counts)
        first_summary = tracer.summary()
        remaining = args.seconds - first.seconds
        traced = [first] + (timed_calls(w, 1, remaining, first=1) if remaining > 0 else [])
    calls.extend(traced)
    check_repeats(w, calls)
    if first.digest != reference.digest:
        problems.append("the traced run's outputs differ from the untraced run's")
    if outcomes is not None and serial_probe.outcomes() != outcomes:
        problems.append("per-replicate (rejected, theta_hat) differ between the traced "
                        "serial run and the untraced run")
    if tracer.missing:
        print(f"note: not traced, missing from the package: {', '.join(tracer.missing)}")
    if args.spans:
        tracer.dump(args.spans)

    ops = sum(c.ops for c in traced)
    summary = tracer.summary()
    # sim calls differ in input, so only call 0 has an untraced twin
    traced_s = statistics.median(c.seconds for c in (traced if w.repeats_input else [first]))

    def per_op_ms(layer, key="s"):
        return summary.get(layer, {}).get(key, 0.0) * 1e3 / ops

    def per_op_calls(layer):
        return summary.get(layer, {}).get("calls", 0) / ops

    ingest = summary.get("cli.ingest", {"calls": 0, "s": 0.0})
    ingest_rows_per_s = getattr(w, "rows", 0) * ingest["calls"] / ingest["s"] if ingest["s"] else 0.0
    decides = first_summary.get("selfnorm.decide", {}).get("calls", 0)
    attempted = sum(c.ops for c in calls)
    failed = sum(c.ops for c in calls if c.errors)
    metrics = {
        "datagen.generate_ms": (per_op_ms("datagen.generate"), "ms"),
        "changepoint.estimate_ms": (per_op_ms("changepoint.estimate"), "ms"),
        "changepoint.tensor_mb": (tracer.tensor_bytes_max / 1e6, "MB"),
        "selfnorm.diff_path_ms": (per_op_ms("selfnorm.diff_path"), "ms"),
        "selfnorm.eigen_paths_ms": (per_op_ms("selfnorm.eigen_paths"), "ms"),
        "selfnorm.eigh_calls": (tracer.counts["eigh_matrices:selfnorm.eigen_paths"] / ops, "count"),
        "selfnorm.self_normalizer_ms": (per_op_ms("selfnorm.self_normalizer"), "ms"),
        "selfnorm.decide_ms": (per_op_ms("selfnorm.decide"), "ms"),
        "selfnorm.decide_calls": (per_op_calls("selfnorm.decide"), "count"),
        "selfnorm.simulate_pivot_s": (pivots.seconds, "s"),
        "harness.pivot_builds": (pivots.builds, "count"),
        "harness.cell_s": (pool["cell_s"], "s"),
        "harness.pool_overhead_frac": (pool["overhead"], "frac"),
        "cli.ingest_ms": (per_op_ms("cli.ingest", "self_s"), "ms"),
        "cli.ingest_rows_per_s": (ingest_rows_per_s, "1/s"),
        "funcspace.project_ms": (per_op_ms("funcspace.project"), "ms"),
        "funcspace.project_calls": (per_op_calls("funcspace.project"), "count"),
        "cli.pivot_load_ms": (per_op_ms("cli.pivot_load"), "ms"),
        "eigensys.eigendecompose_ms": (per_op_ms("eigensys.eigendecompose"), "ms"),
        "covkern.sequential_kernel_ms": (per_op_ms("covkern.sequential_kernel"), "ms"),
        "selfnorm.degenerate_frac": (events.get("degenerate", 0) / decides if decides else 0.0,
                                     "frac"),
        "eigensys.gap_warning_count": (events.get("gap_warning", 0), "count"),
        "ops_failed_frac": (failed / attempted, "frac"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
    }
    print(f"traced: {len(traced)} calls, {ops} operations; serial call median "
          f"{untraced_s:.4f} s untraced, {traced_s:.4f} s traced")
    return calls, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads()
    if not (ROOT / "src" / "eigenbreak" / "__init__.py").is_file():
        print(f"error: no eigenbreak sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import eigenbreak as eb
    from workloads import WORKLOADS

    if not Path(eb.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported eigenbreak from {eb.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](args.seed, work_dir, args.smoke, nproc)
        if args.setup_only:
            w.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _START}))
            return 0
        if args.trace:
            calls, metrics, problems = trace(w, args, eb)
        else:
            w.setup()
            setup_s = time.perf_counter() - _START
            calls, metrics, problems = measure(w, args, eb, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print("machine: " + json.dumps(machine_block(numpy, threads, w.workers, nproc)))
    for call in calls:
        for error in call.errors:
            print(f"check failed: {error}")
    for problem in problems:
        print(f"check failed: {problem}")
    digest = calls[0].digest
    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls, "
          f"{sum(c.ops for c in calls)} operations; call 0 output sha256 {digest}")
    if isinstance(w, WORKLOADS["analyze-123y"]):
        print(f"planted last pre-break year {w.planted_year()}; the generated coefficients "
              f"split after year {w.start_year + w.k_reference - 1}")
    attempted = sum(c.ops for c in calls)
    failed = sum(c.ops for c in calls if c.errors)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
