"""Self-test of the benchmark runner at trivial input sizes.

    python3 bench/smoke.py

Runs every workload of ``BENCHMARK.json`` with ``--smoke`` for one second,
untraced and traced, and checks the result line against the metric lists
and the traced run's span file.
Then checks that the runner fails, printing no result, in a directory that
holds only ``BENCHMARK.json`` and ``bench/``.  It takes about a minute and
is kept out of the test suite on purpose.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SPAN_KEYS = {"id", "name", "parent", "root", "start", "end"}


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_result(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {proc.stdout[-1500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    units = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if units != expected:
        problems.append(f"metrics {units} differ from BENCHMARK.json {expected}")
    return problems


def check_spans(path: Path) -> list[str]:
    lines = path.read_text().splitlines() if path.exists() else []
    if not lines:
        return ["--spans wrote no spans"]
    keys = set(json.loads(lines[0]))
    if keys != SPAN_KEYS:
        return [f"span keys {sorted(keys)}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    failures = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            spans = scratch / f"spans-{workload['name']}.jsonl"
            extra = ("--spans", str(spans)) if trace else ()
            problems = check_result(run(ROOT, workload["name"], trace, *extra), expected)
            if trace:
                problems += check_spans(spans)
                spans.unlink(missing_ok=True)
            status = "ok" if not problems else "FAIL"
            print(f"{workload['name']} --trace {trace}: {status}")
            failures += [f"{workload['name']} --trace {trace}: {p}" for p in problems]

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        ok = proc.returncode != 0 and not printed_result
        print(f"bare directory: {'ok' if ok else 'FAIL'} (exit code {proc.returncode})")
        if not ok:
            failures.append(f"bare directory run: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
