"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload fuzz-campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each round of the workload
runs in a fresh ``python3 perfbench/worker.py`` process, so the
program's caches start cold the way a CLI user meets them.  With
``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric; with ``--trace 1`` it has every per-layer
metric, from traced rounds interleaved with untraced ones so the
tracing overhead is measured too.  The first line is a header naming
the host, core count, Python version, commit and seed: numbers from
different hosts are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import END_TO_END, MUST_REPEAT, PER_LAYER  # noqa: E402
from loads import LATENCY_LIMIT_MS, WORKLOADS, derive_seed  # noqa: E402

#: Untraced rounds per minute of ``--seconds``.  The count is fixed, not
#: timed, so every run of one seed measures the same input sets on any
#: tree.  fuzz-campaign gets more time than matrix-sweep and
#: score-corpus: its wall time is mostly execs that run to the step
#: budget, and how many do varies from one input set to the next.  On
#: service-mixed it gives more than 1000 requests in 30 s, ten of them
#: beyond p99.
ROUNDS_PER_MINUTE = {
    "fuzz-campaign": 10,
    "matrix-sweep": 8,
    "score-corpus": 26,
    "service-mixed": 8,
}
#: Set-up times a run measures at least: rounds that only set up and
#: stop fill the count up, so the median is steady on every workload.
SETUP_SAMPLES = 7
#: A safety cap, not a clock: a run still going after this many seconds
#: stops and is reported incorrect.
RUN_BUDGET_S = 170


def plan(workload: str, seed: int, seconds: int, traced: bool) -> list:
    """The rounds of one run: ``(round seed, traced, role)``.

    Each untraced round runs the inputs of its own sub-seed, so one run
    averages over several input sets and its figures depend little on
    which seed it was given.  The traced run runs the first input set
    three times, once untraced and twice traced: that gives the tracing
    overhead, the must-repeat counts, and the check that report bytes
    repeat.
    """
    first = derive_seed(seed, 0)
    if traced:
        repeats = 1 if workload == "service-mixed" else 2
        return [(first, False, "base")] + [(first, True, "traced")] * repeats
    timed = max(2, round(ROUNDS_PER_MINUTE[workload] * seconds / 60))
    return [
        (derive_seed(seed, index), False, "timed" if index < timed else "setup")
        for index in range(max(timed, SETUP_SAMPLES))
    ]


def run_round(workload, round_seed, traced, role, index, run_dir, timeout) -> dict:
    work = run_dir / f"round{index}"
    spec = {
        "root": str(ROOT),
        "work": str(work),
        "workload": workload,
        "seed": round_seed,
        "traced": traced,
        "setup_only": role == "setup",
        "run_id": f"{workload}/{round_seed}/{index}",
        "spawn": time.monotonic(),
    }
    # A session of its own, so a round stopped at the budget takes the
    # service child it may have started down with it.
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = worker.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        return {"error": f"round {index} stopped at the {RUN_BUDGET_S} s run budget"}
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"round {index} exited {worker.returncode}: {tail[0]}"}
    result = json.loads(lines[-1][len("RESULT "):])
    spans = work / "spans.jsonl"
    if spans.exists():
        spans.replace(run_dir.parent / f"spans-{workload}-round{index}.jsonl")
    return result


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def header(workload: str, seed: int) -> dict:
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "tree": _tree_digest(),
        "workload": workload,
        "seed": seed,
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _tree_digest() -> str:
    """Content digest of ``src/``: names the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeats(results: list, problems: list) -> int:
    """Rounds with the same inputs must give the same report bytes.

    Returns the ops of every round whose bytes differ (they count as
    failed)."""
    failed = 0
    first: dict = {}
    for seed, result in results:
        if not result.get("digest"):
            continue
        known = first.setdefault(seed, result["digest"])
        if known != result["digest"]:
            failed += result["attempted"]
            problems.append(f"report bytes differ between rounds of seed {seed}")
    return failed


def end_to_end(results: list, failed: int, attempted: int) -> dict:
    timed = [r for role, r in results if role == "timed"]
    every = [r for _, r in results]
    latencies = sorted(v for r in timed for v in r["latencies_ms"])
    within = sum(1 for v in latencies if v <= LATENCY_LIMIT_MS) / len(latencies)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in every),
        "peak_rss_mb": max(r["rss_mb"] for r in every),
        "throughput_per_s": sum(r["ops"] for r in timed) / sum(r["wall_s"] for r in timed),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p99_ms": percentile(latencies, 0.99),
        "within_limit_share": within * (1.0 - failed / attempted),
    }


def per_layer(results: list, problems: list) -> dict:
    base = [r for role, r in results if role == "base"]
    traced = [r for role, r in results if role == "traced"]
    values = {}
    for name, *_ in PER_LAYER:
        samples = [r["layer"].get(name, 0) for r in traced]
        values[name] = statistics.median(samples)
    untraced_s = statistics.median(r["wall_s"] for r in base)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    for key in MUST_REPEAT:
        seen = {r["counts"].get(key) for r in traced if key in r["counts"]}
        if len(seen) > 1:
            problems.append(f"count {key} drifted between traced runs: {sorted(seen)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    print(json.dumps({"header": header(args.workload, args.seed)}), flush=True)
    run_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    results, problems = [], []
    try:
        rounds = plan(args.workload, args.seed, args.seconds, bool(args.trace))
        for index, (round_seed, traced, role) in enumerate(rounds):
            remaining = RUN_BUDGET_S - (time.monotonic() - started)
            if remaining <= 0:
                problems.append(f"run budget spent; rounds from {index} on skipped")
                break
            result = run_round(
                args.workload, round_seed, traced, role, index, run_dir, remaining
            )
            if "error" in result:
                problems.append(result["error"])
                continue
            problems.extend(f"round {index}: {note}" for note in result["notes"])
            for finding in result["findings"]:
                print(f"round {index}: finding: {finding}")
            results.append((round_seed, role, result))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for _, _, r in results)
    failed = sum(r["failed"] for _, _, r in results)
    failed += check_repeats([(s, r) for s, _, r in results], problems)
    by_role = [(role, r) for _, role, r in results]
    try:
        if args.trace:
            metrics = per_layer(by_role, problems)
            units = {name: unit for name, unit, *_ in PER_LAYER}
        else:
            metrics = end_to_end(by_role, failed, attempted)
            units = {name: unit for name, unit, *_ in END_TO_END}
    except (statistics.StatisticsError, ZeroDivisionError, KeyError):
        problems.append("too few rounds finished to compute the metrics")
        metrics, units = {}, {}

    for problem in problems:
        print(f"problem: {problem}")
    print(f"error_rate = {failed / attempted if attempted else 1.0:.6f} "
          f"({failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
