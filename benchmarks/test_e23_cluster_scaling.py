"""E23 — cluster scaling: sweep throughput at 1, 2, and 4 shards.

The claim behind docs/CLUSTER.md: the consistent-hash front-end turns
shard count into throughput.  Analyze sweeps (the detector corpus plus
generated programs) and fuzz-batch sweeps are pushed through a live
:class:`~repro.cluster.router.ClusterRouter` at 1/2/4 one-worker
shards with caching disabled, so every round pays full compute and the
only variable is the ring fan-out.  Each run records ``jobs_per_s``
and ``scaling_efficiency`` (rate relative to perfect linear scaling
over the 1-shard baseline) as ``extra_info`` riders for the BENCH
trajectory.

On hosts with ≥4 cores (CI runners) the acceptance thresholds are
asserted: ≥1.6x analyze throughput at 2 shards and ≥2.5x at 4 shards
over 1 shard; a single-core box records the numbers without the strict
assertion, since shards cannot buy parallelism the hardware lacks.  A
separate test pins the failure-path determinism number: a sweep with a
shard killed mid-flight produces bytes identical to a no-fault run.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import print_table

from repro.cluster import ClusterRouter, Shard
from repro.fuzz import seed_inputs
from repro.service.jobs import AnalyzeJob, FuzzCampaignJob
from repro.workloads import corpus_sources

SHARD_COUNTS = (1, 2, 4)
GENERATED = 24  # analyze sweep: paper corpus + generated programs
FUZZ_BATCHES = 8
FUZZ_ITERATIONS = 12
ROUNDS = 3

_CORES = os.cpu_count() or 1
_BACKEND = "process" if _CORES >= max(SHARD_COUNTS) else "thread"

#: 1-shard baseline rates, filled in shard-count order by the
#: parametrized runs so later counts can report scaling efficiency.
_BASELINES: dict = {}


def _analyze_jobs():
    return [
        AnalyzeJob(source=source, label=label)
        for label, source in corpus_sources(generated=GENERATED)
    ]


def _fuzz_jobs():
    corpus = tuple(
        (inp.source, tuple(inp.stdin), inp.family, inp.label)
        for inp in seed_inputs(2011)
    )
    return [
        FuzzCampaignJob(
            seed=2011,
            batch=index,
            iterations=FUZZ_ITERATIONS,
            corpus=corpus,
            protected=len(corpus),
            step_budget=20_000,
        )
        for index in range(FUZZ_BATCHES)
    ]


class _Cluster:
    """A live router, caching disabled."""

    def __init__(self, shard_count: int):
        shards = [
            Shard.in_process(
                f"s{index}", workers=1, backend=_BACKEND, use_cache=False
            )
            for index in range(shard_count)
        ]
        self.router = ClusterRouter(shards, vnodes=64)

    def sweep(self, jobs):
        return self.router.sweep(jobs)

    def close(self):
        self.router.close()


def _record_scaling(benchmark, workload: str, shard_count: int, job_count: int):
    rate = job_count / benchmark.stats.stats.mean
    if shard_count == min(SHARD_COUNTS):
        _BASELINES[workload] = rate
    baseline = _BASELINES.get(workload, rate)
    speedup = rate / baseline if baseline else 1.0
    efficiency = speedup / shard_count
    benchmark.extra_info["shards"] = shard_count
    benchmark.extra_info["jobs"] = job_count
    benchmark.extra_info["jobs_per_s"] = round(rate, 2)
    benchmark.extra_info["speedup_vs_1"] = round(speedup, 3)
    benchmark.extra_info["scaling_efficiency"] = round(efficiency, 3)
    return speedup


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_e23_analyze_sweep_scaling(benchmark, shard_count):
    """Cold analyze-sweep throughput as the ring fans out."""
    jobs = _analyze_jobs()
    cluster = _Cluster(shard_count)
    try:
        benchmark.pedantic(
            cluster.sweep, args=(jobs,), rounds=ROUNDS, warmup_rounds=1
        )
    finally:
        cluster.close()

    speedup = _record_scaling(benchmark, "analyze", shard_count, len(jobs))
    print_table(
        f"E23 analyze sweep ({len(jobs)} jobs, {shard_count} shards x 1 "
        f"{_BACKEND} worker, {_CORES} cores)",
        ["metric", "value"],
        [
            ["jobs/s", f"{benchmark.extra_info['jobs_per_s']:.2f}"],
            ["speedup vs 1 shard", f"{speedup:.2f}x"],
            ["scaling efficiency", f"{benchmark.extra_info['scaling_efficiency']:.2f}"],
        ],
    )
    if _CORES >= max(SHARD_COUNTS):
        floor = {1: 0.0, 2: 1.6, 4: 2.5}[shard_count]
        assert speedup >= floor, (
            f"{shard_count} shards reached only {speedup:.2f}x over 1 shard "
            f"(floor {floor}x) on {_CORES} cores"
        )


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_e23_fuzz_sweep_scaling(benchmark, shard_count):
    """Fuzz-batch sweep throughput: uncacheable jobs over the ring."""
    jobs = _fuzz_jobs()
    cluster = _Cluster(shard_count)
    try:
        benchmark.pedantic(
            cluster.sweep, args=(jobs,), rounds=ROUNDS, warmup_rounds=1
        )
    finally:
        cluster.close()

    speedup = _record_scaling(benchmark, "fuzz", shard_count, len(jobs))
    print_table(
        f"E23 fuzz sweep ({len(jobs)} batches x {FUZZ_ITERATIONS} iters, "
        f"{shard_count} shards)",
        ["metric", "value"],
        [
            ["batches/s", f"{benchmark.extra_info['jobs_per_s']:.2f}"],
            ["speedup vs 1 shard", f"{speedup:.2f}x"],
        ],
    )
    assert benchmark.extra_info["jobs_per_s"] > 0


def test_e23_kill_one_shard_keeps_report_bytes():
    """The acceptance determinism number: a 3-shard sweep with one
    shard killed mid-flight is byte-identical to the no-fault run."""
    jobs = _analyze_jobs()

    control_cluster = _Cluster(1)
    try:
        control = json.dumps(control_cluster.sweep(jobs), sort_keys=True)
    finally:
        control_cluster.close()

    cluster = _Cluster(3)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            sweep = pool.submit(cluster.sweep, jobs)
            time.sleep(0.02)
            cluster.router.kill_shard("s1")
            survived = json.dumps(sweep.result(), sort_keys=True)
        redispatched = cluster.router.metrics.snapshot()["counters"].get(
            "cluster.redispatches", 0
        )
    finally:
        cluster.close()

    print_table(
        "E23 failover determinism",
        ["metric", "value"],
        [
            ["report bytes", f"{len(survived)}"],
            ["identical to no-fault run", str(survived == control)],
            ["jobs re-dispatched", str(redispatched)],
        ],
    )
    assert survived == control
