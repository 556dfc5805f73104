"""The cluster router: determinism, failover, drain, cache tiers, faults."""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import ClusterError, ClusterRouter, Shard
from repro.service import FaultPlan
from repro.service.jobs import AnalyzeJob

VULN = """
class A {{ public: double d; }};
class B{i} : public A {{ public: int x[{i} + 8]; }};
void f{i}() {{ A a; B{i} *b = new (&a) B{i}(); }}
"""


def jobs(count: int, tag: str = "t"):
    return [
        AnalyzeJob(source=VULN.format(i=index), label=f"{tag}-{index}")
        for index in range(count)
    ]


def make_router(count: int, cache_dir=None, fault_plan=None, **kwargs):
    shards = [
        Shard.in_process(
            f"s{index}", workers=1, cache_dir=cache_dir, fault_plan=fault_plan
        )
        for index in range(count)
    ]
    return ClusterRouter(shards, vnodes=32, fault_plan=fault_plan, **kwargs)


def closing(router, scenario, *args):
    try:
        return scenario(*args)
    finally:
        router.close()


def in_background(fn, *args):
    """Start ``fn(*args)`` on a thread; ``.result()`` joins it."""
    pool = ThreadPoolExecutor(max_workers=1)
    future = pool.submit(fn, *args)
    pool.shutdown(wait=False)
    return future


class TestDeterminism:
    def test_sweep_bytes_identical_at_any_shard_count(self):
        expected = None
        for count in (1, 2, 3):
            router = make_router(count)
            reports = closing(router, router.sweep, jobs(12))
            blob = json.dumps(reports, sort_keys=True)
            if expected is None:
                expected = blob
            assert blob == expected, f"{count} shards diverged"

    def test_kill_one_shard_mid_sweep_keeps_bytes(self):
        def killed_sweep():
            router = make_router(3)

            def sweep_and_kill():
                sweep = in_background(router.sweep, jobs(12))
                time.sleep(0.01)
                router.kill_shard("s1")
                return sweep.result()

            reports = closing(router, sweep_and_kill)
            assert router.metrics.snapshot()["counters"][
                "cluster.shards_killed"
            ] == 1
            return json.dumps(reports, sort_keys=True)

        control_router = make_router(1)
        control = json.dumps(
            closing(control_router, control_router.sweep, jobs(12)),
            sort_keys=True,
        )
        killed = killed_sweep()
        assert killed == control


class TestFailover:
    def test_dead_shard_leaves_the_ring(self):
        router = make_router(3)

        def scenario():
            router.submit_job(jobs(1)[0])
            router.kill_shard("s0")
            assert "s0" not in router.ring
            assert router.metrics.snapshot()["gauges"][
                "cluster.shards_live"
            ] == 2
            # every key still resolves
            reports = router.sweep(jobs(6, tag="after"))
            assert len(reports) == 6

        closing(router, scenario)

    def test_all_shards_dead_raises_cluster_error(self):
        router = make_router(2)

        def scenario():
            router.kill_shard("s0")
            router.kill_shard("s1")
            with pytest.raises(ClusterError):
                router.submit_job(jobs(1)[0])

        closing(router, scenario)

    def test_kill_unknown_shard_raises(self):
        router = make_router(1)
        with pytest.raises(KeyError):
            router.kill_shard("ghost")
        router.close()


class TestDrain:
    def test_drain_finishes_inflight_then_leaves(self):
        router = make_router(3)

        def scenario():
            sweep = in_background(router.sweep, jobs(12, tag="drain"))
            time.sleep(0.01)
            report = router.drain_shard("s1")
            assert report["state"] == "draining"
            assert report["inflight"] == 0
            assert "s1" not in router.ring
            reports = sweep.result()
            assert len(reports) == 12
            counters = router.metrics.snapshot()["counters"]
            assert counters["cluster.shards_drained"] == 1
            # drained-but-alive shards are not "lost"
            assert counters.get("cluster.shards_killed", 0) == 0

        closing(router, scenario)


class TestCacheTiers:
    def test_mem_tier_serves_repeat_jobs(self):
        router = make_router(2)

        def scenario():
            job = jobs(1)[0]
            router.submit_job(job)
            router.submit_job(job)
            counters = router.metrics.snapshot()["counters"]
            assert counters["cluster.cache_hits.mem"] == 1
            assert router.cache_stats()["hits"]["mem"] == 1

        closing(router, scenario)

    def test_disk_tier_survives_new_shards(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        first = make_router(2, cache_dir=cache_dir)
        job = jobs(1, tag="disk")[0]
        closing(first, first.submit_job, job)

        second = make_router(2, cache_dir=cache_dir)

        def scenario():
            second.submit_job(job)
            hits = second.cache_stats()["hits"]
            assert hits["disk"] == 1

        closing(second, scenario)

    def test_peer_tier_fetches_from_ring_successor(self):
        router = make_router(2)

        def scenario():
            job = jobs(1, tag="peer")[0]
            key = job.key()
            router.submit_job(job)
            old_owner = router.ring.assign(key)
            # grow the ring until the key's owner changes; the old
            # owner is then exactly the new owner's ring successor
            for index in range(16):
                shard = Shard.in_process(f"n{index}", workers=1)
                router.add_shard(shard)
                if router.ring.assign(key) != old_owner:
                    break
            else:
                pytest.skip("16 joins never stole the key (vanishingly rare)")
            router.submit_job(job)
            hits = router.cache_stats()["hits"]
            assert hits["peer"] == 1
            # the peer hit warmed the new owner: next lookup is mem-tier
            router.submit_job(job)
            assert router.cache_stats()["hits"]["mem"] >= 1

        closing(router, scenario)


class TestFaultSeams:
    def test_shard_crash_rule_kills_owner_and_recovers(self):
        plan = FaultPlan().add("shard-crash", selector="analyze", times=1)
        router = make_router(3, fault_plan=plan)

        def scenario():
            reports = router.sweep(jobs(8, tag="crash"))
            assert len(reports) == 8
            counters = router.metrics.snapshot()["counters"]
            assert counters["cluster.shards_killed"] == 1
            assert len(router.ring) == 2
            assert plan.injected["shard-crash"] == 1

        closing(router, scenario)

    def test_partition_rule_reroutes_one_request(self):
        plan = FaultPlan().add("partition", times=1)
        router = make_router(3, fault_plan=plan)

        def scenario():
            job = jobs(1, tag="part")[0]
            result = router.submit_job(job)
            assert result["label"] == "part-0"
            counters = router.metrics.snapshot()["counters"]
            assert counters["cluster.partitions"] == 1
            assert len(router.ring) == 3  # nobody died
            # the rerouted compute warmed the true owner's cache
            router.submit_job(job)
            assert router.cache_stats()["hits"]["mem"] == 1

        closing(router, scenario)
