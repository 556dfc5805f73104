"""A tour of the repro.cluster sharded front-end.

Runs entirely in-process: starts a 3-shard cluster behind the HTTP
front-end, sweeps the paper corpus over the consistent-hash ring
(cold, then warm from the cache tiers), throttles a greedy tenant
through the token-bucket quotas, kills a shard mid-sweep and shows the
report bytes unchanged, then drains one gracefully.

    PYTHONPATH=src python examples/cluster_demo.py
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster import ClusterRouter, ClusterServer, QuotaManager, Shard
from repro.service import ServiceClient
from repro.workloads import corpus_sources


def main() -> None:
    shards = [Shard.in_process(f"s{i}", workers=2) for i in range(3)]
    router = ClusterRouter(shards, vnodes=64)
    quotas = QuotaManager(capacity=64, refill_rate=32.0,
                          overrides={"greedy": (2, 1.0)})
    server = ClusterServer(router, quotas=quotas).start()
    base_url = f"http://127.0.0.1:{server.port}"
    client = ServiceClient(base_url, tenant="demo")
    try:
        health = client.healthz()
        print(f"cluster up: {health['shards_live']} shards "
              f"{health['shards']} on port {server.port}")

        # -- sweep over the ring, cold vs warm ----------------------------
        pairs = list(corpus_sources(generated=12))
        started = time.perf_counter()
        cold = client.sweep(pairs)
        cold_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        warm = client.sweep(pairs)
        warm_ms = (time.perf_counter() - started) * 1000

        flagged = sum(1 for r in cold["reports"] if r["flagged"])
        tiers = client.metrics_snapshot()["tiers"]
        print(f"sweep: {len(pairs)} programs, {flagged} flagged")
        print(f"  cold {cold_ms:.1f}ms → warm {warm_ms:.1f}ms "
              f"(tier hits: {tiers['hits']})")
        assert json.dumps(cold) == json.dumps(warm)

        # -- tenant quotas -------------------------------------------------
        greedy = ServiceClient(base_url, tenant="greedy")
        for label, source in pairs[:3]:
            greedy.analyze(source, label=label)
        waits = [round(w, 2) for w in greedy.throttled_waits]
        print(f"greedy tenant throttled: waited {waits}s across 429 retries")

        # -- kill a shard mid-sweep: bytes must not change -----------------
        with ThreadPoolExecutor(max_workers=1) as pool:
            sweep = pool.submit(client.sweep, pairs)
            time.sleep(0.005)
            client.kill("s1")
            survived = sweep.result()
        print("killed s1 mid-sweep; reports identical:",
              json.dumps(survived) == json.dumps(cold))
        print("topology:", client.cluster()["ring"]["shards"])

        # -- graceful drain ------------------------------------------------
        drained = client.drain("s2")
        print(f"drained s2: completed={drained['drained']['completed']} "
              f"inflight={drained['drained']['inflight']}")
        counters = client.metrics_snapshot()["counters"]
        print("routed", counters["cluster.jobs_routed"], "jobs |",
              "redispatched", counters.get("cluster.redispatches", 0), "|",
              "shards lost", counters.get("cluster.shards_lost", 0))
    finally:
        server.close()
        router.close()


if __name__ == "__main__":
    main()
