"""The asyncio front-end over HTTP: endpoints, quotas, shard labels."""

import asyncio
import json

import pytest

from repro.cluster import (
    AsyncClusterClient,
    ClusterRouter,
    InProcessShard,
    QuotaManager,
    SubprocessShard,
    create_cluster_server,
)
from repro.cluster.quotas import DEFAULT_TENANT
from repro.service import ServiceError

VULN = """
class A { public: double d; };
class B : public A { public: int x[8]; };
void f() { A a; B *b = new (&a) B(); }
"""


def run_cluster(scenario, shards=2, quotas=None, **client_kwargs):
    """Start a live cluster + front-end, run ``scenario(client, router)``."""

    async def main():
        members = [InProcessShard(f"s{i}", workers=1) for i in range(shards)]
        router = ClusterRouter(members, vnodes=32)
        server = await create_cluster_server(router, quotas=quotas)
        client = AsyncClusterClient("127.0.0.1", server.port, **client_kwargs)
        try:
            return await scenario(client, router)
        finally:
            await server.close()

    return asyncio.run(main())


class TestEndpoints:
    def test_healthz(self):
        async def scenario(client, router):
            health = await client.healthz()
            assert health["status"] == "ok"
            assert health["shards_live"] == 2
            assert health["shards"] == ["s0", "s1"]

        run_cluster(scenario)

    def test_analyze_round_trip(self):
        async def scenario(client, router):
            response = await client.analyze(VULN, label="vuln")
            assert response["label"] == "vuln"
            assert "PN-OVERSIZE" in [f["rule"] for f in response["findings"]]

        run_cluster(scenario)

    def test_sweep_preserves_submission_order(self):
        async def scenario(client, router):
            pairs = [(f"l{i}", VULN + f"// {i}\n") for i in range(8)]
            response = await client.sweep(pairs)
            assert [r["label"] for r in response["reports"]] == [
                f"l{i}" for i in range(8)
            ]

        run_cluster(scenario)

    def test_attack_and_exec_round_trips(self):
        async def scenario(client, router):
            attack = await client.attacks(attack="data-bss-overflow")
            assert attack["summary"] == "ATTACK-WINS"
            result = await client.execute("int main(int a, char b) { return 9; }")
            assert result["return_value"] == 9
            assert result["engine"] == "bytecode"
            # The retired engine selector is ignored like any unknown key.
            legacy = await client.execute("int main() { return 4; }", engine="qemu")
            assert legacy["return_value"] == 4

        run_cluster(scenario)

    def test_cluster_topology_endpoint(self):
        async def scenario(client, router):
            topology = await client.cluster()
            assert topology["ring"]["shards"] == ["s0", "s1"]
            assert topology["shards"]["s0"]["state"] == "active"

        run_cluster(scenario)

    def test_unknown_path_404_and_bad_body_400(self):
        async def scenario(client, router):
            with pytest.raises(ServiceError) as excinfo:
                await client.request("GET", "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                await client.request("POST", "/analyze", {"legacy": True})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                await client.request("POST", "/attacks", {"attack": "nope"})
            assert excinfo.value.status == 400

        run_cluster(scenario)

    def test_admin_kill_then_serving_continues(self):
        async def scenario(client, router):
            await client.analyze(VULN, label="before")
            await client.kill("s0")
            response = await client.analyze(VULN + "// 2\n", label="after")
            assert response["label"] == "after"
            assert (await client.healthz())["shards_live"] == 1

        run_cluster(scenario)

    def test_admin_drain_finishes_queue(self):
        async def scenario(client, router):
            sweep = asyncio.ensure_future(
                client.sweep([(f"d{i}", VULN + f"// {i}\n") for i in range(6)])
            )
            await asyncio.sleep(0.01)
            drained = await client.drain("s1")
            assert drained["drained"]["state"] == "draining"
            reports = (await sweep)["reports"]
            assert [r["label"] for r in reports] == [f"d{i}" for i in range(6)]

        run_cluster(scenario)


class TestQuotas:
    def test_429_with_retry_after_honored_by_client(self):
        # tiny bucket, fast refill: the client must wait out Retry-After
        # (from the JSON body) and then succeed
        quotas = QuotaManager(capacity=1, refill_rate=200.0)

        async def scenario(client, router):
            first = await client.analyze(VULN, label="a")
            assert first["label"] == "a"
            second = await client.analyze(VULN + "// b\n", label="b")
            assert second["label"] == "b"
            assert client.throttled_waits, "client never saw a 429"
            assert all(0 < wait <= 0.1 for wait in client.throttled_waits)

        run_cluster(scenario, quotas=quotas, tenant="burst")

    def test_429_surfaces_when_retries_exhausted(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        async def scenario(client, router):
            await client.analyze(VULN, label="a")
            with pytest.raises(ServiceError) as excinfo:
                await client.analyze(VULN + "// b\n", label="b")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 1

        run_cluster(
            scenario, quotas=quotas, tenant="dry", max_throttle_retries=0
        )

    def test_burst_at_exactly_capacity_is_admitted(self):
        quotas = QuotaManager(capacity=4, refill_rate=0.001)

        async def scenario(client, router):
            pairs = [(f"l{i}", VULN + f"// {i}\n") for i in range(4)]
            response = await client.sweep(pairs)  # cost 4 == capacity
            assert len(response["reports"]) == 4
            with pytest.raises(ServiceError) as excinfo:
                await client.analyze(VULN + "// over\n")
            assert excinfo.value.status == 429

        run_cluster(
            scenario, quotas=quotas, tenant="exact", max_throttle_retries=0
        )

    def test_tenant_isolation_over_http(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        async def scenario(client, router):
            starving = client
            fed = AsyncClusterClient(
                "127.0.0.1",
                starving._transport.port,
                tenant="fed",
                max_throttle_retries=0,
            )
            await starving.analyze(VULN, label="a")
            with pytest.raises(ServiceError):
                await starving.analyze(VULN + "// b\n")
            response = await fed.analyze(VULN + "// c\n", label="c")
            assert response["label"] == "c"

        run_cluster(
            scenario, quotas=quotas, tenant="starving", max_throttle_retries=0
        )

    def test_quota_counters_on_metrics(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        async def scenario(client, router):
            await client.analyze(VULN, label="a")
            with pytest.raises(ServiceError):
                await client.analyze(VULN + "// b\n")
            metrics = await client.metrics()
            assert metrics["quotas"]["granted"] == 1
            assert metrics["quotas"]["throttled"] == 1
            assert "q1" in metrics["quotas"]["tenants"]
            assert metrics["counters"]["cluster.http_throttled"] == 1
            text = await client.metrics_text()
            assert "repro_cluster_throttled_q1_total" in text

        run_cluster(
            scenario, quotas=quotas, tenant="q1", max_throttle_retries=0
        )

    def test_missing_tenant_header_is_anon(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        async def scenario(client, router):
            await client.analyze(VULN, label="a")
            metrics = await client.metrics()
            assert DEFAULT_TENANT in metrics["quotas"]["tenants"]

        run_cluster(scenario, quotas=quotas)  # no tenant= → no header


class TestMetrics:
    def test_per_shard_labels_in_prometheus_text(self):
        async def scenario(client, router):
            await client.sweep([(f"m{i}", VULN + f"// {i}\n") for i in range(8)])
            text = await client.metrics_text()
            assert 'shard_id="router"' in text
            assert "repro_cluster_jobs_completed_total" in text
            # the pool gauges exist on every shard, busy or idle
            assert 'repro_pool_workers{shard_id="s0"}' in text
            assert 'repro_pool_workers{shard_id="s1"}' in text
            assert 'repro_scheduler_jobs_submitted_total{shard_id="s' in text
            # TYPE lines must not repeat across shard renders
            type_lines = [
                line
                for line in text.splitlines()
                if line.startswith("# TYPE repro_pool_workers ")
            ]
            assert len(type_lines) == 1

        run_cluster(scenario)

    def test_json_document_keys_shards_by_id(self):
        async def scenario(client, router):
            await client.analyze(VULN, label="m")
            metrics = await client.metrics()
            assert set(metrics["shards"]) == {"s0", "s1"}
            assert metrics["shards"]["s0"]["shard"]["shard_id"] == "s0"
            assert metrics["tiers"]["lookups"] >= 1
            assert metrics["counters"]["cluster.jobs_completed"] >= 1

        run_cluster(scenario)


class TestSubprocessShards:
    """The deployment shape: each shard a child repro-serve process."""

    def test_round_trip_cache_peering_and_failover(self):
        async def main():
            shards = []
            try:
                for index in range(2):
                    shard = SubprocessShard(f"p{index}", workers=1)
                    await shard.start()
                    shards.append(shard)
                router = ClusterRouter(shards, vnodes=32)
                server = await create_cluster_server(router)
                client = AsyncClusterClient("127.0.0.1", server.port)
                try:
                    pairs = [(f"l{i}", VULN + f"// {i}\n") for i in range(4)]
                    cold = await client.sweep(pairs)
                    warm = await client.sweep(pairs)
                    assert json.dumps(cold, sort_keys=True) == json.dumps(
                        warm, sort_keys=True
                    )
                    tiers = (await client.metrics())["tiers"]
                    assert tiers["hits"]["mem"] >= 4
                    # per-shard labels flow through the HTTP shard protocol
                    text = await client.metrics_text()
                    assert 'shard_id="p0"' in text and 'shard_id="p1"' in text
                    # kill the child process; the survivor absorbs the keys
                    await client.kill("p0")
                    survived = await client.sweep(pairs)
                    assert json.dumps(survived, sort_keys=True) == json.dumps(
                        cold, sort_keys=True
                    )
                finally:
                    await server.close()
            finally:
                for shard in shards:
                    await shard.close()

        asyncio.run(main())
