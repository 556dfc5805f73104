"""The cluster front-end over HTTP: endpoints, quotas, shard labels."""

import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import ClusterRouter, ClusterServer, QuotaManager, Shard
from repro.cluster.quotas import DEFAULT_TENANT
from repro.service import (
    ExecJob,
    JobFailed,
    ServiceClient,
    ServiceEngine,
    ServiceError,
    create_server,
)
from repro.service.server import MAX_BODY

from .test_service_server import BAD_LENGTHS, raw_post

VULN = """
class A { public: double d; };
class B : public A { public: int x[8]; };
void f() { A a; B *b = new (&a) B(); }
"""


def run_cluster(scenario, shards=2, quotas=None, **client_kwargs):
    """Start a live cluster + front-end, run ``scenario(client, router)``."""
    members = [Shard.in_process(f"s{i}", workers=1) for i in range(shards)]
    router = ClusterRouter(members, vnodes=32)
    server = ClusterServer(router, quotas=quotas).start()
    client = ServiceClient(f"http://127.0.0.1:{server.port}", **client_kwargs)
    try:
        return scenario(client, router)
    finally:
        server.close()
        router.close()


def in_background(fn, *args):
    """Start ``fn(*args)`` on a thread; ``.result()`` joins it."""
    pool = ThreadPoolExecutor(max_workers=1)
    future = pool.submit(fn, *args)
    pool.shutdown(wait=False)
    return future


class TestEndpoints:
    def test_healthz(self):
        def scenario(client, router):
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["shards_live"] == 2
            assert health["shards"] == ["s0", "s1"]

        run_cluster(scenario)

    def test_analyze_round_trip(self):
        def scenario(client, router):
            response = client.analyze(VULN, label="vuln")
            assert response["label"] == "vuln"
            assert "PN-OVERSIZE" in [f["rule"] for f in response["findings"]]

        run_cluster(scenario)

    def test_sweep_preserves_submission_order(self):
        def scenario(client, router):
            pairs = [(f"l{i}", VULN + f"// {i}\n") for i in range(8)]
            response = client.sweep(pairs)
            assert [r["label"] for r in response["reports"]] == [
                f"l{i}" for i in range(8)
            ]

        run_cluster(scenario)

    def test_attack_and_exec_round_trips(self):
        def scenario(client, router):
            attack = client.attacks(attack="data-bss-overflow")
            assert attack["summary"] == "ATTACK-WINS"
            result = client.execute("int main(int a, char b) { return 9; }")
            assert result["return_value"] == 9
            assert result["engine"] == "bytecode"
            # The retired engine selector is ignored like any unknown key.
            legacy = client._request(
                "POST", "/exec", {"source": "int main() { return 4; }", "engine": "qemu"}
            )
            assert legacy["return_value"] == 4

        run_cluster(scenario)

    def test_cluster_topology_endpoint(self):
        def scenario(client, router):
            topology = client.cluster()
            assert topology["ring"]["shards"] == ["s0", "s1"]
            assert topology["shards"]["s0"]["state"] == "active"

        run_cluster(scenario)

    def test_unknown_path_404_and_bad_body_400(self):
        def scenario(client, router):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/analyze", {"legacy": True})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/attacks", {"attack": "nope"})
            assert excinfo.value.status == 400

        run_cluster(scenario)

    def test_admin_kill_then_serving_continues(self):
        def scenario(client, router):
            client.analyze(VULN, label="before")
            client.kill("s0")
            response = client.analyze(VULN + "// 2\n", label="after")
            assert response["label"] == "after"
            assert client.healthz()["shards_live"] == 1

        run_cluster(scenario)

    def test_admin_drain_finishes_queue(self):
        def scenario(client, router):
            sweep = in_background(
                client.sweep, [(f"d{i}", VULN + f"// {i}\n") for i in range(6)]
            )
            time.sleep(0.01)
            drained = client.drain("s1")
            assert drained["drained"]["state"] == "draining"
            reports = sweep.result()["reports"]
            assert [r["label"] for r in reports] == [f"d{i}" for i in range(6)]

        run_cluster(scenario)


class TestQuotas:
    def test_429_with_retry_after_honored_by_client(self):
        # tiny bucket, fast refill: the client must wait out Retry-After
        # (from the JSON body) and then succeed
        quotas = QuotaManager(capacity=1, refill_rate=200.0)

        def scenario(client, router):
            first = client.analyze(VULN, label="a")
            assert first["label"] == "a"
            second = client.analyze(VULN + "// b\n", label="b")
            assert second["label"] == "b"
            assert client.throttled_waits, "client never saw a 429"
            assert all(0 < wait <= 0.1 for wait in client.throttled_waits)

        run_cluster(scenario, quotas=quotas, tenant="burst")

    def test_429_surfaces_when_retries_exhausted(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        def scenario(client, router):
            client.analyze(VULN, label="a")
            with pytest.raises(ServiceError) as excinfo:
                client.analyze(VULN + "// b\n", label="b")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 1

        run_cluster(
            scenario, quotas=quotas, tenant="dry", max_throttle_retries=0
        )

    def test_burst_at_exactly_capacity_is_admitted(self):
        quotas = QuotaManager(capacity=4, refill_rate=0.001)

        def scenario(client, router):
            pairs = [(f"l{i}", VULN + f"// {i}\n") for i in range(4)]
            response = client.sweep(pairs)  # cost 4 == capacity
            assert len(response["reports"]) == 4
            with pytest.raises(ServiceError) as excinfo:
                client.analyze(VULN + "// over\n")
            assert excinfo.value.status == 429

        run_cluster(
            scenario, quotas=quotas, tenant="exact", max_throttle_retries=0
        )

    def test_tenant_isolation_over_http(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        def scenario(client, router):
            starving = client
            fed = ServiceClient(
                starving.base_url, tenant="fed", max_throttle_retries=0
            )
            starving.analyze(VULN, label="a")
            with pytest.raises(ServiceError):
                starving.analyze(VULN + "// b\n")
            response = fed.analyze(VULN + "// c\n", label="c")
            assert response["label"] == "c"

        run_cluster(
            scenario, quotas=quotas, tenant="starving", max_throttle_retries=0
        )

    def test_quota_counters_on_metrics(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        def scenario(client, router):
            client.analyze(VULN, label="a")
            with pytest.raises(ServiceError):
                client.analyze(VULN + "// b\n")
            metrics = client.metrics_snapshot()
            assert metrics["quotas"]["granted"] == 1
            assert metrics["quotas"]["throttled"] == 1
            assert "q1" in metrics["quotas"]["tenants"]
            assert metrics["counters"]["cluster.http_throttled"] == 1
            text = client.metrics_prometheus()
            assert "repro_cluster_throttled_q1_total" in text

        run_cluster(
            scenario, quotas=quotas, tenant="q1", max_throttle_retries=0
        )

    def test_missing_tenant_header_is_anon(self):
        quotas = QuotaManager(capacity=1, refill_rate=0.001)

        def scenario(client, router):
            client.analyze(VULN, label="a")
            metrics = client.metrics_snapshot()
            assert DEFAULT_TENANT in metrics["quotas"]["tenants"]

        run_cluster(scenario, quotas=quotas)  # no tenant= → no header


class TestMetrics:
    def test_per_shard_labels_in_prometheus_text(self):
        def scenario(client, router):
            client.sweep([(f"m{i}", VULN + f"// {i}\n") for i in range(8)])
            text = client.metrics_prometheus()
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
        def scenario(client, router):
            client.analyze(VULN, label="m")
            metrics = client.metrics_snapshot()
            assert set(metrics["shards"]) == {"s0", "s1"}
            assert metrics["shards"]["s0"]["shard"]["shard_id"] == "s0"
            assert metrics["tiers"]["lookups"] >= 1
            assert metrics["counters"]["cluster.jobs_completed"] >= 1

        run_cluster(scenario)


class TestSubprocessShards:
    """The deployment shape: each shard a child repro-serve process."""

    def test_round_trip_cache_peering_and_failover(self):
        shards = []
        try:
            for index in range(2):
                shards.append(Shard.spawn(f"p{index}", workers=1))
            router = ClusterRouter(shards, vnodes=32)
            server = ClusterServer(router).start()
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            try:
                pairs = [(f"l{i}", VULN + f"// {i}\n") for i in range(4)]
                cold = client.sweep(pairs)
                warm = client.sweep(pairs)
                assert json.dumps(cold, sort_keys=True) == json.dumps(
                    warm, sort_keys=True
                )
                tiers = client.metrics_snapshot()["tiers"]
                assert tiers["hits"]["mem"] >= 4
                # per-shard labels flow through the HTTP shard protocol
                text = client.metrics_prometheus()
                assert 'shard_id="p0"' in text and 'shard_id="p1"' in text
                # kill the child process; the survivor absorbs the keys
                client.kill("p0")
                survived = client.sweep(pairs)
                assert json.dumps(survived, sort_keys=True) == json.dumps(
                    cold, sort_keys=True
                )
            finally:
                server.close()
        finally:
            for shard in shards:
                shard.close()


class TestHTTPPlumbing:
    """The plumbing shared with repro-serve, exercised on the cluster."""

    @pytest.mark.parametrize("length", BAD_LENGTHS)
    def test_bad_content_length_is_answered_400(self, length):
        def scenario(client, router):
            status, reply = raw_post(client.base_url, "/analyze", length)
            assert status == 400
            assert "Content-Length" in reply["error"] or str(MAX_BODY) in reply["error"]
            counters = router.metrics.snapshot()["counters"]
            assert counters["cluster.http_bad_request"] == 1
            assert client.healthz()["status"] == "ok"

        run_cluster(scenario)

    def test_metrics_negotiates_prometheus_like_repro_serve(self):
        def scenario(client, router):
            request = urllib.request.Request(
                client.base_url + "/metrics",
                headers={"Accept": "text/plain;version=0.0.4"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert "text/plain" in response.headers["Content-Type"]
                assert b'shard_id="router"' in response.read()
            with urllib.request.urlopen(
                client.base_url + "/metrics?format=prometheus", timeout=10
            ) as response:
                assert b'repro_pool_workers{shard_id="s0"}' in response.read()
            assert "shards" in client.metrics_snapshot()  # JSON stays default

        run_cluster(scenario)

    def test_post_routing_ignores_query_string(self):
        def scenario(client, router):
            response = client._request(
                "POST", "/analyze?x=1", {"source": VULN, "label": "query"}
            )
            assert response["label"] == "query"

        run_cluster(scenario)


class TestShardCompletionCounting:
    """Only successful runs count as completed, on either backend."""

    @pytest.mark.parametrize("mode", ["inprocess", "subprocess"])
    def test_rejected_exec_leaves_completed_unchanged(self, mode):
        if mode == "inprocess":
            shard = Shard.in_process("c0", workers=1)
        else:
            shard = Shard.spawn("c0", workers=1)
        try:
            result = shard.run_job(ExecJob(source="int main() { return 1; }"))
            assert result["return_value"] == 1
            assert shard.completed == 1
            # a non-string source: JobFailed in process, a 400 from a child
            with pytest.raises((JobFailed, ServiceError)):
                shard.run_job(ExecJob(source=7))
            assert shard.describe()["completed"] == 1
            assert shard.describe()["inflight"] == 0
            assert shard.state == "active"
        finally:
            shard.close()


#: One body per route shape the cluster forwards to its shards.
PARITY_BODIES = {
    "analyze": ("/analyze", {"source": VULN, "label": "parity"}),
    "analyze-legacy": ("/analyze", {"source": VULN, "label": "parity", "legacy": True}),
    "attack": ("/attacks", {"attack": "data-bss-overflow"}),
    "gallery-stackguard": ("/attacks", {"env": "stackguard"}),
    "exec": ("/exec", {"source": "int main(int a, char b) { return 9; }"}),
}


@pytest.fixture(scope="module")
def both_surfaces():
    """``(repro-serve client, 1-shard cluster client)`` on live servers."""
    with ServiceEngine(workers=2) as engine:
        service = create_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        router = ClusterRouter([Shard.in_process("s0", workers=2)])
        cluster = ClusterServer(router).start()
        try:
            yield (
                ServiceClient(f"http://127.0.0.1:{service.server_address[1]}"),
                ServiceClient(f"http://127.0.0.1:{cluster.port}"),
            )
        finally:
            cluster.close()
            router.close()
            service.shutdown()
            service.server_close()


class TestSurfaceParity:
    """A 1-shard cluster answers "as on repro-serve", byte for byte."""

    @pytest.mark.parametrize("name", sorted(PARITY_BODIES))
    def test_same_json_bytes_on_both_surfaces(self, both_surfaces, name):
        path, body = PARITY_BODIES[name]
        served, clustered = (
            json.dumps(client._request("POST", path, body), sort_keys=True)
            for client in both_surfaces
        )
        assert served == clustered
