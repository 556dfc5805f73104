"""``repro-cluster``: the HTTP front-end over the shard router.

The same plumbing as ``repro-serve``
(:class:`~repro.service.server.JSONRequestHandler` on a
``ThreadingHTTPServer``, one request per connection): the cluster adds
its routes, per-tenant quota admission and ``ClusterError`` → 503.
Each request runs on its own thread; sweeps fan out on the router's
pool.

Endpoints (all JSON unless noted):

``GET /healthz``
    Liveness: live shard count, version, topology mode.
``GET /metrics``
    Cluster counters, per-tier cache stats, quota accounting, and each
    shard's full snapshot keyed by ``shard_id``; ``?format=prom`` (or a
    scraper ``Accept`` header, as on ``repro-serve``) returns the
    concatenated per-shard Prometheus exposition, every sample labelled
    with its ``shard_id``.
``GET /cluster``
    Ring + shard topology (vnodes, membership, per-shard state).
``POST /analyze``
    ``{"source": ..., "label": ..., "legacy": ...}`` for one job, or
    ``{"sources": [[label, source], ...]}`` for an ordered sweep.
``POST /attacks`` / ``POST /exec``
    As on ``repro-serve``, routed to the owning shard.
``POST /admin/drain`` / ``POST /admin/kill``
    ``{"shard": id}`` — graceful drain (queue finishes, keys remap) or
    brutal kill (in-flight work re-dispatches to the ring successor).

Every request may carry ``X-Tenant``; absent means tenant ``"anon"``.
A request whose tenant bucket cannot cover its job count is answered
``429`` with both a ``Retry-After`` header and the exact float in the
``retry_after`` JSON field.
"""

from __future__ import annotations

from typing import List, Optional

from ..service.client import ServiceError
from ..service.jobs import AnalyzeJob, Job
from ..service.server import (
    HTTPError,
    JSONHTTPServer,
    JSONRequestHandler,
    attack_jobs,
    exec_job,
)
from .quotas import DEFAULT_TENANT, QuotaManager
from .router import ClusterError, ClusterRouter


class ClusterServer(JSONHTTPServer):
    """The front-end, bound on construction; port 0 picks a free one.

    Closing the server leaves the router (and its shards) to its owner.
    """

    def __init__(
        self,
        router: ClusterRouter,
        quotas: Optional[QuotaManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__((host, port), _ClusterHandler, router.metrics)
        self.router = router
        self.quotas = quotas or QuotaManager()


class _ClusterHandler(JSONRequestHandler):
    server: ClusterServer

    METRIC_PREFIX = "cluster.http_"
    ERRORS = JSONRequestHandler.ERRORS + (
        (ClusterError, 503, "unavailable"),
        (ServiceError, 500, "job_failed"),
    )

    @property
    def router(self) -> ClusterRouter:
        return self.server.router

    def _healthz(self) -> dict:
        from .. import __version__

        return {
            "status": "ok",
            "version": __version__,
            "shards_live": len(self.router.ring),
            "shards": sorted(self.router.ring.shards),
        }

    def _metrics(self):
        if self._wants_prometheus():
            return self.router.metrics_prometheus()
        document = self.router.metrics_document()
        document["quotas"] = self.server.quotas.stats()
        return document

    def _cluster(self) -> dict:
        return self.router.topology()

    def _drain(self, body: dict) -> dict:
        return {"drained": self.router.drain_shard(str(body.get("shard") or ""))}

    def _kill(self, body: dict) -> dict:
        self.router.kill_shard(str(body.get("shard") or ""))
        return {"killed": body.get("shard")}

    def _analyze(self, body: dict) -> dict:
        legacy = bool(body.get("legacy"))
        if "sources" in body:
            pairs = body["sources"]
            if not isinstance(pairs, list) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                for pair in pairs
            ):
                raise ValueError("'sources' must be a list of [label, source] pairs")
            return self._run(
                body,
                [
                    AnalyzeJob(source=str(source), label=str(label), legacy=legacy)
                    for label, source in pairs
                ],
                "reports",
            )
        source = body.get("source")
        if not isinstance(source, str):
            raise ValueError("'source' must be a string (or pass a 'sources' list)")
        job = AnalyzeJob(source=source, label=str(body.get("label", "")), legacy=legacy)
        return self._run(body, [job], "reports")

    def _attacks(self, body: dict) -> dict:
        return self._run(body, attack_jobs(body), "results")

    def _exec(self, body: dict) -> dict:
        return self._run(body, [exec_job(body)], "reports")

    def _run(self, body: dict, jobs: List[Job], wrapper: str) -> dict:
        """Admit the request against its tenant's quota, then route it.

        One job answers as on ``repro-serve``; several answer as a list
        under ``wrapper``, in submission order.
        """
        tenant = self.headers.get("X-Tenant") or DEFAULT_TENANT
        granted, retry_after = self.server.quotas.admit(tenant, cost=len(jobs))
        if not granted:
            self.router.metrics.counter(f"cluster.throttled.{tenant}").inc()
            retry_after = round(retry_after, 6)
            # float Retry-After: non-standard but widely accepted, and
            # the exact value also rides in the JSON body
            raise HTTPError(
                429,
                f"tenant '{tenant}' over quota",
                counter="throttled",
                headers={"Retry-After": str(retry_after)},
                retry_after=retry_after,
            )
        if len(jobs) == 1 and "sources" not in body:
            return self.router.submit_job(jobs[0])
        return {wrapper: self.router.sweep(jobs)}

    GET_ROUTES = {
        "/healthz": _healthz,
        "/metrics": _metrics,
        "/cluster": _cluster,
    }
    POST_ROUTES = {
        "/analyze": _analyze,
        "/attacks": _attacks,
        "/exec": _exec,
        "/admin/drain": _drain,
        "/admin/kill": _kill,
    }
