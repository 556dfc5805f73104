"""``repro-cluster``: the asyncio HTTP front-end over the shard router.

A single event loop accepts connections, admits each request against
the tenant's token bucket, and routes jobs through the
:class:`~repro.cluster.router.ClusterRouter`.  The HTTP surface is
hand-parsed HTTP/1.1 with ``Connection: close`` (one request per
connection), matching the zero-dependency rule of the rest of the repo.

Endpoints (all JSON unless noted):

``GET /healthz``
    Liveness: live shard count, version, topology mode.
``GET /metrics``
    Cluster counters, per-tier cache stats, quota accounting, and each
    shard's full snapshot keyed by ``shard_id``; ``?format=prom``
    returns the concatenated per-shard Prometheus exposition, every
    sample labelled with its ``shard_id``.
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

import asyncio
import json
from typing import Optional, Tuple

from ..service.client import ServiceError
from ..service.jobs import AnalyzeJob, AttackJob, ExecJob
from ..service.scheduler import JobFailed, QueueFull
from .quotas import DEFAULT_TENANT, QuotaManager
from .router import ClusterError, ClusterRouter

_MAX_BODY = 32 * 1024 * 1024  # refuse absurd request bodies outright


class _BadRequest(ValueError):
    """Maps to HTTP 400 with the message as the error field."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, dict, dict]:
    """``(method, path, headers, body)`` for one HTTP/1.1 request."""
    request_line = await reader.readline()
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ConnectionError(f"malformed request line {request_line!r}")
    method, path = parts[0].upper(), parts[1]
    headers: dict = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length") or 0)
    if length > _MAX_BODY:
        raise _BadRequest(f"request body over {_MAX_BODY} bytes")
    body: dict = {}
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw)
        except ValueError:
            raise _BadRequest("request body must be valid JSON") from None
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
    return method, path, headers, body


class ClusterServer:
    """The asyncio server; create via :func:`create_cluster_server`."""

    def __init__(
        self,
        router: ClusterRouter,
        quotas: Optional[QuotaManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.router = router
        self.quotas = quotas or QuotaManager()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ClusterServer":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.router.close()

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, headers, body = await _read_request(reader)
            except _BadRequest as error:
                await self._respond(writer, 400, {"error": str(error)})
                return
            except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                return  # client hung up or sent garbage; nothing to answer
            self.router.metrics.counter("cluster.http_requests").inc()
            status, payload, extra_headers = await self._route(
                method, path, headers, body
            )
            await self._respond(writer, status, payload, extra_headers)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        extra_headers: Optional[dict] = None,
    ) -> None:
        if isinstance(payload, (dict, list)):
            data = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        else:
            data = str(payload).encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(
        self, method: str, path: str, headers: dict, body: dict
    ) -> Tuple[int, object, Optional[dict]]:
        try:
            if method == "GET":
                return await self._route_get(path)
            if method == "POST":
                return await self._route_post(path, headers, body)
            return 400, {"error": f"unsupported method {method}"}, None
        except (KeyError, TypeError, ValueError) as error:
            self.router.metrics.counter("cluster.http_bad_request").inc()
            message = (
                error.args[0]
                if isinstance(error, KeyError) and error.args
                else str(error)
            )
            return 400, {"error": str(message)}, None
        except QueueFull as error:
            return 503, {"error": str(error)}, None
        except ClusterError as error:
            self.router.metrics.counter("cluster.http_unavailable").inc()
            return 503, {"error": str(error)}, None
        except (JobFailed, ServiceError) as error:
            self.router.metrics.counter("cluster.http_job_failed").inc()
            return 500, {"error": str(error)}, None

    async def _route_get(self, path: str) -> Tuple[int, object, Optional[dict]]:
        bare, _, query = path.partition("?")
        if bare == "/healthz":
            from .. import __version__

            return 200, {
                "status": "ok",
                "version": __version__,
                "shards_live": len(self.router.ring),
                "shards": sorted(self.router.ring.shards),
            }, None
        if bare == "/metrics":
            if "format=prom" in query or "format=text" in query:
                return 200, await self.router.metrics_prometheus(), None
            document = await self.router.metrics_document()
            document["quotas"] = self.quotas.stats()
            return 200, document, None
        if bare == "/cluster":
            return 200, self.router.topology(), None
        self.router.metrics.counter("cluster.http_not_found").inc()
        return 404, {"error": f"unknown path {path}"}, None

    async def _route_post(
        self, path: str, headers: dict, body: dict
    ) -> Tuple[int, object, Optional[dict]]:
        if path == "/admin/drain":
            report = await self.router.drain_shard(str(body.get("shard") or ""))
            return 200, {"drained": report}, None
        if path == "/admin/kill":
            self.router.kill_shard(str(body.get("shard") or ""))
            return 200, {"killed": body.get("shard")}, None

        jobs = self._jobs_for(path, body)
        if jobs is None:
            self.router.metrics.counter("cluster.http_not_found").inc()
            return 404, {"error": f"unknown path {path}"}, None
        tenant = headers.get("x-tenant", "") or DEFAULT_TENANT
        granted, retry_after = self.quotas.admit(tenant, cost=len(jobs))
        if not granted:
            self.router.metrics.counter("cluster.http_throttled").inc()
            self.router.metrics.counter(f"cluster.throttled.{tenant}").inc()
            retry_after = round(retry_after, 6)
            return (
                429,
                {
                    "error": f"tenant '{tenant}' over quota",
                    "retry_after": retry_after,
                },
                # float Retry-After: non-standard but widely accepted,
                # and the exact value also rides in the JSON body
                {"Retry-After": str(retry_after)},
            )
        if len(jobs) == 1 and "sources" not in body:
            return 200, await self.router.submit_job(jobs[0]), None
        results = await self.router.sweep(jobs)
        # match the repro-serve payload shape for each collection route
        wrapper = "results" if path == "/attacks" else "reports"
        return 200, {wrapper: results}, None

    def _jobs_for(self, path: str, body: dict):
        """The job list a POST implies, or ``None`` for unknown paths."""
        if path == "/analyze":
            legacy = bool(body.get("legacy"))
            if "sources" in body:
                pairs = body["sources"]
                if not isinstance(pairs, list) or not all(
                    isinstance(pair, (list, tuple)) and len(pair) == 2
                    for pair in pairs
                ):
                    raise _BadRequest(
                        "'sources' must be a list of [label, source] pairs"
                    )
                return [
                    AnalyzeJob(source=str(source), label=str(label), legacy=legacy)
                    for label, source in pairs
                ]
            source = body.get("source")
            if not isinstance(source, str):
                raise _BadRequest(
                    "'source' must be a string (or pass a 'sources' list)"
                )
            return [
                AnalyzeJob(
                    source=source, label=str(body.get("label", "")), legacy=legacy
                )
            ]
        if path == "/attacks":
            from ..attacks import attack_by_name, environment_by_label

            env = str(body.get("env", "unprotected"))
            environment_by_label(env)  # unknown env → KeyError → 400
            if body.get("attack"):
                attack_by_name(str(body["attack"]))
                return [AttackJob(attack=str(body["attack"]), env=env)]
            from ..attacks import all_attacks

            return [
                AttackJob(attack=scenario.name, env=env)
                for scenario in all_attacks()
            ]
        if path == "/exec":
            source = body.get("source")
            if not isinstance(source, str):
                raise _BadRequest("'source' must be a string")
            return [
                ExecJob(
                    source=source,
                    entry=str(body.get("entry", "main")),
                    args=tuple(body.get("args") or ()),
                    stdin=tuple(body.get("stdin") or ()),
                    canary=bool(body.get("canary")),
                )
            ]
        return None


async def create_cluster_server(
    router: ClusterRouter,
    quotas: Optional[QuotaManager] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ClusterServer:
    """Bind and start (but do not serve) the front-end; port 0 = pick one."""
    return await ClusterServer(router, quotas=quotas, host=host, port=port).start()
