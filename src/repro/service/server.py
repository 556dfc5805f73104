"""``repro-serve``: a stdlib-only JSON API over the service engine.

Endpoints (all responses are ``application/json``):

``GET /healthz``
    Liveness: engine version, worker count, cache state.
``GET /metrics``
    The full metrics snapshot (scheduler counters/histograms, cache
    accounting, pool shape, fault-injection counts).  JSON by default;
    ``?format=prom`` — or an ``Accept`` header asking for ``text/plain``
    / OpenMetrics, as Prometheus scrapers send — switches to the
    Prometheus text exposition format.
``GET /trace/<key>``
    The span record (trace id + per-stage spans) of the most recent
    submission of job ``<key>``; ``GET /trace`` lists traced keys.
``GET /cache/<key>`` / ``POST /cache/<key>``
    The shard-local result-cache peer protocol used by the cluster
    front-end (:mod:`repro.cluster`): GET probes this process's cache
    without computing (200 with ``{"key", "tier", "result"}`` or 404),
    POST ``{"result": {...}}`` warms it with a result computed on
    another shard.
``POST /analyze``
    ``{"source": "..."}`` or ``{"corpus": true}`` — detector findings.
    Optional ``label`` and ``legacy`` fields.
``POST /attacks``
    ``{"attack": "name", "env": "label"}`` — one attack; omit
    ``attack`` to run the whole gallery in parallel.
``POST /matrix``
    ``{"attacks": [...], "defenses": [...]}`` (both optional) — the E14
    matrix, decomposed into parallel per-cell jobs.
``POST /exec``
    ``{"source": "...", "entry": "main", "args": [], "stdin": [],
    "canary": false}`` — run on the simulated machine (the bytecode VM,
    falling back to the interpreter for uncompilable sources; the
    reply's ``engine`` says which ran).  Unknown keys, including the
    retired ``engine`` selector, are ignored.

Requests are executed through the engine's scheduler, so repeated
identical requests are served from the result cache, and the server
stays responsive under load: ``ThreadingHTTPServer`` handles sockets
while the bounded work queue sheds excess load as HTTP 503.

:class:`JSONRequestHandler` is the plumbing shared with the cluster
front-end (:mod:`repro.cluster.server`): route tables, one body reader
(malformed or oversized framing is a 400), one JSON sender, Prometheus
negotiation and the exception → status mapping.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .engine import ServiceEngine
from .jobs import AttackJob, ExecJob
from .scheduler import JobFailed, QueueFull

#: Request bodies larger than this are refused before they are read.
MAX_BODY = 32 * 1024 * 1024

PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class HTTPError(Exception):
    """Answer with ``status`` and ``{"error": message, **fields}``.

    ``counter`` names the ``<prefix><counter>`` metric to bump.
    """

    def __init__(self, status, message, counter=None, headers=None, **fields):
        super().__init__(message)
        self.status = status
        self.counter = counter
        self.headers = headers or {}
        self.body = {"error": message, **fields}


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Route-table dispatch for a JSON API (one request per connection).

    Subclasses fill ``GET_ROUTES``/``POST_ROUTES`` with path → function.
    A path ending in ``/`` is a prefix whose remainder becomes the last
    argument; POST handlers get the parsed body first.  A handler's dict
    return is sent as JSON, a str as Prometheus text.  The server must
    carry a ``metrics`` registry; counters are ``METRIC_PREFIX + name``.
    """

    METRIC_PREFIX = "http."
    GET_ROUTES: dict = {}
    POST_ROUTES: dict = {}
    #: (exception types, status, counter), first match wins
    ERRORS: tuple = (
        ((KeyError, TypeError, ValueError), 400, "bad_request"),
        (QueueFull, 503, "overloaded"),
        (JobFailed, 500, "job_failed"),
    )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # requests are accounted in metrics, not stderr

    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        self._dispatch(self.GET_ROUTES)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self.POST_ROUTES)

    def _count(self, name: str) -> None:
        self.server.metrics.counter(self.METRIC_PREFIX + name).inc()

    def _dispatch(self, routes: dict) -> None:
        self._count("requests")
        url = urlsplit(self.path)
        self.query = url.query
        try:
            args = (self._read_body(),) if self.command == "POST" else ()
            handler, rest = self._route(routes, url.path)
            reply = handler(self, *args, *rest)
        except HTTPError as error:
            if error.counter:
                self._count(error.counter)
            self._send_json(error.status, error.body, error.headers)
            return
        except Exception as error:
            for types, status, counter in self.ERRORS:
                if isinstance(error, types):
                    break
            else:
                raise
            self._count(counter)
            # KeyError's str() wraps its message in an extra repr layer
            message = (
                error.args[0]
                if isinstance(error, KeyError) and error.args
                else error
            )
            self._send_json(status, {"error": str(message)})
            return
        if isinstance(reply, str):
            self._send_bytes(200, reply.encode(), PROMETHEUS_TYPE)
        else:
            self._send_json(200, reply)

    def _route(self, routes: dict, path: str):
        if path in routes:
            return routes[path], ()
        for prefix, handler in routes.items():
            if prefix.endswith("/") and path.startswith(prefix):
                return handler, (path[len(prefix):],)
        raise HTTPError(404, f"unknown path {self.path}", counter="not_found")

    def _read_body(self) -> dict:
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():  # negative, signed or not a number
            raise HTTPError(400, f"bad Content-Length {length!r}", counter="bad_request")
        if int(length) > MAX_BODY:
            raise HTTPError(
                400, f"request body over {MAX_BODY} bytes", counter="bad_request"
            )
        try:
            body = json.loads(self.rfile.read(int(length)) or b"{}")
        except ValueError:
            body = None
        if not isinstance(body, dict):
            raise HTTPError(
                400, "request body must be a JSON object", counter="bad_request"
            )
        return body

    def _send_json(self, status: int, body: dict, headers=None) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        self._send_bytes(status, data, "application/json", headers)

    def _send_bytes(
        self, status: int, data: bytes, content_type: str, headers=None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _wants_prometheus(self) -> bool:
        """Prometheus text via ``?format=prom`` or scraper Accept headers."""
        requested = parse_qs(self.query).get("format", [""])[0]
        if requested:
            return requested in ("prom", "prometheus", "text")
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept or "openmetrics" in accept


def attack_jobs(body: dict) -> List[AttackJob]:
    """An ``/attacks`` body: one named attack, or the whole gallery.

    Names are validated before anything queues (KeyError → 400).
    """
    from ..attacks import all_attacks, attack_by_name, environment_by_label

    env = str(body.get("env", "unprotected"))
    environment_by_label(env)
    if body.get("attack"):
        attack_by_name(str(body["attack"]))
        return [AttackJob(attack=str(body["attack"]), env=env)]
    return [AttackJob(attack=scenario.name, env=env) for scenario in all_attacks()]


def exec_job(body: dict) -> ExecJob:
    """An ``/exec`` body; unknown keys (the retired ``engine``) are ignored."""
    source = body.get("source")
    if not isinstance(source, str):
        raise ValueError("'source' must be a string")
    return ExecJob(
        source=source,
        entry=str(body.get("entry", "main")),
        args=tuple(body.get("args") or ()),
        stdin=tuple(body.get("stdin") or ()),
        canary=bool(body.get("canary")),
    )


class JSONHTTPServer(ThreadingHTTPServer):
    """A threaded server whose handlers count into ``metrics``."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler, metrics):
        super().__init__(address, handler)
        self.metrics = metrics
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> "JSONHTTPServer":
        """Serve on a background thread (``close`` stops it within 50 ms)."""
        self._thread = threading.Thread(
            target=self.serve_forever, args=(0.05,), daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
        self.server_close()


class ServiceHTTPServer(JSONHTTPServer):
    """The ``repro-serve`` server; it carries the engine for its handlers."""

    def __init__(self, address: Tuple[str, int], engine: ServiceEngine):
        super().__init__(address, _ServiceHandler, engine.metrics)
        self.engine = engine


class _ServiceHandler(JSONRequestHandler):
    server: ServiceHTTPServer

    @property
    def engine(self) -> ServiceEngine:
        return self.server.engine

    def _healthz(self) -> dict:
        return self.engine.health()

    def _metrics(self):
        if not self._wants_prometheus():
            return self.engine.metrics_snapshot()
        # types=0: omit "# TYPE" lines so the cluster front-end can
        # concatenate per-shard renders into one scrape
        emit_types = parse_qs(self.query).get("types", ["1"])[0] != "0"
        return self.engine.metrics_prometheus(emit_types=emit_types)

    def _trace(self, key: str = "") -> dict:
        if not key:
            return {"keys": self.engine.traces.keys()}
        trace = self.engine.trace(key)
        if trace is None:
            raise HTTPError(404, f"no trace recorded for job '{key}'")
        return trace

    def _cache_get(self, key: str) -> dict:
        value, tier = self.engine.cache_lookup(key)
        if value is None:
            raise HTTPError(404, f"no cached result for '{key}'")
        return {"key": key, "tier": tier, "result": value}

    def _cache_put(self, body: dict, key: str) -> dict:
        result = body.get("result")
        if not isinstance(result, dict):
            raise ValueError("'result' must be a JSON object")
        return {"key": key, "stored": self.engine.cache_store(key, result)}

    def _analyze(self, body: dict) -> dict:
        legacy = bool(body.get("legacy"))
        if body.get("corpus"):
            return {"reports": self.engine.corpus_sweep(legacy=legacy)}
        source = body.get("source")
        if not isinstance(source, str):
            raise ValueError("'source' must be a string (or pass corpus=true)")
        return self.engine.analyze(
            source=source, label=body.get("label", ""), legacy=legacy
        )

    def _attacks(self, body: dict) -> dict:
        jobs = attack_jobs(body)
        if body.get("attack"):
            return self.engine.run_job(jobs[0])
        return {"results": self.engine.gallery(env=jobs[0].env)}

    def _matrix(self, body: dict) -> dict:
        return self.engine.matrix(
            attacks=tuple(body.get("attacks") or ()),
            defenses=tuple(body.get("defenses") or ()),
        )

    def _exec(self, body: dict) -> dict:
        return self.engine.run_job(exec_job(body))

    GET_ROUTES = {
        "/healthz": _healthz,
        "/metrics": _metrics,
        "/trace": _trace,
        "/trace/": _trace,
        "/cache/": _cache_get,
    }
    POST_ROUTES = {
        "/analyze": _analyze,
        "/attacks": _attacks,
        "/matrix": _matrix,
        "/exec": _exec,
        "/cache/": _cache_put,
    }


def create_server(
    engine: ServiceEngine, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind (but do not start) the API server; ``port=0`` picks a free one."""
    return ServiceHTTPServer((host, port), engine)
