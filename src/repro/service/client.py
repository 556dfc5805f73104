"""A small stdlib client for the ``repro-serve`` JSON API.

The transport is :mod:`http.client` rather than urllib so the connect
and read phases get *separate* timeouts: a shard that accepts the TCP
handshake but then stalls mid-response trips the read timeout instead
of hanging a CLI user forever.  Transient socket failures (connection
refused during shard startup, resets, timeouts) are retried a bounded
number of times with the scheduler's deterministic decorrelated-jitter
backoff; a server that *responds* with a non-2xx status is never
retried — that is a :class:`ServiceError` for the caller to interpret,
except a 429 from the ``repro-cluster`` tenant quotas, waited out a
bounded number of times.  The client is also the cluster's transport
to a subprocess shard: it answers the engine methods a shard calls.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from typing import Callable, Optional, Sequence
from urllib.parse import urlsplit


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Seconds the server asked us to wait (429 responses), else None.
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """The service could not be reached after every retry attempt."""

    def __init__(self, url: str, attempts: int, cause: Exception):
        RuntimeError.__init__(
            self,
            f"service at {url} unreachable after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: {cause}",
        )
        self.status = 0
        self.message = str(cause)
        self.retry_after = None
        self.attempts = attempts


def backoff_delay(key: str, attempt: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic, key-seeded jitter.

    Shared with the scheduler's retry path.  Pure exponential backoff
    retries co-failing work in lockstep; classic decorrelated jitter
    fixes that but makes tests flaky.  Hashing ``key:attempt`` gives
    every (request, attempt) pair its own stable fraction in ``[0, 1)``,
    spreading retry herds while staying byte-for-byte reproducible
    across runs and processes.
    """
    ceiling = min(base * (2 ** (attempt - 1)), cap)
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return min(cap, ceiling * (0.5 + fraction))


#: job KIND → the endpoint that runs it, for jobs sent to a remote engine.
_KIND_PATHS = {"analyze": "/analyze", "attack": "/attacks", "exec": "/exec"}


class ServiceClient:
    """Typed wrappers over the service and cluster endpoints.

    ``timeout`` is the legacy single knob and remains the default for
    both phases; ``connect_timeout``/``read_timeout`` override it
    individually.  ``retries`` bounds re-attempts after transient
    socket errors (0 disables).  ``tenant`` rides every request as
    ``X-Tenant``; a 429 is retried at most ``max_throttle_retries``
    times after waiting its ``retry_after`` (the exact JSON float, else
    the header), each wait recorded in ``throttled_waits``.  ``sleep``
    is injectable so tests can count backoff and throttle delays
    without waiting them out.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        tenant: str = "",
        max_throttle_retries: int = 4,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.read_timeout = read_timeout if read_timeout is not None else timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self.tenant = tenant
        self.max_throttle_retries = max_throttle_retries
        self.throttled_waits: list = []  # observed 429 waits, in seconds
        parsed = urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported URL scheme '{parsed.scheme}'")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> dict:
        return json.loads(self._request_raw(method, path, body, headers))

    def _request_raw(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> bytes:
        data = json.dumps(body).encode() if body is not None else None
        if self.tenant:
            headers = {"X-Tenant": self.tenant, **(headers or {})}
        failures = throttles = 0
        while True:
            try:
                return self._attempt(method, path, data, headers)
            except ServiceError as error:
                if error.status != 429 or throttles >= self.max_throttle_retries:
                    raise
                throttles += 1
                wait = error.retry_after if error.retry_after is not None else 0.1
                self.throttled_waits.append(wait)
                self._sleep(wait)
            except (OSError, http.client.HTTPException) as error:
                failures += 1
                if failures > self.retries:
                    raise ServiceUnavailable(
                        self.base_url + path, failures, error
                    ) from error
                self._sleep(
                    backoff_delay(
                        f"{method} {path}",
                        failures,
                        self.backoff_base,
                        self.backoff_cap,
                    )
                )

    def _attempt(
        self,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Optional[dict],
    ) -> bytes:
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self.connect_timeout
        )
        try:
            connection.connect()
            if connection.sock is not None:
                # the connect deadline has been met; everything after
                # this point is governed by the read timeout
                connection.sock.settimeout(self.read_timeout)
            request_headers = {"Content-Type": "application/json"}
            if headers:
                request_headers.update(headers)
            connection.request(method, path, body=data, headers=request_headers)
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        if 200 <= response.status < 300:
            return payload
        try:
            document = json.loads(payload)
            message = document.get("error", response.reason)
            retry_after = document.get("retry_after")
        except (ValueError, AttributeError):
            message, retry_after = str(response.reason), None
        if retry_after is None:
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
        raise ServiceError(response.status, str(message), retry_after=retry_after)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics_snapshot(self) -> dict:
        return self._request("GET", "/metrics")

    def metrics_prometheus(self, emit_types: bool = True) -> str:
        """The Prometheus text of the metrics snapshot (without ``# TYPE``
        lines when ``emit_types`` is false, for the cluster's merged scrape)."""
        suffix = "" if emit_types else "&types=0"
        return self._request_raw("GET", f"/metrics?format=prom{suffix}").decode()

    def trace(self, key: str) -> dict:
        """The span record for job ``key`` (404 → :class:`ServiceError`)."""
        return self._request("GET", f"/trace/{key}")

    def traces(self) -> dict:
        """``{"keys": [...]}`` — every job key with a retained trace."""
        return self._request("GET", "/trace")

    # -- the cluster shard seam ----------------------------------------------

    def run_job(self, job) -> dict:
        """Run ``job`` on the remote engine through its endpoint."""
        if job.KIND not in _KIND_PATHS:
            raise ValueError(f"job kind '{job.KIND}' has no HTTP endpoint")
        return self._request("POST", _KIND_PATHS[job.KIND], job.payload())

    def cache_lookup(self, key: str) -> "tuple[Optional[dict], Optional[str]]":
        """``(value, tier)`` from the server's result cache, or ``(None, None)``.

        The cluster front-end's owner and peer probe; a 404 (cache
        miss) is a normal outcome, not an error.
        """
        try:
            response = self._request("GET", f"/cache/{key}")
        except ServiceError as error:
            if error.status == 404:
                return None, None
            raise
        return response.get("result"), response.get("tier")

    def cache_store(self, key: str, result: dict) -> bool:
        """Warm the server's result cache with an externally computed result."""
        return bool(
            self._request("POST", f"/cache/{key}", {"result": result}).get("stored")
        )

    # -- endpoints -----------------------------------------------------------

    def analyze(
        self,
        source: Optional[str] = None,
        label: str = "",
        legacy: bool = False,
        corpus: bool = False,
    ) -> dict:
        body: dict = {"legacy": legacy}
        if corpus:
            body["corpus"] = True
        else:
            body["source"] = source
            body["label"] = label
        return self._request("POST", "/analyze", body)

    def attacks(self, attack: Optional[str] = None, env: str = "unprotected") -> dict:
        body: dict = {"env": env}
        if attack:
            body["attack"] = attack
        return self._request("POST", "/attacks", body)

    def matrix(
        self, attacks: Sequence[str] = (), defenses: Sequence[str] = ()
    ) -> dict:
        return self._request(
            "POST",
            "/matrix",
            {"attacks": list(attacks), "defenses": list(defenses)},
        )

    def execute(
        self,
        source: str,
        entry: str = "main",
        args: Sequence = (),
        stdin: Sequence = (),
        canary: bool = False,
    ) -> dict:
        return self._request(
            "POST",
            "/exec",
            {
                "source": source,
                "entry": entry,
                "args": list(args),
                "stdin": list(stdin),
                "canary": canary,
            },
        )

    # -- cluster front-end endpoints -----------------------------------------

    def sweep(self, sources, legacy: bool = False) -> dict:
        """Analyze ``(label, source)`` pairs; reports come back in order."""
        pairs = [[label, source] for label, source in sources]
        return self._request("POST", "/analyze", {"sources": pairs, "legacy": legacy})

    def cluster(self) -> dict:
        """Ring + per-shard topology."""
        return self._request("GET", "/cluster")

    def drain(self, shard_id: str) -> dict:
        return self._request("POST", "/admin/drain", {"shard": shard_id})

    def kill(self, shard_id: str) -> dict:
        return self._request("POST", "/admin/kill", {"shard": shard_id})
