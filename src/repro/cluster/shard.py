"""Cluster shards: the units the consistent-hash ring routes across.

A :class:`Shard` is one job engine plus the lifecycle the router needs:
run a job, probe/warm the result cache, drain, die.  Its ``backend``
answers the :class:`~repro.service.engine.ServiceEngine` methods the
shard dispatches to, and is one of:

* a ``ServiceEngine`` in this process (:meth:`Shard.in_process`), what
  tests and the default ``repro-cluster`` use;
* a :class:`~repro.service.client.ServiceClient` to a child
  ``python -m repro.service --shard-id ...`` process
  (:meth:`Shard.spawn`), the deployment shape, where shard loss is a
  real process death.

Lifecycle: ``active`` shards accept work; ``draining`` shards finish
what they already accepted but reject new submissions (the router
stops routing to them); ``dead`` shards reject everything with
:class:`ShardLost`.  A kill is deliberately brutal: work in flight on
a killed shard is *lost* (the router re-dispatches it to the ring
successor), which is exactly the failure the determinism tests pin
down.

Router threads call a shard concurrently; at most ``workers + 4`` jobs
run on one shard at a time, so a sweep never overflows the engine's
bounded queue, and ``inflight``/``completed`` change under a lock.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import threading
from contextlib import contextmanager
from typing import Optional

from ..service.client import ServiceClient, ServiceUnavailable
from ..service.engine import ServiceEngine
from ..service.jobs import Job

ACTIVE = "active"
DRAINING = "draining"
DEAD = "dead"

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


class ShardLost(RuntimeError):
    """The shard died before (or while) running the request."""

    def __init__(self, shard_id: str, detail: str = ""):
        super().__init__(
            f"shard '{shard_id}' lost" + (f": {detail}" if detail else "")
        )
        self.shard_id = shard_id


class Shard:
    """One engine behind the ring, in this process or a child process."""

    def __init__(
        self,
        shard_id: str,
        backend,
        workers: int,
        process: Optional[subprocess.Popen] = None,
        port: Optional[int] = None,
    ):
        self.shard_id = shard_id
        self.backend = backend
        self.process = process
        self.port = port
        self.state = ACTIVE
        self.inflight = 0
        self.completed = 0
        self._lock = threading.Condition()
        self._slots = threading.BoundedSemaphore(workers + 4)

    @classmethod
    def in_process(
        cls,
        shard_id: str,
        workers: int = 2,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        fault_plan=None,
    ) -> "Shard":
        """A shard whose ``ServiceEngine`` lives in this process."""
        engine = ServiceEngine(
            workers=workers,
            backend=backend,
            cache_dir=cache_dir,
            use_cache=use_cache,
            fault_plan=fault_plan,
            shard_id=shard_id,
        )
        return cls(shard_id, engine, workers)

    @classmethod
    def spawn(
        cls,
        shard_id: str,
        workers: int = 2,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ) -> "Shard":
        """Launch a child ``repro-serve`` and wait 30 s for its banner."""
        argv = [
            sys.executable,
            "-m",
            "repro.service",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--backend",
            backend,
            "--shard-id",
            shard_id,
        ]
        if use_cache and cache_dir:
            argv += ["--cache-dir", cache_dir]
        elif not use_cache:
            argv += ["--no-cache"]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
        )
        ready, _, _ = select.select([process.stdout], [], [], 30.0)
        banner = process.stdout.readline() if ready else b""
        match = _BANNER.search(banner.decode(errors="replace"))
        if match is None:
            _terminate(process)
            raise ShardLost(shard_id, f"unexpected startup banner {banner!r}")
        port = int(match.group(1))
        client = ServiceClient(
            f"http://127.0.0.1:{port}",
            connect_timeout=5.0,
            read_timeout=120.0,
            retries=0,
        )
        shard = cls(shard_id, client, workers, process=process, port=port)
        try:
            client.healthz()  # fail fast if the API is not up
        except ServiceUnavailable as error:
            shard.close()
            raise ShardLost(shard_id, str(error)) from error
        return shard

    # -- the shard seam ----------------------------------------------------

    @contextmanager
    def _reach(self):
        """The live backend; a dead shard or transport failure is ShardLost."""
        if self.state == DEAD:
            raise ShardLost(self.shard_id, "no live backend")
        try:
            yield self.backend
        except (ServiceUnavailable, OSError) as error:
            raise ShardLost(self.shard_id, str(error)) from error

    def run_job(self, job: Job) -> dict:
        """Run one job to completion on this shard's engine.

        Raises :class:`ShardLost` if the shard is not accepting work
        *or* dies mid-run — a result computed by a crashing shard is
        discarded, exactly as a process death would lose it.  Only
        successful runs count as ``completed``.
        """
        with self._lock:
            if self.state != ACTIVE:
                raise ShardLost(self.shard_id, f"{self.state}, not accepting work")
            self.inflight += 1
        try:
            with self._slots, self._reach() as backend:
                result = backend.run_job(job)
        finally:
            with self._lock:
                self.inflight -= 1
                self._lock.notify_all()
        with self._lock:
            if self.state == DEAD:
                raise ShardLost(self.shard_id, "died while running job")
            self.completed += 1
        return result

    def cache_lookup(self, key: str):
        """``(value, tier)`` from this shard's cache; a lost shard misses."""
        try:
            with self._reach() as backend:
                return backend.cache_lookup(key)
        except ShardLost:
            return None, None

    def cache_store(self, key: str, value: dict) -> bool:
        try:
            with self._reach() as backend:
                return backend.cache_store(key, value)
        except ShardLost:
            return False

    def metrics_snapshot(self) -> dict:
        with self._reach() as backend:
            return backend.metrics_snapshot()

    def metrics_prometheus(self, emit_types: bool = True) -> str:
        with self._reach() as backend:
            return backend.metrics_prometheus(emit_types=emit_types)

    # -- lifecycle ---------------------------------------------------------

    def start_drain(self) -> None:
        """Stop accepting work; already-accepted jobs run to completion."""
        with self._lock:
            if self.state == ACTIVE:
                self.state = DRAINING

    def wait_idle(self) -> None:
        """Block until no accepted job is still running."""
        with self._lock:
            self._lock.wait_for(lambda: self.inflight == 0)

    def kill(self) -> None:
        """Crash the shard: every current and future request is lost."""
        with self._lock:
            self.state = DEAD
        if self.process is not None and self.process.poll() is None:
            self.process.kill()

    def close(self) -> None:
        with self._lock:
            self.state = DEAD
        if self.process is None:
            self.backend.close()
        else:
            _terminate(self.process)

    def describe(self) -> dict:
        with self._lock:
            description = {
                "shard_id": self.shard_id,
                "mode": "inprocess" if self.process is None else "subprocess",
                "state": self.state,
                "inflight": self.inflight,
                "completed": self.completed,
            }
        if self.process is not None:
            description["port"] = self.port
        return description


def _terminate(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()
