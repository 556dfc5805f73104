"""The cluster router: ring assignment, tiered cache, failover.

Every job takes the same deterministic path: its content-hash key is
assigned to an owner shard by the consistent-hash ring; cacheable jobs
consult the cache tiers (owner mem → owner disk → ring-successor peer)
before any compute; misses run on the owner.  A shard that dies with
work in flight raises :class:`~repro.cluster.shard.ShardLost`, the
router removes it from the ring, and the job is *re-dispatched* to the
key's new owner — which is exactly the ring successor, so failover and
cache-peer locality are the same mechanism.

Because job results are pure functions of their payloads and sweeps
collect results in submission order, report bytes are identical at any
shard count, with any shard killed mid-sweep, on every run — the
cluster's equivalent of the scheduler's determinism rule.

The dispatch seam honors :data:`~repro.service.faults.CLUSTER_FAULTS`:
a ``shard-crash`` rule kills the owner before dispatch (exercising the
failover path on demand); a ``partition`` rule makes the owner
unreachable for one request, routing it to the ring successor instead.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

from ..service.faults import CLUSTER_FAULTS, FaultKind, FaultPlan, fault_plan_from
from ..service.jobs import Job
from ..service.metrics import MetricsRegistry, render_prometheus
from .ring import HashRing
from .shard import DEAD, DRAINING, Shard, ShardLost

#: Sweep fan-out threads.  Each shard bounds its own concurrency, so
#: threads beyond the shards' capacity only wait; enough of them keep
#: one busy shard from stalling jobs bound for idle ones.
SWEEP_THREADS = 64

#: Placement attempts per job before it fails with ClusterError.
MAX_REDISPATCH = 9

_TIERS = ("mem", "disk", "peer")


class ClusterError(RuntimeError):
    """The cluster cannot serve the request (no live shards)."""


class ClusterRouter:
    """Routes jobs over the ring; owns shard lifecycle and accounting."""

    def __init__(
        self,
        shards: Sequence[Shard] = (),
        vnodes: int = 64,
        fault_plan: "FaultPlan | str | None" = None,
    ):
        self.metrics = MetricsRegistry()
        self.ring = HashRing(vnodes=vnodes)
        self.shards: Dict[str, Shard] = {}
        self.fault_plan = fault_plan_from(fault_plan)
        self._lock = threading.Lock()  # guards ring/shard-map mutation
        self._pool = ThreadPoolExecutor(
            max_workers=SWEEP_THREADS, thread_name_prefix="cluster-sweep"
        )
        for shard in shards:
            self.add_shard(shard)
        self._update_live_gauge()

    def _count(self, name: str) -> None:
        self.metrics.counter(f"cluster.{name}").inc()

    def _update_live_gauge(self) -> None:
        self.metrics.gauge("cluster.shards_live").set(len(self.ring))

    # -- topology ----------------------------------------------------------

    def add_shard(self, shard: Shard) -> None:
        """Join a shard; ~K/N keys remap onto it, the rest stay put."""
        with self._lock:
            if shard.shard_id in self.shards:
                raise ValueError(f"shard '{shard.shard_id}' already present")
            self.shards[shard.shard_id] = shard
            self.ring.add(shard.shard_id)
            self._update_live_gauge()

    def _shard(self, shard_id: str) -> Shard:
        shard = self.shards.get(shard_id)
        if shard is None:
            raise KeyError(f"no shard '{shard_id}'")
        return shard

    def kill_shard(self, shard_id: str) -> None:
        """Crash a shard: its in-flight work is lost and re-dispatched."""
        shard = self._shard(shard_id)
        shard.kill()
        with self._lock:
            self._detach(shard_id)
        self._count("shards_killed")

    def _detach(self, shard_id: str) -> None:
        """Drop a lost shard from the ring; call with the lock held."""
        if shard_id in self.ring:
            self.ring.remove(shard_id)
            self._count("shards_lost")
            self._update_live_gauge()

    def drain_shard(self, shard_id: str) -> dict:
        """Gracefully remove a shard: new keys remap, its queue finishes.

        The shard leaves the ring immediately (so nothing new routes to
        it) but keeps running everything it already accepted; this call
        returns once its in-flight count hits zero.
        """
        shard = self._shard(shard_id)
        shard.start_drain()
        with self._lock:
            if shard_id in self.ring:
                self.ring.remove(shard_id)
                self._update_live_gauge()
        shard.wait_idle()
        self._count("shards_drained")
        return shard.describe()

    # -- dispatch ----------------------------------------------------------

    def _live_shard(self, shard_id: Optional[str]) -> Optional[Shard]:
        shard = self.shards.get(shard_id) if shard_id is not None else None
        if shard is None or shard.state == DEAD:
            return None
        return shard

    def submit_job(self, job: Job) -> dict:
        """Run one job to a result, surviving shard loss and partitions."""
        key = job.key()
        self._count("jobs_routed")
        for _ in range(MAX_REDISPATCH):
            with self._lock:
                if not len(self.ring):
                    raise ClusterError("no live shards on the ring")
                owner_id = self.ring.assign(key)
                peer_id = self.ring.successor(key, exclude=owner_id)
                rule = (
                    self.fault_plan.activate(
                        CLUSTER_FAULTS, job_kind=job.KIND, key=key
                    )
                    if self.fault_plan is not None
                    else None
                )
                if rule is not None and rule.kind is FaultKind.SHARD_CRASH:
                    self.shards[owner_id].kill()
                    self._detach(owner_id)
                    self._count("shards_killed")
                    continue  # re-assign under the new topology
            owner = self._live_shard(owner_id)
            if owner is None:
                with self._lock:
                    self._detach(owner_id)
                continue
            target = owner
            if rule is not None and rule.kind is FaultKind.PARTITION:
                self._count("partitions")
                fallback = self._live_shard(peer_id)
                if fallback is not None:
                    target = fallback
            if job.CACHEABLE and target is owner:
                cached = self._cached(key, owner, self._live_shard(peer_id))
                if cached is not None:
                    self._count("jobs_completed")
                    return cached
            try:
                result = target.run_job(job)
            except ShardLost:
                with self._lock:
                    self._detach(target.shard_id)
                if target.state != DRAINING:
                    # a drain refusal is a routing race, not a loss
                    self._count("redispatches")
                continue
            if job.CACHEABLE and target is not owner and owner.state != DEAD:
                # a rerouted compute still warms the key's true owner
                owner.cache_store(key, result)
            self._count("jobs_completed")
            return result
        raise ClusterError(
            f"job {key} could not be placed after {MAX_REDISPATCH} dispatch attempts"
        )

    def sweep(self, jobs: Iterable[Job]) -> List[dict]:
        """Run many jobs concurrently, results in submission order.

        The pool's ``map`` yields in argument order regardless of
        completion order, so sweep reports are byte-identical at any
        shard count — including runs where a shard dies mid-sweep and
        its jobs re-dispatch.
        """
        return list(self._pool.map(self.submit_job, jobs))

    # -- cache tiers -------------------------------------------------------

    def _cached(self, key: str, owner: Shard, peer: Optional[Shard]) -> Optional[dict]:
        """Owner mem → owner disk → ring-successor peer, or ``None``.

        After a topology change the successor is exactly the shard that
        owned the key before, so its warm cache is the best place to
        look before paying for a recompute.  A peer hit warms the owner,
        so the key's next lookup stops at the first tier.
        """
        self._count("cache_lookups")
        value, tier = owner.cache_lookup(key)
        if value is not None:
            self._count(f"cache_hits.{tier}")
            return value
        if peer is not None and peer is not owner:
            value, _ = peer.cache_lookup(key)
            if value is not None:
                self._count("cache_hits.peer")
                owner.cache_store(key, value)
                return value
        self._count("cache_misses")
        return None

    def cache_stats(self) -> dict:
        """Per-tier hit/miss counts, the ``tiers`` block of ``/metrics``."""
        counters = self.metrics.snapshot()["counters"]
        hits = {
            tier: counters.get(f"cluster.cache_hits.{tier}", 0) for tier in _TIERS
        }
        lookups = counters.get("cluster.cache_lookups", 0)
        return {
            "lookups": lookups,
            "hits": hits,
            "misses": counters.get("cluster.cache_misses", 0),
            "hit_rate": round(sum(hits.values()) / lookups, 4) if lookups else 0.0,
        }

    # -- introspection -----------------------------------------------------

    def topology(self) -> dict:
        """Ring + shard state for ``GET /cluster``."""
        with self._lock:
            ring = self.ring.describe()
        return {
            "ring": ring,
            "shards": {
                shard_id: shard.describe()
                for shard_id, shard in sorted(self.shards.items())
            },
        }

    def metrics_document(self) -> dict:
        """Cluster counters plus every live shard's own snapshot."""
        document = self.metrics.snapshot()
        document["tiers"] = self.cache_stats()
        document["shards"] = {}
        for shard_id, shard in sorted(self.shards.items()):
            try:
                document["shards"][shard_id] = shard.metrics_snapshot()
            except ShardLost:
                state = "dead" if shard.state == DEAD else "unreachable"
                document["shards"][shard_id] = {"state": state}
        return document

    def metrics_prometheus(self) -> str:
        """One scrape covering the router and every live shard.

        The router's own samples carry ``shard_id="router"``; shard
        samples carry their own ids.  ``# TYPE`` lines are emitted once
        (by the router render and the first shard render) so the
        concatenation stays a valid exposition document.
        """
        # counter names already carry the cluster. prefix; the shared
        # "repro" namespace keeps them as repro_cluster_*
        parts = [
            render_prometheus(self.metrics.snapshot(), labels={"shard_id": "router"})
        ]
        for _, shard in sorted(self.shards.items()):
            try:
                parts.append(shard.metrics_prometheus(emit_types=len(parts) == 1))
            except ShardLost:
                continue
        return "".join(parts)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        for shard in self.shards.values():
            shard.close()


def build_shards(
    count: int,
    mode: str = "inprocess",
    workers: int = 2,
    backend: str = "thread",
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    fault_plan=None,
    prefix: str = "s",
) -> List[Shard]:
    """``count`` started shards named ``<prefix>0..<prefix>N-1``.

    ``mode`` picks the backend: ``"inprocess"`` engines for tests and
    the default CLI, ``"subprocess"`` child ``repro-serve`` processes
    for deployment-shaped runs.  Subprocess shards cannot honor an
    in-memory fault plan; pass fault specs to the child processes
    instead if needed.
    """
    names = [f"{prefix}{index}" for index in range(count)]
    options = dict(
        workers=workers, backend=backend, cache_dir=cache_dir, use_cache=use_cache
    )
    if mode == "inprocess":
        return [Shard.in_process(name, fault_plan=fault_plan, **options) for name in names]
    if mode != "subprocess":
        raise ValueError(f"unknown shard mode '{mode}'")
    shards: List[Shard] = []
    try:
        for name in names:
            shards.append(Shard.spawn(name, **options))
    except Exception:
        for shard in shards:
            shard.close()
        raise
    return shards
