"""The cluster layer: sharded, quota'd serving over consistent hashing.

The subsystem that makes the service layer horizontal: an HTTP
front-end (``repro-cluster``, :mod:`server`, on the same plumbing as
``repro-serve``) routes content-hash job keys over a consistent-hash
ring (:mod:`ring`) to N :class:`~repro.service.engine.ServiceEngine`
shards (:mod:`shard` — in-process for tests, subprocess
``repro-serve`` children for deployment), consulting the cache tiers
(owner mem → disk → ring-successor peer) and per-tenant token-bucket
quotas (:mod:`quotas`).  The router (:mod:`router`) owns failover:
shard loss remaps only ~K/N keys and re-dispatches in-flight jobs to
the ring successor, keeping sweep reports byte-identical at any shard
count.  See ``docs/CLUSTER.md``.
"""

from .quotas import DEFAULT_TENANT, QuotaManager, TokenBucket, parse_override
from .ring import HashRing
from .router import ClusterError, ClusterRouter, build_shards
from .server import ClusterServer
from .shard import Shard, ShardLost

__all__ = [
    "ClusterError",
    "ClusterRouter",
    "ClusterServer",
    "DEFAULT_TENANT",
    "HashRing",
    "QuotaManager",
    "Shard",
    "ShardLost",
    "TokenBucket",
    "build_shards",
    "parse_override",
]
