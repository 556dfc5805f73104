"""Per-tenant token-bucket quotas for the cluster front-end.

Each tenant (the ``X-Tenant`` request header; ``"anon"`` when absent)
gets its own :class:`TokenBucket`: ``capacity`` tokens that refill at
``refill_rate`` tokens/second.  A request costs one token per job it
submits (a 50-source sweep costs 50), so burst size and sustained rate
are controlled by two independent knobs.  Buckets are fully isolated —
one tenant draining its bucket never throttles another — and the
manager's clock is injectable, so quota edge cases are tested with a
deterministic fake clock instead of sleeps.

When a bucket cannot cover a request the manager answers with the
exact ``retry_after`` seconds until enough tokens exist; the HTTP
layer surfaces that as ``429`` with a ``Retry-After`` header and a
``retry_after`` JSON field the client honors.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

#: Tenant assumed when a request carries no ``X-Tenant`` header.
DEFAULT_TENANT = "anon"


class TokenBucket:
    """One tenant's refillable budget.  Not thread-safe on its own."""

    def __init__(self, capacity: float, refill_rate: float, now: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if refill_rate <= 0:
            raise ValueError("refill_rate must be > 0")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.tokens = float(capacity)
        self.updated = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.refill_rate)
        self.updated = now

    def try_take(self, now: float, cost: float = 1.0) -> Tuple[bool, float]:
        """``(granted, retry_after)`` for a request costing ``cost`` tokens.

        A cost above ``capacity`` can never be granted; its
        ``retry_after`` is the time to a *full* bucket, after which the
        caller's best move is splitting the request.
        """
        self._refill(now)
        if self.tokens >= cost or cost <= 0:
            self.tokens -= cost
            return True, 0.0
        missing = min(cost, self.capacity) - self.tokens
        return False, missing / self.refill_rate


class QuotaManager:
    """Thread-safe tenant → bucket map with admission accounting."""

    def __init__(
        self,
        capacity: float = 64.0,
        refill_rate: float = 16.0,
        overrides: Optional[Dict[str, Tuple[float, float]]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.capacity = capacity
        self.refill_rate = refill_rate
        #: tenant → (capacity, refill_rate) exceptions to the defaults.
        self.overrides = dict(overrides or {})
        self.clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self.granted = 0
        self.throttled = 0

    def _bucket(self, tenant: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            capacity, rate = self.overrides.get(
                tenant, (self.capacity, self.refill_rate)
            )
            bucket = TokenBucket(capacity, rate, now=now)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, cost: float = 1.0) -> Tuple[bool, float]:
        """Charge ``tenant`` for a request; ``(granted, retry_after)``."""
        tenant = tenant or DEFAULT_TENANT
        now = self.clock()
        with self._lock:
            granted, retry_after = self._bucket(tenant, now).try_take(now, cost)
            if granted:
                self.granted += 1
            else:
                self.throttled += 1
            return granted, retry_after

    def stats(self) -> dict:
        """Accounting snapshot folded into the cluster metrics document."""
        with self._lock:
            now = self.clock()
            tenants = {}
            for tenant in sorted(self._buckets):
                bucket = self._buckets[tenant]
                bucket._refill(now)
                tenants[tenant] = {
                    "capacity": bucket.capacity,
                    "refill_rate": bucket.refill_rate,
                    "tokens": round(bucket.tokens, 4),
                }
            return {
                "granted": self.granted,
                "throttled": self.throttled,
                "tenants": tenants,
            }


def parse_override(spec: str) -> Tuple[str, Tuple[float, float]]:
    """One ``tenant=capacity:rate`` CLI clause → an overrides entry.

    Raises :class:`ValueError` on malformed clauses so the CLI can
    reject them with exit code 2.
    """
    tenant, _, budget = spec.partition("=")
    capacity_text, _, rate_text = budget.partition(":")
    if not tenant or not capacity_text or not rate_text:
        raise ValueError(
            f"malformed quota override '{spec}' (want tenant=capacity:rate)"
        )
    capacity, rate = float(capacity_text), float(rate_text)
    if capacity <= 0 or rate <= 0:
        raise ValueError(f"quota override '{spec}' must be positive")
    return tenant, (capacity, rate)
