"""CI smoke: a live 3-shard cluster survives caching and shard loss.

``python -m repro.cluster.smoke`` starts a real ``repro-cluster``
front-end on an ephemeral port and drives it over HTTP:

1. a cold analyze sweep, then the same sweep warm — asserting the warm
   pass is served >90% from the tiered cache with identical bytes;
2. a fresh sweep with one shard killed mid-flight — asserting the
   report bytes match a no-fault control run of the same sweep;
3. a per-shard metrics dump written to ``--out`` for the CI artifact.

Exit 0 on success, 1 with a diagnostic on any violated invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from ..service.client import ServiceClient
from ..workloads.corpus import corpus_sources
from .quotas import QuotaManager
from .router import ClusterRouter, build_shards
from .server import ClusterServer

VARIANT = """
class Base {{ public: double d; }};
class Wide{i} : public Base {{ public: int pad[{i} + 4]; }};
void spill{i}() {{ Base slot; Wide{i} *w = new (&slot) Wide{i}(); }}
"""


def smoke_sources(count: int) -> List[Tuple[str, str]]:
    """A deterministic labeled sweep: the paper corpus plus variants."""
    pairs = list(corpus_sources())
    for index in range(max(0, count - len(pairs))):
        pairs.append((f"variant-{index}", VARIANT.format(i=index)))
    return pairs[:count]


def _sweep_bytes(client: ServiceClient, sources) -> bytes:
    response = client.sweep(sources)
    return json.dumps(response["reports"], sort_keys=True).encode()


def _run(args) -> int:
    failures: List[str] = []

    def check(ok: bool, message: str) -> None:
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {message}", flush=True)
        if not ok:
            failures.append(message)

    sources = smoke_sources(args.sweep_size)

    shards = build_shards(
        args.shards, mode=args.shard_mode, workers=args.workers,
        cache_dir=args.cache_dir, use_cache=True,
    )
    router = ClusterRouter(shards, vnodes=args.vnodes)
    server = ClusterServer(router, quotas=QuotaManager()).start()
    client = ServiceClient(f"http://127.0.0.1:{server.port}", tenant="smoke")
    try:
        health = client.healthz()
        check(
            health.get("shards_live") == args.shards,
            f"{args.shards} shards live behind http://127.0.0.1:{server.port}",
        )

        cold = _sweep_bytes(client, sources)
        before = client.metrics_snapshot()["tiers"]
        warm = _sweep_bytes(client, sources)
        after = client.metrics_snapshot()["tiers"]
        lookups = after["lookups"] - before["lookups"]
        hits = sum(after["hits"].values()) - sum(before["hits"].values())
        rate = hits / lookups if lookups else 0.0
        check(cold == warm, "warm sweep bytes identical to cold sweep")
        check(
            rate > 0.9,
            f"warm sweep hit rate {rate:.2%} ({hits}/{lookups}) > 90%",
        )

        # control bytes for the failover sweep: a separate no-fault
        # cluster; determinism says any correct run produces these bytes
        fresh = [
            (f"failover-{label}", text + "\n// failover pass\n")
            for label, text in sources
        ]
        control_shards = build_shards(
            1, mode="inprocess", workers=args.workers,
            cache_dir=None, use_cache=True, prefix="control",
        )
        control = ClusterRouter(control_shards, vnodes=args.vnodes)
        control_server = ClusterServer(control).start()
        try:
            control_client = ServiceClient(f"http://127.0.0.1:{control_server.port}")
            expected = _sweep_bytes(control_client, fresh)
        finally:
            control_server.close()
            control.close()

        victim = health["shards"][1]
        with ThreadPoolExecutor(max_workers=1) as pool:
            sweep = pool.submit(_sweep_bytes, client, fresh)
            time.sleep(args.kill_delay)  # let the sweep get airborne
            client.kill(victim)
            survived = sweep.result()
        check(
            survived == expected,
            f"sweep with '{victim}' killed mid-flight matches no-fault bytes",
        )
        topology = client.cluster()
        check(
            topology["shards"][victim]["state"] == "dead"
            and len(topology["ring"]["shards"]) == args.shards - 1,
            f"ring remapped around dead shard '{victim}'",
        )

        if args.out:
            document = client.metrics_snapshot()
            with open(args.out, "w") as handle:
                json.dump(document, handle, sort_keys=True, indent=2)
            print(f"metrics dump written to {args.out}", flush=True)
    finally:
        server.close()
        router.close()
    if failures:
        print(f"{len(failures)} smoke check(s) failed", file=sys.stderr)
        return 1
    print("cluster smoke passed", flush=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.smoke", description=__doc__
    )
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--vnodes", type=int, default=64)
    parser.add_argument(
        "--shard-mode", choices=("inprocess", "subprocess"), default="inprocess"
    )
    parser.add_argument("--sweep-size", type=int, default=24)
    parser.add_argument(
        "--cache-dir", default=None, help="shared disk cache tier (optional)"
    )
    parser.add_argument(
        "--kill-delay",
        type=float,
        default=0.05,
        help="seconds into the failover sweep to kill the victim shard",
    )
    parser.add_argument(
        "--out", default=None, help="write the per-shard metrics dump here"
    )
    args = parser.parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
