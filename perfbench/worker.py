"""One round of one workload, in a fresh process.

Usage: ``python3 perfbench/worker.py '<json spec>'`` where the spec
names ``root``, ``work``, ``workload``, ``seed``, ``traced``,
``setup_only`` (optional: set up, then stop), ``run_id`` and ``spawn`` (the
parent's ``time.monotonic()`` just before it started this process, so
set-up time includes interpreter start-up).  The last
line of standard output is ``RESULT <json>``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(root / "src"))

    from loads import WORKLOADS, Round
    from probes import (
        ROOTS,
        analysis_cache_lookups,
        install_probe,
        install_spans,
        layer_metrics,
    )
    from spans import Tracer

    name = spec["workload"]
    load = WORKLOADS[name](root, work, spec["seed"])
    result = Round()
    tracer = Tracer(spec["run_id"]) if spec["traced"] else None
    try:
        load.prepare()
        samples: list = []
        if load.op is not None:
            if tracer is None:
                install_probe(*load.op, samples)
            else:
                install_spans(tracer)
        setup_s = time.monotonic() - spec["spawn"]
        if spec.get("setup_only"):
            return _result(setup_s, result, _peak_rss_mb())

        cache_before = analysis_cache_lookups()
        if tracer is None:
            load.execute(result)
        else:
            with tracer.span(ROOTS[name][0]):
                load.execute(result, tracer)
        cache_after = analysis_cache_lookups()
        rss_mb = _peak_rss_mb()
        spans = list(tracer.spans) if tracer is not None else []
        if samples:
            result.latencies = samples
        load.check(result)
    finally:
        close = getattr(load, "close", None)
        if close is not None:
            close()

    out = _result(setup_s, result, rss_mb)
    if tracer is not None:
        layer = layer_metrics(spans, name)
        layer.update(result.layer)
        if cache_before is not None and cache_after is not None:
            lookups = cache_after[1] - cache_before[1]
            hits = cache_after[0] - cache_before[0]
            layer["analysis.cache.hit_share"] = hits / lookups if lookups else 0.0
        seeds = layer.pop("fuzz.seeds", 0)
        if layer.get("fuzz.mutate.calls"):
            layer["fuzz.mutate.useful_share"] = (
                layer.get("fuzz.execs", 0) - seeds
            ) / layer["fuzz.mutate.calls"]
        out["layer"] = layer
        for key in ("analysis.parse.calls", "execution.steps", "execution.timeouts"):
            out["counts"][key] = layer.get(key, 0)
        tracer.dump(work / "spans.jsonl")
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(setup_s: float, result, rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "ops": result.ops,
        "attempted": result.attempted,
        "failed": result.failed,
        "notes": result.notes,
        "findings": result.findings,
        "latencies_ms": [1000.0 * value for value in result.latencies],
        "rss_mb": result.rss_mb or rss_mb,
        "digest": result.digest,
        "counts": dict(result.counts),
        "layer": dict(result.layer),
    }


if __name__ == "__main__":
    report = main(json.loads(sys.argv[1]))
    print("RESULT " + json.dumps(report), flush=True)
