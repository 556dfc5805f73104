"""Where the traced run puts its spans, and the per-layer metrics.

Every entry point is wrapped at the name its callers look up: a module
function is re-bound in every ``repro`` module that imported it, a
method is replaced on its class.  An entry point that no longer exists
is skipped and its layer reads as absent (zero), never as a crash.
"""

from __future__ import annotations

import importlib
import os

from layers import DEFENSES
from spans import ancestors, rebind, self_times

#: (module, attribute, span name).  Each span name belongs to exactly
#: one self-time bucket in SELF_BUCKETS, so bucket totals sum to the
#: wall time of the run's root span.
ENTRY_POINTS = (
    ("repro.analysis.parser", "parse", "analysis.parse"),
    ("repro.analysis.detector", "analyze_source", "analysis.detect"),
    ("repro.analysis.legacy_tools", "LegacyRuleScanner.scan_source", "analysis.legacy"),
    ("repro.execution.interpreter", "run_source", "execution.run_source"),
    ("repro.execution.interpreter", "Interpreter.run", "execution.run"),
    ("repro.execution.vm", "BytecodeVM.run", "execution.run"),
    ("repro.execution.vm", "compiled_for", "execution.compile"),
    ("repro.fuzz.mutator", "mutate", "fuzz.mutate"),
    ("repro.fuzz.oracles", "static_verdict", "fuzz.static"),
    ("repro.fuzz.oracles", "dynamic_verdict", "fuzz.dynamic"),
    ("repro.fuzz.coverage", "CoverageMap.observe", "fuzz.coverage"),
    ("repro.fuzz.minimize", "minimize_input", "fuzz.minimize"),
    ("repro.fuzz.checkpoint", "CheckpointStore.save", "fuzz.checkpoint"),
    ("repro.regress.store", "RegressionStore.record_divergence", "regress.record"),
    ("repro.regress.store", "RegressionStore.bundles", "regress.load"),
    ("repro.defenses.base", "Defense.fresh_environment", "defenses.env"),
    ("repro.attacks.base", "Environment.make_machine", "defenses.machine"),
    ("repro.attacks.base", "AttackScenario.run", "attacks.run"),
    ("repro.matrix.sweep", "evaluate_cell", "matrix.cell"),
    ("repro.matrix.sweep", "run_attack_cell", "matrix.attack_cell"),
    ("repro.matrix.sweep", "run_program_cell", "matrix.program_cell"),
    ("repro.matrix.sweep", "build_report", "matrix.report"),
    ("repro.score.threats", "risks_from_report", "score.threats"),
    ("repro.score.propagate", "score_packages", "score.propagate"),
)

#: Self-time bucket (a per-layer metric) of every span name.  The root
#: span of a run is the benchmark's own call into the workload; its
#: self time is the time no other span covers.
SELF_BUCKETS = {
    "analysis.parse": "analysis.parse.self_s",
    "analysis.detect": "analysis.detect.self_s",
    "analysis.legacy": "analysis.legacy.self_s",
    "execution.run_source": "execution.self_s",
    "execution.run": "execution.self_s",
    "execution.compile": "execution.compile.self_s",
    "fuzz.mutate": "fuzz.mutate.self_s",
    "fuzz.static": "fuzz.distill.self_s",
    "fuzz.dynamic": "fuzz.distill.self_s",
    "fuzz.coverage": "fuzz.coverage.self_s",
    "fuzz.minimize": "fuzz.minimize.self_s",
    "fuzz.checkpoint": "fuzz.checkpoint.self_s",
    "regress.record": "regress.record.self_s",
    "regress.load": "regress.load.self_s",
    "defenses.env": "defenses.env.self_s",
    "defenses.machine": "defenses.env.self_s",
    "attacks.run": "attacks.run.self_s",
    "matrix.cell": "matrix.other.self_s",
    "matrix.attack_cell": "matrix.attack_cell.self_s",
    "matrix.program_cell": "matrix.program_cell.self_s",
    "matrix.report": "matrix.report.self_s",
    "score.threats": "score.threats.self_s",
    "score.propagate": "score.propagate.self_s",
}

#: Root span name of each workload, and the bucket of its self time.
ROOTS = {
    "fuzz-campaign": ("fuzz.campaign", "fuzz.other.self_s"),
    "matrix-sweep": ("matrix.sweep", "matrix.other.self_s"),
    "score-corpus": ("score.corpus", "score.other.self_s"),
    "service-mixed": ("service.window", "service.client.self_s"),
}


def _resolve(module_name: str, attribute: str):
    """(owner, name, original) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if original is None or not callable(original):
        return None
    return owner, name, original


def _install(owner, name: str, original, replacement) -> None:
    if isinstance(owner, type):
        setattr(owner, name, replacement)
    else:
        rebind(original, replacement)


def _after_run(span, args, result, error) -> None:
    interpreter = args[0]
    span.extra = {
        "steps": getattr(interpreter, "steps", 0),
        "timeout": type(error).__name__ == "SimulatedTimeout",
    }


def _after_compile(span, args, result, error) -> None:
    if result is not None:
        span.extra = {"fallback": str(result[1]).startswith("fallback")}


def _after_save(span, args, result, error) -> None:
    if result is not None:
        try:
            span.extra = {"bytes": os.path.getsize(result)}
        except OSError:
            span.extra = {"bytes": 0}


def _cell_tag(args, kwargs):
    payload = args[0] if args else kwargs.get("payload", {})
    return payload.get("defense", "none")


HOOKS = {
    "execution.run": {"after": _after_run},
    "execution.compile": {"after": _after_compile},
    "fuzz.checkpoint": {"after": _after_save},
    "matrix.cell": {"tag": _cell_tag},
}


def install_spans(tracer) -> None:
    """Wrap every entry point that still exists."""
    for module_name, attribute, span_name in ENTRY_POINTS:
        found = _resolve(module_name, attribute)
        if found is not None:
            owner, name, original = found
            wrapper = tracer.wrap(original, span_name, **HOOKS.get(span_name, {}))
            _install(owner, name, original, wrapper)


def install_probe(module_name: str, attribute: str, samples: list) -> None:
    """Time each call of one function into ``samples`` (seconds).

    The untraced run uses this on the workload's unit of work only —
    one exec, one cell, one package — for per-op latency.
    """
    from time import perf_counter

    found = _resolve(module_name, attribute)
    if found is None:
        return
    owner, name, original = found

    def probe(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(perf_counter() - start)

    _install(owner, name, original, probe)


def analysis_cache_lookups():
    """(hits, lookups) over both analysis cache tiers, read through the
    public stats function; None when that function no longer exists."""
    try:
        from repro.analysis import analysis_cache_stats
    except ImportError:
        return None
    stats = analysis_cache_stats()
    hits = sum(tier.get("hits", 0) for tier in stats.values())
    misses = sum(tier.get("misses", 0) for tier in stats.values())
    return hits, hits + misses


def layer_metrics(spans: list, workload: str) -> dict:
    """Per-layer metrics computed from one run's spans."""
    selfs = self_times(spans)
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    root_name, root_bucket = ROOTS[workload]
    count: dict = {}
    for index, span in enumerate(spans):
        count[span.name] = count.get(span.name, 0) + 1
        bucket = root_bucket if span.name == root_name else SELF_BUCKETS.get(span.name)
        if bucket is not None:
            add(bucket, selfs[index])

    out["analysis.parse.calls"] = count.get("analysis.parse", 0)
    out["analysis.detect.calls"] = count.get("analysis.detect", 0)
    judged = count.get("fuzz.static", 0) or count.get("analysis.detect", 0)
    out["analysis.parse.per_input"] = out["analysis.parse.calls"] / judged if judged else 0.0

    runs = [i for i, s in enumerate(spans) if s.name == "execution.run"]
    out["execution.runs"] = len(runs)
    out["execution.steps"] = sum((spans[i].extra or {}).get("steps", 0) for i in runs)
    timed_out = [i for i in runs if (spans[i].extra or {}).get("timeout")]
    out["execution.timeouts"] = len(timed_out)
    exec_self = out.get("execution.self_s", 0.0)
    out["execution.steps_per_s"] = out["execution.steps"] / exec_self if exec_self else 0.0
    out["execution.timeout_time_share"] = (
        sum(selfs[i] for i in timed_out) / exec_self if exec_self else 0.0
    )
    out["execution.compile.calls"] = count.get("execution.compile", 0)
    out["execution.fallbacks"] = sum(
        1 for s in spans if s.name == "execution.compile" and (s.extra or {}).get("fallback")
    )

    out["fuzz.mutate.calls"] = count.get("fuzz.mutate", 0)
    minimizing = set(i for i, s in enumerate(spans) if s.name == "fuzz.minimize")
    out["fuzz.minimize.oracle_calls"] = sum(
        1
        for i, s in enumerate(spans)
        if s.name == "fuzz.static" and any(a in minimizing for a in ancestors(spans, i))
    )
    saves = [s for s in spans if s.name == "fuzz.checkpoint"]
    out["fuzz.checkpoint.writes"] = len(saves)
    out["fuzz.checkpoint.bytes"] = sum((s.extra or {}).get("bytes", 0) for s in saves)
    out["regress.record.calls"] = count.get("regress.record", 0)
    out["attacks.run.calls"] = count.get("attacks.run", 0)
    out["matrix.cells"] = count.get("matrix.cell", 0)

    # Per-defense breakdowns: every span inside a cell belongs to the
    # defense the cell was evaluated under.
    for name in DEFENSES:
        out[f"defenses.env.self_s.{name}"] = 0.0
        out[f"matrix.cell.self_s.{name}"] = 0.0
    cell_of: dict = {}
    for index, span in enumerate(spans):
        if span.name == "matrix.cell":
            cell_of[index] = span.tag
            continue
        for parent in ancestors(spans, index):
            if parent in cell_of:
                cell_of[index] = cell_of[parent]
                break
    for index, defense in cell_of.items():
        key = f"matrix.cell.self_s.{defense}"
        if key in out:
            out[key] += selfs[index]
            if spans[index].name in ("defenses.env", "defenses.machine"):
                out[f"defenses.env.self_s.{defense}"] += selfs[index]
    return out
