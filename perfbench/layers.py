"""The metrics the benchmark reports, and which layer moves which.

END_TO_END are what a user of the system sees; every workload reports
all of them.  PER_LAYER come from the traced run, one row per metric:
the ``repro`` package (layer) it measures, the end-to-end metric it
should move, and the workloads it moves it on.  A later change states
its predicted moves by these names.  ``BENCHMARK.json`` lists the same
names (``python3 perfbench/layers.py`` prints its metric lists).
"""

from __future__ import annotations

import json

#: (name, unit, better, bound); README.md defines each on every workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("within_limit_share", "share", "higher", 0.02),
)

FUZZ = "fuzz-campaign"
MATRIX = "matrix-sweep"
SCORE = "score-corpus"
SERVICE = "service-mixed"
ALL = (FUZZ, MATRIX, SCORE, SERVICE)

DEFENSES = (
    "none",
    "stackguard",
    "checked-placement",
    "shadow-memory",
    "nx-stack",
    "sanitize-on-reuse",
    "shadow-ret-stack",
    "vtable-integrity",
    "vrt",
    "memory-tagging",
)

_T = "throughput_per_s"
_P99 = "latency_p99_ms"

#: (name, unit, better, layer, end-to-end metric it moves, workloads)
PER_LAYER = (
    ("analysis.parse.calls", "count", "lower", "analysis", _T, (FUZZ, SCORE)),
    ("analysis.parse.self_s", "s", "lower", "analysis", _T, (FUZZ, SCORE)),
    ("analysis.parse.per_input", "count", "lower", "analysis", _T, (FUZZ, SCORE)),
    ("analysis.detect.calls", "count", "lower", "analysis", _T, (FUZZ, SCORE)),
    ("analysis.detect.self_s", "s", "lower", "analysis", _T, (FUZZ, SCORE)),
    ("analysis.legacy.self_s", "s", "lower", "analysis", _T, (SCORE,)),
    ("analysis.cache.hit_share", "share", "higher", "analysis", _T, (FUZZ, SCORE)),
    ("execution.runs", "count", "lower", "execution", _T, (FUZZ, MATRIX)),
    ("execution.self_s", "s", "lower", "execution", _T, (FUZZ, MATRIX)),
    ("execution.steps", "count", "lower", "execution", _T, (FUZZ, MATRIX)),
    ("execution.steps_per_s", "1/s", "higher", "execution", _T, (FUZZ, MATRIX)),
    ("execution.timeouts", "count", "lower", "execution", _P99, (FUZZ, MATRIX)),
    ("execution.timeout_time_share", "share", "lower", "execution", _P99, (FUZZ, MATRIX)),
    ("execution.compile.calls", "count", "lower", "execution", _T, (FUZZ, MATRIX)),
    ("execution.compile.self_s", "s", "lower", "execution", _T, (FUZZ, MATRIX)),
    ("execution.fallbacks", "count", "lower", "execution", _T, (FUZZ, MATRIX)),
    ("fuzz.mutate.calls", "count", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.mutate.self_s", "s", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.mutate.useful_share", "share", "higher", "fuzz", _T, (FUZZ,)),
    ("fuzz.distill.self_s", "s", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.coverage.self_s", "s", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.minimize.self_s", "s", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.minimize.oracle_calls", "count", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.checkpoint.writes", "count", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.checkpoint.bytes", "bytes", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.checkpoint.self_s", "s", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.other.self_s", "s", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.execs", "count", "higher", "fuzz", _T, (FUZZ,)),
    ("fuzz.invalid_share", "share", "lower", "fuzz", _T, (FUZZ,)),
    ("fuzz.divergences", "count", "higher", "fuzz", _T, (FUZZ,)),
    ("fuzz.untriaged", "count", "lower", "fuzz", _T, (FUZZ,)),
    ("regress.record.calls", "count", "lower", "regress", _T, (FUZZ,)),
    ("regress.record.self_s", "s", "lower", "regress", _T, (FUZZ,)),
    ("regress.load.self_s", "s", "lower", "regress", _T, (MATRIX,)),
    *(
        (f"defenses.env.self_s.{name}", "s", "lower", "defenses", _T, (MATRIX,))
        for name in DEFENSES
    ),
    *(
        (f"matrix.cell.self_s.{name}", "s", "lower", "defenses", _T, (MATRIX,))
        for name in DEFENSES
    ),
    ("attacks.run.calls", "count", "lower", "attacks", _T, (MATRIX,)),
    ("attacks.run.self_s", "s", "lower", "attacks", _T, (MATRIX,)),
    ("matrix.attack_cell.self_s", "s", "lower", "matrix", _T, (MATRIX,)),
    ("matrix.program_cell.self_s", "s", "lower", "matrix", _T, (MATRIX,)),
    ("matrix.report.self_s", "s", "lower", "matrix", _T, (MATRIX,)),
    ("matrix.other.self_s", "s", "lower", "matrix", _T, (MATRIX,)),
    ("matrix.cells", "count", "higher", "matrix", _T, (MATRIX,)),
    ("score.threats.self_s", "s", "lower", "score", _T, (SCORE,)),
    ("score.propagate.self_s", "s", "lower", "score", _T, (SCORE,)),
    ("score.other.self_s", "s", "lower", "score", _T, (SCORE,)),
    ("score.packages", "count", "higher", "score", _T, (SCORE,)),
    ("service.queue_wait_ms", "ms", "lower", "service", "latency_p50_ms", (SERVICE,)),
    ("service.job_ms", "ms", "lower", "service", "latency_p50_ms", (SERVICE,)),
    ("service.http_overhead_ms", "ms", "lower", "service", "latency_p50_ms", (SERVICE,)),
    ("service.cache.hit_share", "share", "higher", "service", "latency_p50_ms", (SERVICE,)),
    ("service.jobs_failed", "count", "lower", "service", "within_limit_share", (SERVICE,)),
    ("service.jobs_timed_out", "count", "lower", "service", "within_limit_share", (SERVICE,)),
    ("service.rejected", "count", "lower", "service", "within_limit_share", (SERVICE,)),
    ("service.generator_late_ms", "ms", "lower", "service", _P99, (SERVICE,)),
    ("trace.overhead_share", "share", "lower", "trace", "(none: tracing is off in end-to-end runs)", ALL),
)

#: Counts that must read the same in two traced runs of one seed.
MUST_REPEAT = (
    "fuzz.execs",
    "analysis.parse.calls",
    "execution.steps",
    "execution.timeouts",
    "matrix.cells",
    "score.packages",
)


def benchmark_lists() -> dict:
    """The ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_lists(), indent=2))
