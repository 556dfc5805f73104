"""Tests of the benchmark's trace arithmetic and metric lists.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, benchmark_lists  # noqa: E402
from probes import ROOTS, SELF_BUCKETS, _resolve, layer_metrics  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _span(name, start, end, parent=-1):
    span = Span(name, parent)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 6.0, 0),
        _span("c", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_is_never_negative():
    # Children on other threads may overlap each other and outlive
    # their parent; the covered part is a union clipped to the parent.
    spans = [
        _span("root", 0.0, 4.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(1.0)
    assert all(value >= 0.0 for value in selfs)


def test_wrapper_passes_results_and_errors_through():
    tracer = Tracer("t")

    def add(a, b=1):
        return a + b

    def boom():
        raise KeyError("x")

    def pairs(n):
        for i in range(n):
            yield i, i * i

    assert tracer.wrap(add, "add")(2, b=3) == 5
    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert list(tracer.wrap(pairs, "pairs")(3)) == [(0, 0), (1, 1), (2, 4)]
    names = [span.name for span in tracer.spans]
    assert names[:2] == ["add", "boom"]
    assert names.count("pairs") == 4  # three items and the final resumption
    assert all(span.end >= span.start for span in tracer.spans)


def test_nested_wrappers_record_parents():
    tracer = Tracer("t")
    inner = tracer.wrap(lambda: time.sleep(0.001), "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent == -1
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end


def test_missing_entry_point_is_an_absent_layer():
    assert _resolve("repro.no_such_module", "parse") is None
    assert _resolve("spans", "Tracer.no_such_method") is None
    assert layer_metrics([], "score-corpus")["execution.runs"] == 0


def test_benchmark_json_lists_the_metrics():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = benchmark_lists()
    assert listed["end_to_end"] == expected["end_to_end"]
    assert listed["per_layer"] == expected["per_layer"]
    assert any(name == "trace.overhead_share" for name, *_ in PER_LAYER)


def test_overhead_share_is_always_reported():
    import run

    results = [
        ("base", {"wall_s": 2.0, "layer": {}, "counts": {}}),
        ("traced", {"wall_s": 2.5, "layer": {"fuzz.execs": 3}, "counts": {}}),
    ]
    values = run.per_layer(results, [])
    assert values["trace.overhead_share"] == pytest.approx(0.25)
    assert set(values) == {name for name, *_ in PER_LAYER}


def test_count_drift_is_flagged():
    import run

    results = [
        ("base", {"wall_s": 1.0, "layer": {}, "counts": {}}),
        ("traced", {"wall_s": 1.0, "layer": {}, "counts": {"execution.steps": 5}}),
        ("traced", {"wall_s": 1.0, "layer": {}, "counts": {"execution.steps": 6}}),
    ]
    problems = []
    run.per_layer(results, problems)
    assert problems and "execution.steps" in problems[0]


def _read_spans(path):
    spans = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        span = Span(record["name"], record["parent"], record["tag"])
        span.start, span.end, span.extra = record["start"], record["end"], record["extra"]
        spans.append(span)
    return spans


def test_fuzz_self_times_sum_to_wall_time(tmp_path):
    spec = {
        "root": str(ROOT),
        "work": str(tmp_path),
        "workload": "fuzz-campaign",
        "seed": 7,
        "traced": True,
        "run_id": "test",
        "spawn": time.monotonic(),
    }
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1][len("RESULT "):])
    spans = _read_spans(tmp_path / "spans.jsonl")
    root = spans[0]
    assert root.name == ROOTS["fuzz-campaign"][0]
    campaign = [s for i, s in enumerate(spans) if i == 0 or _under(spans, i)]
    assert all(value >= 0.0 for value in self_times(campaign))

    layer = result["layer"]
    buckets = set(SELF_BUCKETS.values()) | {ROOTS["fuzz-campaign"][1]}
    covered = sum(layer.get(bucket, 0.0) for bucket in buckets)
    assert covered == pytest.approx(root.duration, rel=1e-6)
    assert layer["fuzz.other.self_s"] >= 0.0
    assert layer["analysis.parse.per_input"] > 1
    assert layer["execution.timeout_time_share"] > 0


def _under(spans, index):
    parent = spans[index].parent
    while parent > 0:
        parent = spans[parent].parent
    return parent == 0
