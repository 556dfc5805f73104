"""The four workloads, each one round in one fresh process.

A round has three parts: ``prepare`` (imports, input generation,
server start-up: the set-up time), ``execute`` (the timed work, called
through the program's public entry points only) and ``check`` (the
correctness checks, outside the timed region).  Inputs come only from
the seed; the program never sees the seed itself except as the seed of
the inputs it is handed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

#: Latency limit for one op (exec, cell, package or request).  It sits
#: above the step-budget tail: a timed-out exec takes ~0.25 s.
LATENCY_LIMIT_MS = 1000.0

FUZZ_ITERATIONS = 300
#: Fingerprints of untriaged fuzz divergences that are open defects of
#: the program.  9b19c12205549998: a leak-family mutant reads 128 bytes
#: of a file into a 64-byte pool; the run detects the leak, no static
#: rule fires (a detector false negative).
KNOWN_UNTRIAGED = frozenset({"9b19c12205549998"})
SCORE_PACKAGES = 2000
#: The open loop.  The repeat share of /analyze requests is the share
#: of packages in a generated 2000-package graph whose source another
#: package already has (the analysis cache hit share score-corpus
#: measures, 0.43).  The step-budget share of /exec requests is the one
#: the ROADMAP profile measured in a fuzz campaign (9 of 120 execs).
#: The rate and the /exec share are not taken from any recorded
#: traffic: the rate is one the service answers without queueing up.
SERVICE_RATE = 50.0
SERVICE_EXEC_SHARE = 0.25
SERVICE_REPEAT_SHARE = 0.43
SERVICE_TIMEOUT_SHARE = 0.075
SERVICE_REQUESTS = 320
SERVICE_CONNECTIONS = 2
SERVICE_WORKERS = 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_seed(seed: int, index: int) -> int:
    """A sub-seed for round ``index`` of a run under ``seed``."""
    return int(digest(f"perfbench/{seed}/{index}")[:8], 16)


class Round:
    """Outcome of one round: filled in by ``execute`` and ``check``."""

    def __init__(self) -> None:
        self.ops = 0  # units of work (execs, cells, packages, requests)
        self.attempted = 0  # ops for the error rate (see each workload)
        self.failed = 0
        self.wall_s = 0.0
        self.latencies: list = []  # seconds, one per op
        self.digest = ""
        self.counts: dict = {}
        self.layer: dict = {}
        self.notes: list = []  # problems: each makes the run incorrect
        self.findings: list = []  # what the program reports, shown as is
        self.rss_mb = 0.0

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(note)


# -- fuzz-campaign -------------------------------------------------------------


class FuzzCampaign:
    """``run_campaign`` sequentially, minimization on, with a regression
    store and a checkpoint directory."""

    op = ("repro.fuzz.campaign", "run_oracles")
    batch_size = 50

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def prepare(self) -> None:
        from repro.fuzz.campaign import FuzzConfig, run_campaign
        from repro.regress import RegressionStore

        self.run_campaign = run_campaign
        self.config = FuzzConfig(seed=self.seed, iterations=FUZZ_ITERATIONS)
        self.store = RegressionStore(str(self.work / "regress"))
        self.checkpoints = str(self.work / "checkpoints")

    def execute(self, result: Round, tracer=None) -> None:
        start = time.perf_counter()
        self.report = self.run_campaign(
            self.config,
            batch_size=self.batch_size,
            store=self.store,
            checkpoint_dir=self.checkpoints,
        )
        result.wall_s = time.perf_counter() - start

    def check(self, result: Round) -> None:
        from repro.regress import replay_store

        report = self.report
        result.ops = report.execs
        result.digest = digest(report.to_json())
        batches = math.ceil(FUZZ_ITERATIONS / self.batch_size)
        result.attempted = batches + len(report.divergences)
        result.fail(report.batches_failed, "batches failed")
        result.fail(getattr(report, "record_errors", 0), "records failed")
        # An untriaged divergence is a static / dynamic disagreement no
        # triage rule explains.  Known open ones are printed; any other
        # is a failure.
        unknown = 0
        for div in report.untriaged:
            line = f"untriaged {div.kind} divergence {div.fingerprint} ({div.family})"
            if div.fingerprint in KNOWN_UNTRIAGED:
                result.findings.append(f"known open defect: {line}")
            else:
                unknown += 1
                result.notes.append(line)
        result.fail(unknown, "untriaged divergences outside KNOWN_UNTRIAGED")
        replay = replay_store(self.store)
        result.fail(len(replay.drifted), "recorded bundles do not replay clean")
        result.counts = {"fuzz.execs": report.execs}
        result.layer = {
            "fuzz.execs": report.execs,
            "fuzz.invalid_share": report.invalid / report.execs if report.execs else 0.0,
            "fuzz.divergences": len(report.divergences),
            "fuzz.untriaged": len(report.untriaged),
            "fuzz.seeds": report.seeds,
        }


# -- matrix-sweep --------------------------------------------------------------


class MatrixSweep:
    """``run_sweep`` over gallery + seed families + ``corpus/regress``,
    every defense, sequentially."""

    op = ("repro.matrix.sweep", "evaluate_cell")

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def prepare(self) -> None:
        from repro.matrix.sweep import (
            DEFAULT_SEED,
            canonical_report_json,
            diff_reports,
            run_sweep,
            seed_rows,
        )

        self.run_sweep = run_sweep
        self.diff_reports = diff_reports
        self.canonical = canonical_report_json
        baseline = self.root / "corpus" / "matrix" / "baseline.json"
        self.baseline = json.loads(baseline.read_text(encoding="utf-8"))
        # The baseline was recorded with the seed-family rows of the
        # default seed; a seed row built from another seed is another
        # program, which the baseline does not cover.
        recorded = {row.row_id: row.source for row in seed_rows(DEFAULT_SEED)}
        self.uncovered = {
            ("seed", row.row_id)
            for row in seed_rows(self.seed)
            if recorded.get(row.row_id) != row.source
        }

    def execute(self, result: Round, tracer=None) -> None:
        start = time.perf_counter()
        # Rows are collected inside the timed sweep: reading
        # corpus/regress through the store is part of the workload.
        self.report = self.run_sweep(
            seed=self.seed, regress_dir=str(self.root / "corpus" / "regress")
        )
        result.wall_s = time.perf_counter() - start

    def check(self, result: Round) -> None:
        report = self.report
        cells = sum(len(row["cells"]) for row in report["rows"])
        result.digest = digest(self.canonical(report))
        # diff_reports also counts rows or defenses that vanish or appear.
        expected = _covered(self.baseline, self.uncovered)
        drift = self.diff_reports(expected, _covered(report, self.uncovered))
        result.ops = cells
        result.attempted = max(cells, sum(len(r["cells"]) for r in expected["rows"]))
        result.fail(min(len(drift), result.attempted),
                    "cells differ from corpus/matrix/baseline.json")
        result.notes.extend(drift[:10])
        result.counts = {"matrix.cells": cells}


def _covered(report: dict, uncovered: set) -> dict:
    """``report`` without the rows the baseline does not cover."""
    rows = [r for r in report["rows"] if (r["kind"], r["id"]) not in uncovered]
    return dict(report, rows=rows)


# -- score-corpus --------------------------------------------------------------


class ScoreCorpus:
    """``score_graph`` over a generated package graph."""

    op = ("repro.score.propagate", "analyze_package_source")

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from repro.score.packages import generated_package_graph
        from repro.score.propagate import score_graph

        self.score_graph = score_graph
        self.graph = generated_package_graph(self.seed, SCORE_PACKAGES)

    def execute(self, result: Round, tracer=None) -> None:
        start = time.perf_counter()
        self.score = self.score_graph(self.graph)
        result.wall_s = time.perf_counter() - start

    def check(self, result: Round) -> None:
        packages = len(self.score.packages)
        result.ops = result.attempted = SCORE_PACKAGES
        result.fail(SCORE_PACKAGES - packages, "packages missing from the score")
        result.digest = digest(self.score.to_json())
        result.counts = {"score.packages": packages}
        result.layer = dict(result.counts)


# -- service-mixed -------------------------------------------------------------


class _Request:
    __slots__ = ("kind", "path", "body", "due", "sent", "done", "status", "reply")

    def __init__(self, kind, path, body, due):
        self.kind, self.path, self.body, self.due = kind, path, body, due
        self.sent = self.done = 0.0
        self.status = 0
        self.reply = b""


class ServiceMixed:
    """A ``python -m repro.service`` child driven by an open loop."""

    op = None

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.server = None

    def _schedule(self) -> list:
        from repro.fuzz.seeds import generator_seeds
        from repro.workloads.generators import generate_corpus

        rng = random.Random(f"service/{self.seed}")
        fresh, seen = [], set()
        batch = 0
        while len(fresh) < SERVICE_REQUESTS:
            for program in generate_corpus(derive_seed(self.seed, batch), 64):
                if program.source not in seen:
                    seen.add(program.source)
                    fresh.append(program.source)
            batch += 1
        # The leak family reads a file only the fuzz harness provides,
        # so /exec would reject it as a usage error.  The vulnerable
        # dos-loop twin runs to the step budget; the rest end early.
        runnable = [e for e in generator_seeds(self.seed) if e.family != "leak"]
        looping = [e for e in runnable if (e.family, e.label) == ("dos-loop", "vulnerable")]
        ending = [e for e in runnable if e not in looping]
        plan, fresh_used, analyzed, execs = [], 0, 0, 0
        for index in range(SERVICE_REQUESTS):
            if _every(index, SERVICE_EXEC_SHARE):
                pool = looping if _every(execs, SERVICE_TIMEOUT_SHARE) else ending
                entry = pool[execs % len(pool)]
                execs += 1
                kind = "exec"
                body = {
                    "source": entry.source,
                    "entry": "run",
                    "args": _arguments(entry.source, "run"),
                    "stdin": list(entry.stdin),
                }
            elif fresh_used and _every(analyzed, SERVICE_REPEAT_SHARE):
                analyzed += 1
                kind = "repeat"
                body = {"source": fresh[rng.randrange(fresh_used)]}
            else:
                analyzed += 1
                kind = "fresh"
                body = {"source": fresh[fresh_used]}
                fresh_used += 1
            path = "/exec" if kind == "exec" else "/analyze"
            plan.append(_Request(kind, path, json.dumps(body).encode(), index / SERVICE_RATE))
        return plan

    def prepare(self) -> None:
        self.plan = self._schedule()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0",
                "--workers", str(min(SERVICE_WORKERS, os.cpu_count() or 1)),
                "--cache-dir", str(self.work / "cache"),
            ],
            cwd=str(self.work),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.server.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            raise RuntimeError(f"service did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.before = self._metrics()

    def _metrics(self) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def _client(self, next_index, lock, origin, tracer, parent) -> None:
        if tracer is not None:
            tracer.adopt(parent)
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            while True:
                with lock:
                    index = next_index[0]
                    next_index[0] += 1
                if index >= len(self.plan):
                    return
                request = self.plan[index]
                delay = origin + request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                span = tracer.span("service.request", request.kind) if tracer else nullcontext()
                with span:
                    request.sent = time.perf_counter()
                    try:
                        connection.request(
                            "POST", request.path, body=request.body,
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        request.reply = response.read()
                        request.status = response.status
                    except (OSError, http.client.HTTPException):
                        connection.close()
                        request.status = -1
                    request.done = time.perf_counter()
        finally:
            connection.close()

    def execute(self, result: Round, tracer=None) -> None:
        next_index, lock = [0], threading.Lock()
        parent = len(tracer.spans) - 1 if tracer is not None else -1
        origin = self.origin = time.perf_counter()
        clients = [
            threading.Thread(
                target=self._client, args=(next_index, lock, origin, tracer, parent)
            )
            for _ in range(SERVICE_CONNECTIONS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        result.wall_s = time.perf_counter() - origin
        result.latencies = [r.done - (origin + r.due) for r in self.plan]

    def check(self, result: Round) -> None:
        from repro.analysis import analyze_source
        from repro.service.workers import report_payload

        after = self._metrics()
        result.rss_mb = _peak_rss_mb(self.server.pid)
        wrong = 0
        for request in self.plan:
            try:
                body = json.loads(request.reply) if request.status == 200 else None
            except ValueError:
                body = None
            if body is None:
                wrong += 1
                continue
            if request.kind == "exec":
                wrong += "died" not in body
            else:
                source = json.loads(request.body)["source"]
                wrong += body != report_payload(analyze_source(source), label="")
        result.attempted = len(self.plan)
        result.ops = len(self.plan) - wrong  # requests answered correctly
        result.fail(wrong, "service answers that are refused, failed or wrong")
        result.layer = _service_layer(self.before, after, self.plan, self.origin)

    def close(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            # SIGTERM, not SIGINT: a process started from a background
            # shell job inherits SIGINT as ignored.
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()


def _every(index: int, share: float) -> bool:
    """True for ``share`` of consecutive indexes, spread evenly."""
    return math.floor((index + 1) * share) != math.floor(index * share)


def _arguments(source: str, entry: str) -> list:
    """Attacker-ish scalar arguments for ``entry``, as a caller passes them."""
    from repro.analysis import parse

    function = next(f for f in parse(source).functions if f.name == entry)
    return ["attacker" if p.type.pointer_depth else 7 for p in function.params]


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (Linux ``VmHWM``)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"VmHWM:\s+(\d+) kB", text)
    return int(match.group(1)) / 1024.0 if match else 0.0


def _delta(before: dict, after: dict, section: str, name: str):
    old = before.get(section, {}).get(name)
    new = after.get(section, {}).get(name)
    if section == "histograms":
        old = old or {"count": 0, "total": 0.0}
        new = new or {"count": 0, "total": 0.0}
        return new.get("count", 0) - old.get("count", 0), new.get("total", 0.0) - old.get("total", 0.0)
    return (new or 0) - (old or 0)


def _service_layer(before: dict, after: dict, plan: list, origin: float) -> dict:
    """Service metrics from ``/metrics`` deltas and client timings."""
    waits, wait_total = _delta(before, after, "histograms", "scheduler.queue_wait_seconds")
    jobs, job_total = _delta(before, after, "histograms", "scheduler.job_seconds")
    submitted = _delta(before, after, "counters", "scheduler.jobs_submitted")
    client_total = sum(r.done - r.sent for r in plan)
    late = sorted(max(0.0, r.sent - origin - r.due) for r in plan)
    return {
        "service.queue_wait_ms": 1000.0 * wait_total / waits if waits else 0.0,
        "service.job_ms": 1000.0 * job_total / jobs if jobs else 0.0,
        "service.http_overhead_ms": 1000.0 * (client_total - job_total - wait_total) / len(plan),
        "service.cache.hit_share": (
            _delta(before, after, "counters", "scheduler.cache_hits") / submitted
            if submitted else 0.0
        ),
        "service.jobs_failed": _delta(before, after, "counters", "scheduler.jobs_failed"),
        "service.jobs_timed_out": _delta(before, after, "counters", "scheduler.jobs_timed_out"),
        "service.rejected": _delta(before, after, "counters", "http.overloaded"),
        "service.generator_late_ms": 1000.0 * late[min(len(late) - 1, int(0.99 * len(late)))],
    }


WORKLOADS = {
    "fuzz-campaign": FuzzCampaign,
    "matrix-sweep": MatrixSweep,
    "score-corpus": ScoreCorpus,
    "service-mixed": ServiceMixed,
}
