"""Execution-engine wiring: checkpoint round-trips (including the
retired engine key), batch merging, the compile-error advisory surface
on fuzz, matrix and replay, and the service's engine report.

Production runs on the bytecode VM with a per-program interpreter
fallback.  The parity of the VM with the reference interpreter is
proven in tests/test_bytecode_parity.py; this file tests the *wiring*
that lets an operator trust the counters and warnings it reports.
"""

from pathlib import Path

import pytest

from repro.cli import matrix_main, regress_main
from repro.execution import reset_cache
from repro.execution import vm as vm_module
from repro.fuzz import DifferentialFuzzer, FuzzConfig
from repro.fuzz.campaign import _merge_batch, run_batch
from repro.fuzz.checkpoint import (
    CampaignCheckpoint,
    checkpoint_from_fuzzer,
    restore_fuzzer,
)
from repro.fuzz.seeds import FuzzInput
from repro.regress import RegressionStore, replay_bundle
from repro.service import ServiceEngine
from repro.service.metrics import MetricsRegistry, render_prometheus

from .reference import reference_interpreter

REPO = Path(__file__).resolve().parent.parent
REGRESS_DIR = REPO / "corpus" / "regress"

TRIVIAL = "int main(int argc, int argv) {\n  return 7;\n}\n"


def _crash_compiler(monkeypatch):
    def crash(program, symbols=None):
        raise RuntimeError("synthetic compiler bug")

    reset_cache()
    monkeypatch.setattr(vm_module, "compile_program", crash)


class TestConfigPlumbing:
    def test_checkpoint_roundtrips_engine_and_counters(self):
        fuzzer = DifferentialFuzzer(FuzzConfig(seed=3))
        fuzzer.compile_errors = 2
        fuzzer.first_compile_error = "compile-error:abcdef123456"
        checkpoint = checkpoint_from_fuzzer(
            fuzzer, batch_size=10, round_index=1, remaining=5
        )
        assert "engine" not in checkpoint.config
        restored = restore_fuzzer(
            CampaignCheckpoint.from_json(checkpoint.to_json())
        )
        assert restored.config == FuzzConfig(seed=3)
        assert restored.compile_errors == 2
        assert restored.first_compile_error == "compile-error:abcdef123456"

    def test_pre_engine_checkpoint_still_loads(self):
        # Checkpoints written before the bytecode engine carry neither
        # the config key nor the counters.
        # (Built directly: from_dict would reject a hand-edited body on
        # its integrity digest, which is its own guarantee.)
        old = CampaignCheckpoint(
            config={"seed": 3, "iterations": 10},
            batch_size=10,
            round_index=0,
            remaining=5,
            counters={"execs": 4},
        )
        restored = restore_fuzzer(old)
        assert restored.config == FuzzConfig(seed=3, iterations=10)
        assert restored.compile_errors == 0
        assert restored.first_compile_error == ""


class TestCompileErrorSurfacing:
    """A compiler crash must never be silent: the campaign counts it,
    names the first failing source hash, and exports the counter."""

    def test_observe_counts_and_names_first_failure(self, monkeypatch):
        _crash_compiler(monkeypatch)
        metrics = MetricsRegistry()
        fuzzer = DifferentialFuzzer(FuzzConfig(), metrics=metrics)
        fuzzer.observe(FuzzInput(source=TRIVIAL))
        fuzzer.observe(FuzzInput(source=TRIVIAL + "\n"))
        assert fuzzer.compile_errors == 2
        assert fuzzer.first_compile_error.startswith("compile-error:")
        first = fuzzer.first_compile_error
        fuzzer.observe(FuzzInput(source=TRIVIAL + "\n\n"))
        assert fuzzer.first_compile_error == first  # first stays first
        assert metrics.counter("bytecode.compile_errors").value == 3
        report = fuzzer.finalize()
        assert report.compile_errors == 3
        assert report.first_compile_error == first

    def test_compile_error_still_produces_a_verdict(self, monkeypatch):
        # The fallback interpreter run keeps the campaign sound even
        # while the compiler is broken.
        _crash_compiler(monkeypatch)
        fuzzer = DifferentialFuzzer(FuzzConfig())
        observation = fuzzer.observe(FuzzInput(source=TRIVIAL))
        assert observation.valid
        assert fuzzer.execs == 1

    def test_report_bytes_stay_engine_free(self, monkeypatch):
        _crash_compiler(monkeypatch)
        fuzzer = DifferentialFuzzer(FuzzConfig())
        fuzzer.observe(FuzzInput(source=TRIVIAL))
        report = fuzzer.finalize()
        flat = repr(sorted(report.to_dict().items()))
        assert "compile-error" not in flat
        assert "engine" not in flat


def _batch_result(**overrides):
    """The minimal result dict a worker batch returns."""
    result = {
        "execs": 0,
        "invalid": 0,
        "discarded": 0,
        "new_coverage": (),
        "new_inputs": (),
        "divergences": (),
    }
    result.update(overrides)
    return result


class TestBatchMerging:
    def test_merge_accumulates_engine_counters(self):
        metrics = MetricsRegistry()
        fuzzer = DifferentialFuzzer(FuzzConfig(), metrics=metrics)
        _merge_batch(
            fuzzer,
            _batch_result(
                compile_errors=2, first_compile_error="compile-error:aaa"
            ),
        )
        _merge_batch(
            fuzzer,
            _batch_result(
                compile_errors=1, first_compile_error="compile-error:bbb"
            ),
        )
        assert fuzzer.compile_errors == 3
        assert fuzzer.first_compile_error == "compile-error:aaa"
        assert metrics.counter("bytecode.compile_errors").value == 3

    def test_pre_engine_batch_result_merges(self):
        # A worker running older code returns no engine keys at all.
        fuzzer = DifferentialFuzzer(FuzzConfig())
        _merge_batch(fuzzer, _batch_result())
        assert fuzzer.compile_errors == 0

    def test_run_batch_reports_engine_counters(self):
        # A payload from an older campaign still names an engine: the key
        # is ignored like any other unknown one.
        reset_cache()
        result = run_batch(
            {
                "seed": 11,
                "iterations": 4,
                "round": 0,
                "batch": 0,
                "engine": "both",
                "corpus": ((TRIVIAL, (), "corpus", ""),),
            }
        )
        assert result["compile_errors"] == 0
        assert result["first_compile_error"] == ""
        assert "engine_drift" not in result


class TestEngineDriftJudgement:
    def test_engine_override_keeps_bundle_verdict(self):
        # The same bundles judge "ok" on the VM and on the reference.
        store = RegressionStore(REGRESS_DIR, create=False)
        for bundle_id in sorted(store.ids())[:3]:
            bundle = store.load(bundle_id)
            assert replay_bundle(bundle).status == "ok"
            with reference_interpreter():
                assert replay_bundle(bundle).status == "ok"


def _cli(main, argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


class TestCompileErrorsOutsideFuzz:
    """A compiler crash during a sweep or a replay warns on stderr, as
    a campaign does, and never changes the report bytes."""

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_matrix_run_warns_and_keeps_bytes(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        argv = ["run", "--jobs", jobs, "--no-regress", "--defenses", "none,vrt"]
        reset_cache()
        code, err = _cli(matrix_main, argv + ["--out", str(tmp_path / "a")], capsys)
        assert code == 0 and "compile" not in err
        _crash_compiler(monkeypatch)
        code, err = _cli(matrix_main, argv + ["--out", str(tmp_path / "b")], capsys)
        assert code == 0
        assert "bytecode compiler crashed on" in err
        assert "(bytecode.compile_errors; first: compile-error:" in err
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert b"compile-error" not in (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_regress_replay_warns_and_keeps_bytes(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        argv = ["replay", "--store", str(REGRESS_DIR), "--jobs", jobs]
        reset_cache()
        code, err = _cli(regress_main, argv + ["--out", str(tmp_path / "a")], capsys)
        assert code == 0 and "compile" not in err
        _crash_compiler(monkeypatch)
        code, err = _cli(regress_main, argv + ["--out", str(tmp_path / "b")], capsys)
        assert code == 0
        bundles = len(RegressionStore(REGRESS_DIR, create=False).ids())
        assert f"bytecode compiler crashed on {bundles} source(s)" in err
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert b"compile-error" not in (tmp_path / "b").read_bytes()


class TestServiceSurface:
    def test_exec_job_engine_roundtrip(self):
        with ServiceEngine(workers=1, use_cache=False) as engine:
            on_vm = engine.execute(TRIVIAL)
            with reference_interpreter():
                on_ast = engine.execute(TRIVIAL)
        assert on_vm["engine"] == "bytecode"
        assert on_ast["engine"] == "ast"
        assert on_vm["return_value"] == on_ast["return_value"] == 7

    def test_metrics_snapshot_exports_bytecode_section(self):
        reset_cache()
        with ServiceEngine(workers=1, use_cache=False) as engine:
            engine.execute(TRIVIAL)
            snapshot = engine.metrics_snapshot()
        section = snapshot["bytecode"]
        assert section["compiles"] == 1
        assert section["version"] >= 1
        rendered = render_prometheus(snapshot)
        assert "repro_bytecode_compiles 1" in rendered
        assert "repro_bytecode_compile_errors 0" in rendered
