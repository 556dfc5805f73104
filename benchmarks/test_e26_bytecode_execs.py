"""E26 — bytecode engine throughput: compile once, execute many.

The bytecode VM, the production engine, exists to make executions
cheap: the compiler runs once per distinct source (content-hash cache)
while every execution pays only the threaded dispatch loop and, with
no access hooks installed, the vectorized bulk-access fast path.  This
experiment records raw executions per second for the same seed sweep
on production and on the reference AST interpreter (the same code path
with the compiler declined), the engine speedup, the hooked fuzz-oracle
rate for context (the event tap forces every access through the slow
path, so only the dispatch win survives there), and the cold-compile
cost per program — all as ``extra_info`` riders so the BENCH trajectory
tracks them.

The sweep drops the vulnerable ``dos-loop`` seed on purpose: it spins
to the 50k step budget by design, so it measures the timeout ceiling
(E11's experiment), not execution throughput.
"""

import time

from conftest import print_table

from repro.execution import compiled_for, reset_cache, run_program
from repro.fuzz.oracles import _entry_plan, dynamic_verdict
from repro.fuzz.seeds import seed_inputs
from repro.runtime import Machine
from tests.reference import reference_interpreter

ROUNDS = 8


def _plans():
    plans = []
    for seed in seed_inputs(20260808):
        if seed.family == "dos-loop" and seed.label == "vulnerable":
            continue  # spins to the step budget; measured by E11
        plan = _entry_plan(seed.source)
        if plan is not None:
            plans.append((seed, plan))
    return plans


PLANS = _plans()


def _vm_sweep() -> None:
    for seed, (entry, args) in PLANS:
        try:
            run_program(
                seed.source,
                entry=entry,
                args=args,
                machine=Machine(),
                stdin=seed.stdin,
            )
        except Exception:
            pass  # faults are legitimate outcomes here


def _ast_sweep() -> None:
    with reference_interpreter():
        _vm_sweep()


def _rate(benchmark) -> float:
    mean = benchmark.stats.stats.mean
    return len(PLANS) / mean if mean else 0.0


def test_e26_ast_exec_rate(benchmark):
    """Baseline: the AST interpreter over the terminating seed sweep."""
    benchmark.pedantic(_ast_sweep, rounds=ROUNDS, warmup_rounds=1)

    execs_per_s = _rate(benchmark)
    benchmark.extra_info["execs"] = len(PLANS)
    benchmark.extra_info["execs_per_s"] = round(execs_per_s, 2)
    assert execs_per_s > 0


def test_e26_bytecode_exec_rate(benchmark):
    """Compile-once-run-many: the cache is warmed before measuring, so
    the recorded rounds pay dispatch and bulk access, not compilation."""
    reset_cache()
    _vm_sweep()  # warm the compiled-program cache

    benchmark.pedantic(_vm_sweep, rounds=ROUNDS, warmup_rounds=1)

    execs_per_s = _rate(benchmark)
    benchmark.extra_info["execs"] = len(PLANS)
    benchmark.extra_info["execs_per_s"] = round(execs_per_s, 2)
    assert execs_per_s > 0


def test_e26_cold_compile(benchmark):
    """Cold-compile throughput: parse + lower the whole sweep with an
    empty cache, the cost a fresh worker pays exactly once."""

    def compile_all():
        reset_cache()
        for seed, _plan in PLANS:
            compiled_for(seed.source)

    benchmark.pedantic(compile_all, rounds=ROUNDS, warmup_rounds=1)

    mean = benchmark.stats.stats.mean
    compile_ms = mean * 1000.0 / len(PLANS)
    benchmark.extra_info["programs"] = len(PLANS)
    benchmark.extra_info["compile_ms"] = round(compile_ms, 3)
    # Compilation must amortize within a handful of executions, or the
    # cache buys nothing on short campaigns.
    assert compile_ms < 50.0


def test_e26_engine_speedup():
    """The acceptance number: the bytecode engine sustains at least a
    2x raw execution-rate speedup over the AST interpreter on the same
    sweep (measured ~4x on an idle machine; 2x leaves CI headroom).
    The hooked oracle path is printed for context: the fuzzing event
    tap disables the vectorized fast path, so only the dispatch-loop
    win survives there."""
    reset_cache()
    _vm_sweep()  # warm the compiled cache

    started = time.perf_counter()
    for _ in range(ROUNDS):
        _ast_sweep()
    ast_s = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(ROUNDS):
        _vm_sweep()
    vm_s = time.perf_counter() - started

    def oracle_sweep():
        started = time.perf_counter()
        for seed, _plan in PLANS:
            dynamic_verdict(seed.source, seed.stdin)
        return time.perf_counter() - started

    with reference_interpreter():
        oracle_ast_s = oracle_sweep()
    oracle_vm_s = oracle_sweep()

    execs = ROUNDS * len(PLANS)
    ast_rate = execs / ast_s
    vm_rate = execs / vm_s
    speedup = vm_rate / ast_rate
    print_table(
        f"E26 engine throughput ({len(PLANS)} seeds x {ROUNDS} rounds)",
        ["path", "execs/sec", "speedup"],
        [
            ["ast (raw)", f"{ast_rate:.1f}", "1.00x"],
            ["bytecode (raw)", f"{vm_rate:.1f}", f"{speedup:.2f}x"],
            [
                "ast (hooked oracle)",
                f"{len(PLANS) / oracle_ast_s:.1f}",
                "-",
            ],
            [
                "bytecode (hooked oracle)",
                f"{len(PLANS) / oracle_vm_s:.1f}",
                f"{oracle_ast_s / oracle_vm_s:.2f}x",
            ],
        ],
    )
    assert speedup >= 2.0
