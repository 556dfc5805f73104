"""The engine parity gate: production (the bytecode VM) must agree with
the reference AST interpreter on every committed corpus and on
generated programs — verdicts, triage, events, faults, step counts,
outputs and stored bytes — with zero drift.  This is the tier-1
contract that lets every production path trust the fast engine.

The reference is :func:`tests.reference.reference_interpreter`: the
same production code paths with the compiler declining every source.
"""

import random
from pathlib import Path

import pytest

from repro.execution import BytecodeVM, compiled_for, reset_cache, run_program
from repro.fuzz import run_oracles
from repro.fuzz.mutator import mutate
from repro.fuzz.oracles import (
    DEFAULT_STDIN,
    DEFAULT_STEP_BUDGET,
    _entry_plan,
    observe_run,
)
from repro.fuzz.seeds import corpus_seeds, generator_seeds, seed_inputs
from repro.regress import RegressionStore, replay_store
from repro.runtime import CanaryPolicy, Machine, MachineConfig

from .reference import reference_interpreter

REPO = Path(__file__).resolve().parent.parent
REGRESS_DIR = REPO / "corpus" / "regress"
PACKAGES_DIR = REPO / "corpus" / "packages"


def _package_sources():
    return sorted(PACKAGES_DIR.glob("*.cpp"))


def _regress_bundles():
    store = RegressionStore(REGRESS_DIR, create=False)
    return [store.load(bundle_id) for bundle_id in store.ids()]


def _run_engines(source, stdin=()):
    """One (outcome, events) observation of ``main`` on production and
    on the reference, exceptions included."""
    compiled, note = compiled_for(source)
    assert compiled is not None, f"not compilable: {note}"

    def run_one():
        machine = Machine()
        try:
            executor, outcome, _engine = run_program(
                source, machine=machine, stdin=stdin
            )
            return (
                "ok",
                outcome.return_value,
                outcome.steps,
                tuple(executor.outputs),
                tuple(executor.stored),
                outcome.frame_exit is not None and outcome.frame_exit.hijacked,
                tuple(machine.events),
            )
        except Exception as error:
            return ("exc", type(error).__name__, str(error), tuple(machine.events))

    with reference_interpreter():
        reference = run_one()
    return reference, run_one()


class TestPackageCorpusParity:
    """Every committed package runs identically on both engines."""

    @pytest.mark.parametrize(
        "path", _package_sources(), ids=lambda p: p.stem
    )
    def test_package_zero_drift(self, path):
        source = path.read_text()
        ast_run, vm_run = _run_engines(source)
        assert ast_run == vm_run


class TestRegressCorpusParity:
    """The whole committed regression store replays with zero drift on
    both engines — verdict, fingerprint, and triage."""

    def test_both_engine_sweep_is_clean(self):
        reset_cache()
        store = RegressionStore(REGRESS_DIR, create=False)
        drift = replay_store(store)
        assert drift.clean, drift.render()
        assert drift.counts() == {"ok": len(store.ids())}
        with reference_interpreter():
            reference = replay_store(store)
        assert drift.to_json() == reference.to_json()

    def test_bundles_agree_per_oracle_verdict(self):
        for bundle in _regress_bundles():
            with reference_interpreter():
                on_ast = run_oracles(bundle.source, bundle.stdin)
            on_vm = run_oracles(bundle.source, bundle.stdin)
            assert on_ast.valid == on_vm.valid
            assert on_ast.dynamic.events == on_vm.dynamic.events
            assert on_ast.dynamic.fault == on_vm.dynamic.fault
            assert on_ast.divergence_kind == on_vm.divergence_kind
            # Nothing silently fell back to the interpreter.
            assert on_vm.dynamic.engine_note == ""


class TestSeedFamilyParity:
    """Every generator seed family (both ground-truth labels) agrees."""

    @pytest.mark.parametrize(
        "fuzz_input",
        seed_inputs(20260808),
        ids=lambda i: f"{i.family or 'corpus'}-{i.label or 'x'}",
    )
    def test_seed_zero_drift(self, fuzz_input):
        ast_run, vm_run = _run_engines(fuzz_input.source, fuzz_input.stdin)
        assert ast_run == vm_run


def _generated_inputs():
    """Generator families over several seeds, plus a deterministic chain
    of mutants from every seed — the programs a campaign executes."""
    inputs = [inp for seed in (3, 5, 11, 13) for inp in generator_seeds(seed)]
    rng = random.Random("engine-parity/mutants")
    for parent in generator_seeds(7) + corpus_seeds():
        current = parent
        for _ in range(3):
            mutant = mutate(rng, current)
            if mutant is not None:
                inputs.append(mutant)
                current = mutant
    return inputs


def _observe(fuzz_input):
    """``(ran on the VM, observation)`` of one oracle run: its events,
    fault, steps, outputs and stored bytes (None when no entry is
    runnable)."""
    plan = _entry_plan(fuzz_input.source)
    if plan is None:
        return False, None
    entry, args = plan
    machine = Machine(MachineConfig(canary_policy=CanaryPolicy.RANDOM))
    run = observe_run(
        machine,
        fuzz_input.source,
        entry,
        args,
        tuple(fuzz_input.stdin) or DEFAULT_STDIN,
        DEFAULT_STEP_BUDGET,
    )
    executor = run.executor
    return isinstance(executor, BytecodeVM), (
        sorted(run.events),
        repr(run.error),
        executor and executor.steps,
        executor and tuple(map(str, executor.outputs)),
        executor and tuple((name, bytes(data)) for name, data in executor.stored),
        tuple(map(str, machine.events)),
    )


class TestGeneratedProgramParity:
    """Production and reference agree on generated programs and their
    mutants, not only on the committed corpora."""

    def test_generated_and_mutated_programs_zero_drift(self):
        reset_cache()
        inputs = _generated_inputs()
        families = {inp.family for inp in inputs}
        assert len(inputs) >= 60 and len(families) >= 7
        mutants = [inp for inp in inputs if not inp.label]
        assert len(mutants) >= 20
        drifted = []
        runnable = on_vm = 0
        for fuzz_input in inputs:
            vm_ran, production = _observe(fuzz_input)
            with reference_interpreter():
                vm_ran_on_reference, reference = _observe(fuzz_input)
            assert not vm_ran_on_reference
            runnable += production is not None
            on_vm += vm_ran
            if production != reference:
                drifted.append((fuzz_input.family, fuzz_input.source))
        assert not drifted, drifted[:3]
        # Not vacuous: every runnable program really ran on the VM.
        assert runnable >= 100 and on_vm == runnable


class TestCorpusCompiles:
    """The committed corpora never take the slow-path fallback: the
    compiler handles every construct the corpus exercises."""

    def test_no_fallbacks_across_corpora(self):
        reset_cache()
        sources = [path.read_text() for path in _package_sources()]
        sources += [bundle.source for bundle in _regress_bundles()]
        for source in sources:
            compiled, note = compiled_for(source)
            assert compiled is not None and note == "", note


def test_repo_corpora_exist():
    # The gate above is vacuous if the corpus dirs move; fail loudly.
    assert _package_sources(), "corpus/packages is empty or missing"
    assert (REGRESS_DIR / "").exists() and list(REGRESS_DIR.glob("*.json"))
