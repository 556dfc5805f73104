"""Dynamic execution of MiniC++ programs on the simulated machine.

The dynamic complement to :mod:`repro.analysis`: the same sources the
static detector flags are *run* here, so every report can be validated
against observed memory corruption.

Production runs go through :func:`run_program` / :func:`load_program`:
the :class:`BytecodeVM` (a compiled IR with a threaded dispatch loop —
see :mod:`repro.execution.bytecode`), falling back per program to the
AST :class:`Interpreter`, which is also the reference the parity tests
hold the VM to.
"""

from .bytecode import (
    BYTECODE_VERSION,
    CompiledProgram,
    UnsupportedConstruct,
    compile_program,
    disassemble,
)
from .interpreter import (
    DEFAULT_STEP_BUDGET,
    ExecutionError,
    FunctionOutcome,
    Interpreter,
    run_source,
)
from .values import LValue, Scope, Variable, truthy
from .vm import (
    BytecodeVM,
    cache_stats,
    compile_source,
    compiled_for,
    load_program,
    reset_cache,
    run_program,
)

__all__ = [
    "BYTECODE_VERSION",
    "BytecodeVM",
    "CompiledProgram",
    "DEFAULT_STEP_BUDGET",
    "ExecutionError",
    "FunctionOutcome",
    "Interpreter",
    "LValue",
    "Scope",
    "UnsupportedConstruct",
    "Variable",
    "cache_stats",
    "compile_program",
    "compile_source",
    "compiled_for",
    "disassemble",
    "load_program",
    "reset_cache",
    "run_program",
    "run_source",
    "truthy",
]
