"""The reference interpreter, for the engine parity gate.

Production runs every program on the bytecode VM, falling back per
program to the AST interpreter (:func:`repro.execution.vm.load_program`).
:func:`reference_interpreter` makes ``repro.execution.vm.compiled_for``
decline every source, so the very same production code paths run on
the interpreter instead.  A parity test compares the two runs; no
production option is involved.

``python -m tests.reference <repro-matrix arguments>`` (repo root as the
working directory, ``src`` on ``PYTHONPATH``) runs ``repro-matrix`` on
the reference interpreter — the CI sweep that must ``cmp`` equal to the
production sweep.
"""

import sys
from contextlib import contextmanager

from repro.execution import vm


def _declined(source):
    return None, ""


@contextmanager
def reference_interpreter():
    """Run everything inside the block on the AST interpreter."""
    original = vm.compiled_for
    vm.compiled_for = _declined
    try:
        yield
    finally:
        vm.compiled_for = original


if __name__ == "__main__":
    from repro.cli import matrix_main

    with reference_interpreter():
        sys.exit(matrix_main(sys.argv[1:]))
