"""Differential verification: adversarial fuzzing against the IDEAL reference.

The stash directory's whole claim is that silently dropping entries is
architecturally invisible; this package *hunts* for counterexamples.  It
generates adversarial flat programs (:mod:`.generator`), runs every
directory organization against the infinite-capacity IDEAL reference on
the identical global operation order (:mod:`.differ`), shrinks any failure
with a delta-debugging minimizer (:mod:`.minimizer`) and serializes the
result as a replayable repro case (:mod:`.corpus`).

Entry point: ``repro fuzz`` (see :mod:`repro.cli`) or the library calls::

    from repro.verify import generate_program, run_differential, RunOptions
    program = generate_program("eviction_storm", 4, 400, DeterministicRng(1))
    divergences = run_differential(program, options=RunOptions())
"""

from .differ import (
    DEFAULT_FUZZ_KINDS,
    ENGINE_FAULTS,
    ENGINE_KINDS,
    FAULTS,
    Divergence,
    ExecutionResult,
    RunOptions,
    TRACE_ENGINES,
    check_stat_sanity,
    diff_engine_results,
    diff_results,
    diff_tardis_results,
    execute_program,
    execute_program_vector,
    make_fuzz_config,
    run_differential,
    run_engine_differential,
    run_trace_differential,
)
from .corpus import (
    FailureCase,
    case_key,
    default_failure_root,
    load_case,
    repro_command,
    save_case,
    seed_corpus,
)
from .generator import PROFILES, generate_program
from .minimizer import minimize

__all__ = [
    "DEFAULT_FUZZ_KINDS",
    "Divergence",
    "ENGINE_FAULTS",
    "ENGINE_KINDS",
    "ExecutionResult",
    "FAULTS",
    "FailureCase",
    "PROFILES",
    "RunOptions",
    "TRACE_ENGINES",
    "case_key",
    "check_stat_sanity",
    "default_failure_root",
    "diff_engine_results",
    "diff_results",
    "diff_tardis_results",
    "execute_program",
    "execute_program_vector",
    "generate_program",
    "load_case",
    "make_fuzz_config",
    "minimize",
    "repro_command",
    "run_differential",
    "run_engine_differential",
    "run_trace_differential",
    "save_case",
    "seed_corpus",
]
