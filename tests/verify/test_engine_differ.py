"""Engine differential: interpreter vs vector engine, bit-for-bit."""

import pytest

from repro.coherence.tables import l1_tables, validate_l1_tables
from repro.common.config import DirectoryKind, SharerFormat
from repro.common.errors import ProtocolError
from repro.common.mesi import CoherenceProtocol
from repro.common.rng import DeterministicRng
from repro.verify import (
    ENGINE_FAULTS,
    ENGINE_KINDS,
    RunOptions,
    diff_engine_results,
    execute_program,
    execute_program_vector,
    generate_program,
    make_fuzz_config,
    run_engine_differential,
)

#: Two ops that drive core 0's line through EXCLUSIVE into a silent
#: write upgrade — the cell the table-corrupt fault flips.
E_WRITE_PROGRAM = [(0, 1, False), (0, 1, True)]


def program_for(profile, options, ops=150, seed=1):
    return generate_program(
        profile, options.num_cores, ops, DeterministicRng(seed)
    )


class TestCleanAgreement:
    def test_engines_agree_on_mixed_program(self):
        options = RunOptions()
        program = program_for("mixed", options)
        assert run_engine_differential(program, options=options) == []

    def test_engines_agree_under_moesi(self):
        options = RunOptions(protocol=CoherenceProtocol.MOESI)
        program = program_for("stash_race", options)
        assert run_engine_differential(program, options=options) == []

    def test_engines_agree_six_cores_coarse(self):
        options = RunOptions(
            num_cores=6,
            sharer_format=SharerFormat.COARSE_VECTOR,
            coarse_group=4,
        )
        program = program_for("group_alias", options)
        assert run_engine_differential(program, options=options) == []

    def test_engines_agree_limited_pointer_overflow(self):
        options = RunOptions(
            sharer_format=SharerFormat.LIMITED_POINTER,
            limited_pointers=2,
            protocol=CoherenceProtocol.MOESI,
        )
        program = program_for("pointer_overflow", options)
        assert run_engine_differential(program, options=options) == []

    def test_unsupported_options_skip_silently(self):
        # Discovery filters have no flat view: nothing to compare, no
        # spurious divergence.
        options = RunOptions(discovery_filter_slots=8)
        program = program_for("mixed", options, ops=40)
        assert run_engine_differential(program, options=options) == []


class TestVectorExecution:
    def test_capture_matches_interpreter_exactly(self):
        options = RunOptions()
        program = program_for("set_conflict", options, ops=200)
        for kind in ENGINE_KINDS:
            config = make_fuzz_config(kind, options)
            interp = execute_program(program, config)
            vector = execute_program_vector(program, config)
            assert interp.ok and vector.ok
            assert vector.versions == interp.versions
            assert vector.final_versions == interp.final_versions
            assert vector.stats == interp.stats

    def test_out_of_range_core_is_crash_not_raise(self):
        options = RunOptions(num_cores=4)
        result = execute_program_vector(
            [(7, 1, True)], make_fuzz_config(DirectoryKind.SPARSE, options)
        )
        assert not result.ok
        assert result.error_category == "crash"


class TestFaultDetection:
    def test_table_corrupt_caught_on_every_kind(self):
        divergences = run_engine_differential(
            E_WRITE_PROGRAM,
            options=RunOptions(),
            fault=ENGINE_FAULTS["table-corrupt"],
        )
        assert {d.kind for d in divergences} == {k.value for k in ENGINE_KINDS}
        for divergence in divergences:
            assert divergence.category == "engine-value"
            assert divergence.op_index == 1  # the write that lost its mint

    @pytest.mark.parametrize(
        "kind",
        [DirectoryKind.CUCKOO, DirectoryKind.SCD, DirectoryKind.IN_LLC],
        ids=lambda kind: kind.value,
    )
    def test_table_corrupt_caught_on_each_new_flat_kind(self, kind):
        # Each kind that gained a flat view (the cuckoo and SCD components,
        # IN_LLC as the ideal map) is on the verification axis, and the
        # differential catches the corrupted table on it.
        assert kind in ENGINE_KINDS
        (divergence,) = run_engine_differential(
            E_WRITE_PROGRAM,
            kinds=[kind],
            options=RunOptions(),
            fault=ENGINE_FAULTS["table-corrupt"],
        )
        assert divergence.signature == (kind.value, "engine-value")
        assert divergence.op_index == 1  # the write that lost its mint

    def test_table_corrupt_caught_by_generated_program(self):
        # The harness finds the fault from fuzz programs too, not only
        # the hand-built repro.
        options = RunOptions(seed=2)
        program = program_for("stash_race", options, ops=400, seed=2)
        divergences = run_engine_differential(
            program, options=options, fault=ENGINE_FAULTS["table-corrupt"]
        )
        assert divergences
        assert all(d.category.startswith("engine-") for d in divergences)

    def test_table_corrupt_caught_on_native_axis_for_every_kind(self):
        # The whole-trace native axis sees the corrupted (EXCLUSIVE, write)
        # cell on every kind the kernel models, from a generated program.
        from repro.verify import run_trace_differential

        options = RunOptions()
        program = program_for("mixed", options, ops=300)
        divergences = run_trace_differential(
            program,
            options=options,
            fault=ENGINE_FAULTS["table-corrupt"],
            engines=("native",),
        )
        assert {d.kind for d in divergences} == {k.value for k in ENGINE_KINDS}
        for divergence in divergences:
            assert divergence.category.startswith("native-")
            assert divergence.detail.startswith(f"{divergence.kind} (native):")

    def test_corrupted_table_fails_validation_too(self):
        # Independent second line of defense: the analytic cross-check
        # rejects the same corruption the differ catches dynamically.
        corrupted = ENGINE_FAULTS["table-corrupt"].inject(
            l1_tables(CoherenceProtocol.MESI)
        )
        with pytest.raises(ProtocolError):
            validate_l1_tables(corrupted)

    def test_stats_only_divergence_detected(self):
        options = RunOptions()
        config = make_fuzz_config(DirectoryKind.SPARSE, options)
        interp = execute_program(E_WRITE_PROGRAM, config)
        vector = execute_program_vector(E_WRITE_PROGRAM, config)
        vector.stats = dict(vector.stats)
        vector.stats["system.protocol.latency_total"] += 1.0
        divergence = diff_engine_results(interp, vector, len(E_WRITE_PROGRAM))
        assert divergence is not None
        assert divergence.category == "engine-stats"
        assert "latency_total" in divergence.detail

    def test_signature_disjoint_from_organization_differ(self):
        divergences = run_engine_differential(
            E_WRITE_PROGRAM,
            kinds=[DirectoryKind.STASH],
            options=RunOptions(),
            fault=ENGINE_FAULTS["table-corrupt"],
        )
        (divergence,) = divergences
        assert divergence.signature == ("stash", "engine-value")


class TestParallelSpeculationAxis:
    """The whole-trace axis runs speculation on and off for every program
    (and the native kernel: a clean program agrees on every engine)."""

    def test_clean_program_agrees_with_speculation(self):
        from repro.verify import run_trace_differential

        options = RunOptions()
        program = program_for("stash_race", options, ops=300)
        assert run_trace_differential(program, options=options) == []

    def test_undo_corrupt_caught_only_by_speculative_runs(self):
        from repro.verify import run_trace_differential

        options = RunOptions()
        program = program_for("stash_race", options, ops=300)
        fault = ENGINE_FAULTS["undo-corrupt"]
        divergences = run_trace_differential(
            program, options=options, fault=fault
        )
        assert divergences, "undo-log corruption must be detected"
        assert all(d.category.startswith("parallel-") for d in divergences)
        assert all("speculate=on" in d.detail for d in divergences)

    def test_table_corrupt_caught_with_speculation_off_and_on(self):
        from repro.verify import run_trace_differential

        options = RunOptions()
        program = program_for("mixed", options, ops=300)
        divergences = run_trace_differential(
            program,
            kinds=[DirectoryKind.STASH],
            options=options,
            fault=ENGINE_FAULTS["table-corrupt"],
            engines=("parallel", "speculate"),
        )
        assert all(d.category.startswith("parallel-") for d in divergences)
        labels = {d.detail.split(":", 1)[0] for d in divergences}
        assert labels == {"stash (speculate=off)", "stash (speculate=on)"}

    def test_undo_corrupt_inject_leaves_tables_clean(self):
        tables = l1_tables(CoherenceProtocol.MESI)
        assert ENGINE_FAULTS["undo-corrupt"].inject(tables) == tables
