"""Golden equivalence: the vector engine must not change a single bit.

Replays one workload through every directory organization twice — once
on the interpreter, once through
``run_trace(..., engine="vector")`` — and requires identical per-core
cycle counts and an identical flattened statistics tree.  Organizations
without a flat view must fall back to the interpreter transparently (the
result's ``engine`` marker records which engine actually ran).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import KINDS, make_config
from repro.common.config import DirectoryKind
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.sim.vector import DEFAULT_EPOCH_OPS, VectorEngine, vector_supports
from repro.workloads.suite import build_workload

OPS = 400

#: Every organization: the evaluation's plus IN_LLC and the fallbacks.
ALL_KINDS = KINDS + [k for k in DirectoryKind if k not in KINDS]

#: Kinds the flat engine executes directly; the rest fall back.
FLAT_KINDS = tuple(
    k for k in ALL_KINDS if vector_supports(make_config(k, 0.25)) is None
)


def test_flat_view_covers_every_evaluated_kind():
    assert set(KINDS) <= set(FLAT_KINDS)
    assert DirectoryKind.IN_LLC in FLAT_KINDS


@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_vector_run_bit_identical(kind):
    config = make_config(kind, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=3)
    )
    interp = run_trace(config, trace)
    vector = run_trace(config, trace, engine="vector")
    assert vector.cycles_per_core == interp.cycles_per_core
    assert vector.stats == interp.stats
    assert vector == interp
    assert interp.engine == "interp"
    if kind in FLAT_KINDS:
        assert vector.engine == "vector"
    else:
        assert kind.value in vector_supports(config)  # the reason names it
        assert vector.engine == "interp"  # transparent fallback


@pytest.mark.parametrize("kind", FLAT_KINDS, ids=[k.value for k in FLAT_KINDS])
def test_vector_run_identical_across_workloads(kind):
    config = make_config(kind, 0.5)
    for workload, seed in (("canneal-like", 1), ("locks-like", 2)):
        trace = build_workload(workload, config.num_cores, OPS, seed=seed)
        interp = run_trace(config, trace.to_trace())
        vector = run_trace(config, trace, engine="vector")
        assert vector == interp
        assert vector.engine == "vector"


def test_vector_run_identical_across_epoch_sizes():
    """Epoch batching is invisible: any slicing yields the same bits."""
    config = make_config(DirectoryKind.STASH, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=5)
    )
    reference = VectorEngine(config).run(trace)
    for epoch_ops in (1, 7, OPS - 1, OPS, DEFAULT_EPOCH_OPS):
        result = VectorEngine(config, epoch_ops=epoch_ops).run(trace)
        assert result == reference, f"epoch_ops={epoch_ops} diverged"
