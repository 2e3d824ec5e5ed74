"""Golden equivalence: the native kernel must not change a single bit.

Every directory organization replays on the interpreter and through
``run_trace(..., engine="native")``; per-core cycles, the flattened
statistics tree and the effective-tracking samples must be identical.
Configurations the kernel does not model run on the next engine down
(vector, then the interpreter), and the refusal names its cause.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import KINDS, make_config
from repro.common.config import DirectoryKind, SharerFormat
from repro.sim.native import config_unsupported, native_supports
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.sim.vector import vector_supports
from repro.workloads.suite import build_workload

#: Every organization: the evaluation's plus IN_LLC and the fallbacks.
ALL_KINDS = KINDS + [k for k in DirectoryKind if k not in KINDS]

#: Kinds the native kernel executes directly.
NATIVE_KINDS = tuple(
    k for k in ALL_KINDS if config_unsupported(make_config(k, 0.25)) is None
)


def _trace(workload, cores, ops, seed):
    return PackedTrace.from_trace(build_workload(workload, cores, ops, seed=seed))


def test_native_covers_every_vector_kind():
    flat = {k for k in ALL_KINDS if vector_supports(make_config(k, 0.25)) is None}
    assert set(NATIVE_KINDS) == flat
    assert set(KINDS) <= set(NATIVE_KINDS)


@pytest.mark.parametrize("moesi", [False, True], ids=["mesi", "moesi"])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=[k.value for k in ALL_KINDS])
def test_native_run_bit_identical(kind, moesi):
    config = make_config(kind, 0.25, moesi=moesi)
    trace = _trace("mix", config.num_cores, 400, 3)
    interp = run_trace(config, trace)
    native = run_trace(config, trace, engine="native")
    assert native.cycles_per_core == interp.cycles_per_core
    assert native.stats == interp.stats
    assert native == interp
    if kind in NATIVE_KINDS:
        assert native_supports(config) is None
        assert native.engine == "native"
    else:
        reason = native_supports(config)
        assert kind.value in reason  # the refusal names its cause
        assert native.engine == "interp"  # vector refused it too


@pytest.mark.parametrize("ratio", [1.0, 0.125])
@pytest.mark.parametrize("kind", NATIVE_KINDS, ids=[k.value for k in NATIVE_KINDS])
def test_native_bit_identical_across_workloads(kind, ratio):
    config = make_config(kind, ratio)
    for workload, seed in (("canneal-like", 1), ("locks-like", 2), ("barnes-like", 5)):
        trace = _trace(workload, config.num_cores, 500, seed)
        interp = run_trace(config, trace)
        native = run_trace(config, trace, engine="native")
        assert native == interp, workload
        assert native.effective_tracking_samples == interp.effective_tracking_samples


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_native_multiword_sharer_masks(kind):
    """128 cores: sharer sets span two 64-bit words."""
    config = make_config(kind, 0.125, num_cores=128)
    trace = _trace("weakscale-like", 128, 60, 4)
    interp = run_trace(config, trace)
    native = run_trace(config, trace, engine="native")
    assert native == interp
    assert native.engine == "native"


@pytest.mark.parametrize(
    "fmt",
    [SharerFormat.COARSE_VECTOR, SharerFormat.LIMITED_POINTER, SharerFormat.HIERARCHICAL],
    ids=lambda fmt: fmt.value,
)
def test_other_sharer_formats_run_on_vector(fmt):
    config = make_config(DirectoryKind.STASH, 0.25, sharer_format=fmt)
    reason = native_supports(config)
    assert fmt.value in reason
    trace = _trace("mix", config.num_cores, 300, 1)
    native = run_trace(config, trace, engine="native")
    assert native.engine == "vector"
    assert native == run_trace(config, trace)


def test_interpreter_only_features_name_their_cause():
    config = make_config(DirectoryKind.STASH, 0.25, private_l2=True)
    assert "private L2" in native_supports(config)
    trace = _trace("mix", config.num_cores, 200, 1)
    assert run_trace(config, trace, engine="native").engine == "interp"
