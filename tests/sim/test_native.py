"""The native kernel's build, load, refusal and error paths."""

from __future__ import annotations

import random
import subprocess
import sys
from importlib import resources

import pytest

from repro.analysis import runner
from repro.analysis.experiments import make_config
from repro.coherence.tables import corrupt_l1_tables, l1_tables
from repro.common.config import DirectoryKind
from repro.common.errors import ProtocolError
from repro.common.mesi import CoherenceProtocol
from repro.sim import native
from repro.sim.native import NativeEngine, native_supports
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.workloads.suite import build_workload

requires_kernel = pytest.mark.skipif(
    native.kernel_unavailable() is not None,
    reason=f"native kernel unavailable: {native.kernel_unavailable()}",
)


def test_source_ships_as_package_data():
    source = resources.files("repro.sim").joinpath("native.c").read_text()
    assert "repro_native_run" in source
    assert native.kernel_source() == source.encode()


@requires_kernel
def test_loaded_kernel_reports_its_build_hash():
    lib = native.load_kernel()
    digest = native.kernel_digest(native.find_compiler())
    assert lib.repro_native_hash().decode() == digest


@requires_kernel
def test_build_lands_in_the_content_addressed_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_KERNEL", {})
    assert native.kernel_unavailable() is None
    digest = native.kernel_digest(native.find_compiler())
    built = sorted(p.name for p in (tmp_path / "repro" / "native").iterdir())
    assert built == [f"{digest}.so"]  # no temporary left behind


@requires_kernel
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_mt19937_matches_random_getrandbits(seed):
    # Every width the cuckoo relocation draw can use, from a fresh seeding
    # and from a stream already part-way through its 624-word block.
    rng = random.Random(seed)
    rng.getrandbits(32)
    for k in range(1, 33):
        state = rng.getstate()[1]
        want = [rng.getrandbits(k) for _ in range(4000)]
        assert native.mt_getrandbits(state, k, 4000) == want, k


def test_refuses_without_a_compiler(monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "_KERNEL", {})
    config = make_config(DirectoryKind.STASH, 0.125, seed=11)
    reason = native_supports(config)
    assert reason is not None and "compiler" in reason
    runner.clear_memo()
    result = runner.simulate_point("mix", config, ops_per_core=123, seed=11)
    assert result.engine == "vector"
    trace = PackedTrace.from_trace(build_workload("mix", 16, 123, seed=11))
    assert result == run_trace(config, trace, engine="interp")


@requires_kernel
def test_corrupted_table_raises_protocol_error():
    # SHARED-read dispatched to the miss action: the kernel must stop with
    # the vector engine's ProtocolError, not return numbers.
    config = make_config(DirectoryKind.SPARSE, 1.0)
    tables = corrupt_l1_tables(l1_tables(CoherenceProtocol.MESI), cell=2)
    trace = PackedTrace.from_trace(build_workload("mix", 16, 300, seed=1))
    with pytest.raises(ProtocolError, match="table dispatched resident line"):
        NativeEngine(config, tables=tables).run(trace)


@requires_kernel
def test_sweep_points_default_to_native():
    assert runner.SweepPoint("mix", make_config(DirectoryKind.SPARSE, 1.0)).engine == "native"
    runner.clear_memo()
    config = make_config(DirectoryKind.CUCKOO, 0.125, seed=13)
    result = runner.simulate_point("mix", config, ops_per_core=111, seed=13)
    assert result.engine == "native"


def test_import_builds_nothing_and_loads_no_ctypes():
    code = (
        "import sys, repro, repro.cli, repro.analysis.runner, "
        "repro.analysis.experiments, repro.service.server; "
        "print('ctypes' in sys.modules, 'repro.sim.native' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["False", "False"]
