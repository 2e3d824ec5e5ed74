"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from measure import beyond, combined_digest, result_digest, tail_percentile  # noqa: E402
from spans import Tracer, covered, self_by_name, self_times  # noqa: E402


# ------------------------------------------------------------ span arithmetic

def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "run": "t"}


def test_self_time_subtracts_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 5.0, 6.0, "b"),
        _span(4, 2, 2.0, 3.0, "c"),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once():
    # Children on two threads overlap: the union, not the sum, is covered.
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 6.0),
        _span(3, 1, 4.0, 8.0),
        _span(4, 1, 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert covered((0.0, 10.0), [(2.0, 3.0), (2.5, 2.7), (1.0, 2.0)]) == pytest.approx(2.0)


def test_tracer_accounts_for_its_root_and_restores_functions():
    class Target:
        def work(self):
            time.sleep(0.002)
            return 3

    original = Target.__dict__["work"]
    tracer = Tracer("t")
    tracer.patch_method(Target, "work", "layer")
    with tracer.span("bench"):
        Target().work()
        worker = threading.Thread(target=Target().work)
        worker.start()
        worker.join(timeout=10)
    tracer.uninstall()
    assert Target.__dict__["work"] is original
    assert not worker.is_alive()
    by_name = self_by_name(tracer.spans)
    root = [s for s in tracer.spans if s["name"] == "bench"][0]
    # The thread's span has no parent: it is a root of its own.
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert len(roots) == 2
    tree = [s for s in tracer.spans if s is root or s["parent"] == root["id"]]
    assert sum(self_times(tree).values()) == pytest.approx(root["end"] - root["start"])
    assert by_name["layer"] > 0.003


def test_patch_function_rebinds_imported_names():
    from repro.analysis import runner
    from repro.sim import simulator

    original = simulator.run_trace
    tracer = Tracer("t")
    tracer.patch_function(original, "sim")
    try:
        assert runner.run_trace is not original
        assert simulator.run_trace is runner.run_trace
    finally:
        tracer.uninstall()
    assert runner.run_trace is original and simulator.run_trace is original


# ------------------------------------------------------------ percentile rule

@pytest.mark.parametrize(
    "n, expected",
    [(15, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    got = tail_percentile(samples)
    if expected is None:
        assert got is None
        return
    pct, value = got
    assert pct == expected
    assert beyond(n, pct) >= 10
    assert sum(1 for x in samples if x > value) == beyond(n, pct)


def test_p90_needs_ten_samples_beyond_or_falls_back_to_median():
    from measure import percentile_or_median

    assert percentile_or_median([float(i) for i in range(1, 121)], 90.0) == 108.0
    assert percentile_or_median([float(i) for i in range(1, 121)], 50.0) == 60.0
    assert percentile_or_median([3.0, 1.0, 2.0, 9.0], 90.0) == 2.5
    assert percentile_or_median([3.0, 1.0, 2.0, 9.0], 50.0) == 2.5


# ------------------------------------------------------------------- digests

def _small_result(engine="interp"):
    from repro.analysis.experiments import make_config
    from repro.common.config import DirectoryKind
    from repro.sim.simulator import run_trace
    from repro.sim.trace import PackedTrace
    from repro.workloads.suite import build_workload

    config = make_config(DirectoryKind.STASH, 0.125)
    trace = PackedTrace.from_trace(build_workload("mix", 16, 60, seed=5))
    return run_trace(config, trace, engine=engine)


def test_digest_is_stable_and_engine_free():
    from repro.analysis.io import result_from_dict, result_to_dict

    first = _small_result()
    again = _small_result()
    vector = _small_result("vector")
    assert vector.engine == "vector"
    assert result_digest(first) == result_digest(again) == result_digest(vector)
    assert result_digest(result_from_dict(
        json.loads(json.dumps(result_to_dict(first)))
    )) == result_digest(first)
    changed = _small_result()
    changed.stats["system.protocol.accesses"] += 1
    assert result_digest(changed) != result_digest(first)
    assert combined_digest({"a": "1", "b": "2"}) == combined_digest({"b": "2", "a": "1"})


def test_wrong_reference_digest_fails(tmp_path, monkeypatch):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"f3-sweep": {"p": "good", "q": "bad"}}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    failures = []
    reps = [{"digests": {"p": "good", "q": "good"}}] * 2
    assert run.verify("f3-sweep", run.DEFAULT_SEED, "full", reps, failures) == 1
    assert failures == ["digest of q differs from reference"]
    # Other seeds and the smoke size have no reference.
    assert run.verify("f3-sweep", 7, "full", reps, []) == 0
    assert run.verify("f3-sweep", run.DEFAULT_SEED, "smoke", reps, []) == 0


def test_reference_covers_every_workload():
    reference = json.loads(run.REFERENCE.read_text())
    assert sorted(reference) == sorted(run.WORKLOADS)


# ----------------------------------------------------------------- end to end

def _run(args, cwd):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_end_to_end(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(last["metrics"]) == [name for name, _ in names]
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "f3-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
