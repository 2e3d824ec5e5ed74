"""One repetition of one workload, in a fresh process and a fresh directory.

``run.py`` starts this script once per repetition, with the working
directory set to an empty temporary directory, so the in-process memos
(result and trace), the result cache and the trace spool all start empty.
The script asserts that, runs the workload, checks its outputs and prints
one JSON record as its last line of standard output.

Phases of a repetition:

* set-up (``setup_s``): interpreter start, imports, configuration,
  ``l1_tables`` derivation and, for ``campaign-mixed``, spawning the
  server until ``/healthz`` answers;
* the request (``wall_s``): from the request to verified numbers;
* untimed checks: digests, the interpreter recheck of sampled points.

With ``--traced 1`` the program's public entry points are rebound to span
recorders (``layers.install``) for the request only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from measure import (  # noqa: E402
    HostClock,
    engine_counts,
    median,
    model_counts,
    result_digest,
)
from spans import Tracer, self_by_name  # noqa: E402

#: The F3 sweep: the headline workloads and ``benchmarks/conftest.py``'s
#: BENCH_RATIOS.  200 ops per core keeps one cold sweep near 6 s of pure
#: Python while every F3 paper assertion still holds.
F3_WORKLOADS = ("blackscholes-like", "canneal-like", "barnes-like", "mix")
F3_RATIOS = (1.0, 0.5, 0.25, 0.125)

#: Points of the F3 sweep rechecked on the interpreter for any seed.
F3_RECHECK = (
    ("blackscholes-like", "cuckoo", 0.125),
    ("mix", "stash", 0.125),
    ("canneal-like", "sparse", 1.0),
)

#: Weak scaling: bench_scaling.py's parallel_spec engine request.
WS_CORES = 256
WS_KIND = "stash"
WS_RATIO = 0.125
WS_REQUEST = {"engine": "parallel", "engine_workers": "auto", "speculate": True}

#: Campaign loop shape: 2 kinds x 2 ratios x 2 seeds of short mix traces.
CAMPAIGN_KINDS = ("sparse", "stash")
CAMPAIGN_RATIOS = (1.0, 0.125)
CAMPAIGN_WORKERS = 2
CAMPAIGN_POINTS = len(CAMPAIGN_KINDS) * len(CAMPAIGN_RATIOS) * 2

#: Sizes: ``full`` is the measured benchmark, ``smoke`` a seconds-long
#: end-to-end pass for the self-tests (no reference digests apply).
SIZES = {
    "full": {"f3_ops": 200, "ws_ops": 8000, "ws_recheck_ops": 50,
             "campaigns": 40, "campaign_ops": 100},
    "smoke": {"f3_ops": 24, "ws_ops": 100, "ws_recheck_ops": 20,
              "campaigns": 3, "campaign_ops": 20},
}

HTTP_TIMEOUT = 60.0


class Checks:
    """Failed checks, and the points each one makes wrong."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.failed_points: set = set()
        self.unattributed = 0

    def require(self, ok: bool, message: str, points=()) -> bool:
        if not ok:
            self.failures.append(message)
            self.failed_points.update(points)
            self.unattributed += not points
        return ok

    def failed(self, attempted: int) -> int:
        """Points counted as failed: each point named by a failed check,
        plus one per failed check that names none (at most all points)."""
        return min(attempted, len(self.failed_points) + self.unattributed)


def _peak_rss_mb() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def _assert_isolated(checks: Checks) -> None:
    """Every run starts with empty memos, result cache and trace spool."""
    from repro.analysis import runner
    from repro.workloads import store

    checks.require(not runner._MEMO, "result memo not empty at start")
    checks.require(not store._TRACE_MEMO, "trace memo not empty at start")
    checks.require(
        not Path(runner.configure()["cache_dir"]).exists(),
        "result cache / trace spool directory exists at start",
    )


def _recheck_on_interp(checks: Checks, label: str, config, workload: str,
                       cores: int, ops: int, seed: int, expected: str) -> None:
    """Rerun one point on the interpreter, from a fresh trace, untimed."""
    from repro.sim.simulator import run_trace
    from repro.sim.trace import PackedTrace
    from repro.workloads.suite import build_workload

    trace = PackedTrace.from_trace(
        build_workload(workload, cores, ops, seed=seed, block_bytes=config.block_bytes)
    )
    result = run_trace(config, trace, engine="interp")
    checks.require(
        result_digest(result) == expected,
        f"interpreter recheck differs for {label}", points=(label,),
    )


# ------------------------------------------------------------------ f3-sweep

def f3_sweep(seed: int, size: Dict, tracer: Optional[Tracer], checks: Checks) -> Dict:
    from repro.analysis import experiments, runner
    from repro.common.config import DirectoryKind
    from repro.workloads import store

    ops = size["f3_ops"]
    configs = [(DirectoryKind.SPARSE, 1.0)] + [
        (kind, ratio)
        for kind in experiments.KINDS
        for ratio in (F3_RATIOS[:1] if kind is DirectoryKind.IDEAL else F3_RATIOS)
    ]
    points = {}
    for name in F3_WORKLOADS:
        for kind, ratio in configs:
            points[f"{name}|{kind.value}|{ratio}"] = runner.SweepPoint(
                name, experiments.make_config(kind, ratio), ops, seed
            )

    def request():
        out = experiments.run_performance_sweep(
            workloads=list(F3_WORKLOADS), ratios=list(F3_RATIOS),
            ops_per_core=ops, seed=seed,
        )
        # Every point computed here, none served warm: a warm cache can
        # never pass as a gain.
        checks.require(
            runner.counters.computed == len(points)
            and runner.counters.disk_hits == 0,
            f"f3-sweep computed {runner.counters.computed} points and read "
            f"{runner.counters.disk_hits} from disk, expected {len(points)} and 0",
        )
        checks.require(
            store.counters.generated == len(F3_WORKLOADS),
            f"f3-sweep generated {store.counters.generated} traces, "
            f"expected {len(F3_WORKLOADS)}",
        )
        if size is SIZES["full"]:
            _f3_paper_assertions(out.data["series"], checks)

    clock = HostClock()
    _traced(tracer, request)
    host = clock.elapsed()
    computed = runner.counters.computed

    counters = {
        "runner.cache_hit_frac": runner.counters.hit_rate,
        "store.generated": float(store.counters.generated),
        "store.hit_frac": (
            (store.counters.memo_hits + store.counters.disk_hits)
            / store.counters.lookups if store.counters.lookups else 0.0
        ),
    }
    labels = list(points)
    results = runner.run_points([points[label] for label in labels])
    checks.require(runner.counters.computed == computed,
                   "f3-sweep results were not all memoized")
    digests = {label: result_digest(r) for label, r in zip(labels, results)}
    by_label = dict(zip(labels, results))
    for name, kind, ratio in F3_RECHECK:
        label = f"{name}|{kind}|{ratio}"
        _recheck_on_interp(checks, label, by_label[label].config, name, 16, ops,
                           seed, digests[label])
    return {
        **host,
        "points": len(results),
        "simulated_points": computed,
        "sim_accesses": sum(r.total_accesses for r in results),
        "latencies": [host["wall_s"]],
        "digests": digests,
        "engines": engine_counts(
            (points[label].engine, r.engine) for label, r in zip(labels, results)
        ),
        "results": results,
        "counters": counters,
    }


def _f3_paper_assertions(series: Dict, checks: Checks) -> None:
    """The paper-claim gates of benchmarks/bench_fig3_performance.py."""
    one, eighth = F3_RATIOS.index(1.0), F3_RATIOS.index(0.125)
    gates = (
        (series["ideal"][eighth] <= series["stash"][eighth] + 0.02,
         "ideal@1/8 <= stash@1/8 + 0.02"),
        (series["stash"][eighth] < series["cuckoo"][eighth],
         "stash@1/8 < cuckoo@1/8"),
        (series["cuckoo"][one] <= series["sparse"][one],
         "cuckoo@1 <= sparse@1"),
        (series["cuckoo"][eighth] <= 1.02 * series["sparse"][eighth],
         "cuckoo@1/8 <= 1.02 sparse@1/8"),
        (series["stash"][eighth] < 1.05, "stash@1/8 < 1.05 (headline)"),
    )
    for ok, claim in gates:
        checks.require(ok, f"F3 paper assertion failed: {claim}")


# ------------------------------------------------------------- weakscale-256

def weakscale(seed: int, size: Dict, tracer: Optional[Tracer], checks: Checks) -> Dict:
    from repro.analysis.experiments import make_config
    from repro.common.config import DirectoryKind
    from repro.sim import simulator
    from repro.sim import trace as trace_mod
    from repro.sim.parallel import resolve_engine_workers
    from repro.workloads import suite

    config = make_config(DirectoryKind(WS_KIND), ratio=WS_RATIO,
                         num_cores=WS_CORES, seed=seed)
    ops = size["ws_ops"]
    if resolve_engine_workers(WS_REQUEST["engine_workers"]):
        # Scan worker processes need the CPUs run.py pinned this one off.
        os.sched_setaffinity(0, range(os.cpu_count() or 1))

    def request():
        trace = suite.build_workload(
            "weakscale-like", WS_CORES, ops, seed=seed, block_bytes=config.block_bytes
        )
        packed = trace_mod.PackedTrace.from_trace(trace)
        return simulator.run_trace(config, packed, **WS_REQUEST)

    clock = HostClock()
    result = _traced(tracer, request)
    host = clock.elapsed()

    label = f"weakscale-like|{WS_KIND}|{WS_RATIO}|{WS_CORES}x{ops}"
    digest = result_digest(result)
    # The interpreter cannot rerun 2M accesses within a run's budget: the
    # same workload, configuration and seed at a reduced length runs on
    # both the requested engine and the interpreter instead.
    short = size["ws_recheck_ops"]
    packed = trace_mod.PackedTrace.from_trace(suite.build_workload(
        "weakscale-like", WS_CORES, short, seed=seed, block_bytes=config.block_bytes
    ))
    fast = simulator.run_trace(config, packed, **WS_REQUEST)
    _recheck_on_interp(checks, f"weakscale-like|{WS_CORES}x{short}", config,
                       "weakscale-like", WS_CORES, short, seed, result_digest(fast))
    return {
        **host,
        "points": 1,
        "simulated_points": 1,
        "sim_accesses": result.total_accesses,
        "latencies": [host["wall_s"]],
        "digests": {label: digest},
        "engines": engine_counts([(WS_REQUEST["engine"], result.engine)]),
        "results": [result],
        "counters": {},
    }


# ------------------------------------------------------------ campaign-mixed

def campaign_manifest(seed: int, index: int, ops: int) -> Dict:
    """Campaign ``index``: its first seed is the previous campaign's second."""
    base = 1000 * seed + index
    return {
        "name": "e2ebench-campaign-mixed",
        "factors": {
            "kind": list(CAMPAIGN_KINDS),
            "ratio": list(CAMPAIGN_RATIOS),
            "workload": ["mix"],
            "ops": [ops],
            "seed": [base, base + 1],
        },
    }


def _wait_ready(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    """The base URL from the server's ready line, once /healthz answers."""
    deadline = time.monotonic() + timeout
    line = proc.stdout.readline()
    if "listening on" not in line:
        raise RuntimeError(f"server did not start: {line!r}")
    url = line.split("listening on ", 1)[1].split()[0]
    while True:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
                if resp.status == 200:
                    return url
        except (urllib.error.URLError, OSError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server /healthz never answered")
        time.sleep(0.01)


def _stop_server(proc: subprocess.Popen) -> int:
    """SIGTERM and wait; kill the whole process group if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    try:  # pool workers the server failed to reap
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode


def _read_stream(url: str, campaign_id: str, expected: int) -> List[tuple]:
    """(seconds, event) for each event until ``expected`` points reported.

    The connection is closed by the client once every point has reported:
    pool workers forked while a stream is open inherit its socket, so the
    server's close does not reach the client as end of stream.
    """
    events = []
    with urllib.request.urlopen(
        f"{url}/campaigns/{campaign_id}/stream", timeout=HTTP_TIMEOUT
    ) as resp:
        for line in resp:
            events.append((time.perf_counter(), json.loads(line)))
            if len(events) >= expected:
                break
    return events


def _start_server(root: Path, cache_dir: Path,
                  spans_out: Optional[Path]) -> subprocess.Popen:
    """``python -m repro serve`` with a pool of 2 workers, in its own group."""
    repro_args = ["--workers", str(CAMPAIGN_WORKERS), "--cache-dir", str(cache_dir),
                  "serve", "--port", "0", "--backend", "pool"]
    if spans_out is None:
        command = [sys.executable, "-m", "repro", *repro_args]
    else:
        command = [sys.executable, str(HERE / "traced_serve.py"), str(spans_out),
                   *repro_args]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)


def campaign_setup(root: Path, spawned_at: float) -> float:
    """Set-up alone: spawn the server until /healthz answers, then stop it."""
    proc = _start_server(root, Path("cache").resolve(), None)
    try:
        _wait_ready(proc)
        return time.time() - spawned_at
    finally:
        _stop_server(proc)


def campaign_mixed(seed: int, size: Dict, tracer: Optional[Tracer],
                   checks: Checks, root: Path, spawned_at: float) -> Dict:
    from repro.analysis import runner
    from repro.service.loadgen import ServiceClientError, fetch_metrics, post_json
    from repro.service.manifest import CampaignManifest

    cache_dir = Path("cache").resolve()
    server_spans = Path("server_spans.json").resolve()
    proc = _start_server(root, cache_dir, server_spans if tracer else None)
    try:
        url = _wait_ready(proc)
        setup_s = time.time() - spawned_at
        metrics_before = fetch_metrics(url)
        n, ops = size["campaigns"], size["campaign_ops"]
        latencies, submits, waits = [], [], []
        streamed: List[Dict] = []

        def one_campaign(index: int) -> None:
            submitted = time.perf_counter()
            try:
                with _span(tracer, "service.submit"):
                    reply = post_json(url, "/campaigns",
                                      campaign_manifest(seed, index, ops))
                posted = time.perf_counter()
                with _span(tracer, "service.stream"):
                    events = _read_stream(url, reply["id"], CAMPAIGN_POINTS)
            except (ServiceClientError, OSError, ValueError) as exc:
                checks.require(False, f"campaign {index}: {exc}", points=[
                    f"campaign{index}#{k}" for k in range(CAMPAIGN_POINTS)
                ])
                return
            submits.append(posted - submitted)
            if events:
                waits.append(events[0][0] - submitted)
                latencies.append(events[-1][0] - submitted)
            streamed.extend({"campaign": index, **event} for _, event in events)

        clock = HostClock()
        _traced(tracer, lambda: [one_campaign(i) for i in range(n)])
        host = clock.elapsed()
        metrics_after = fetch_metrics(url)
    finally:
        code = _stop_server(proc)
    checks.require(code == 0, f"server exited {code} on SIGTERM")

    # Expected sources: campaign 0 computes all 8 points; every later
    # campaign reads the 4 points of its repeated seed from the cache.
    sources = [e.get("source") for e in streamed]
    expected_computed = CAMPAIGN_POINTS + (n - 1) * CAMPAIGN_POINTS // 2
    expected_cached = (n - 1) * CAMPAIGN_POINTS // 2
    checks.require(
        len(streamed) == n * CAMPAIGN_POINTS
        and all(e.get("state") == "done" for e in streamed),
        f"{len(streamed)} done events streamed, expected {n * CAMPAIGN_POINTS}",
    )
    checks.require(
        sources.count("computed") == expected_computed
        and sources.count("cache") == expected_cached,
        f"computed/cache {sources.count('computed')}/{sources.count('cache')}, "
        f"expected {expected_computed}/{expected_cached}",
    )

    # Full results from the server's result cache, keyed as the program keys them.
    disk = runner.DiskCache(cache_dir)
    results: Dict[str, object] = {}
    requested: Dict[str, str] = {}
    summaries: Dict[str, Dict] = {}
    for index in range(n):
        manifest = CampaignManifest.from_dict(campaign_manifest(seed, index, ops))
        for spec in manifest.expand():
            point = spec.point
            label = f"mix|{point.config.directory.kind.value}|" \
                    f"{point.config.directory.coverage_ratio}|{point.seed}"
            requested[label] = point.engine
            if label not in results:
                loaded = disk.load(runner.cache_key(point))
                if checks.require(loaded is not None, f"{label} missing from cache",
                                  points=(label,)):
                    results[label] = loaded
    for event in streamed:
        labels = event.get("labels", {})
        label = f"mix|{labels.get('kind')}|{float(labels.get('ratio', 0))}|{labels.get('seed')}"
        summary = event.get("summary")
        if label in results:
            checks.require(summary == results[label].summary(),
                           f"streamed summary differs from cached result for {label}",
                           points=(label,))
        if label in summaries:
            checks.require(summaries[label] == summary,
                           f"cache-served summary differs for {label}", points=(label,))
        summaries.setdefault(label, summary)
    digests = {label: result_digest(r) for label, r in results.items()}
    first = sorted(results)[:1] + sorted(results)[-1:]
    for label in first:
        workload, _, _, point_seed = label.split("|")
        _recheck_on_interp(checks, label, results[label].config, workload, 16, ops,
                           int(point_seed), digests[label])

    after = metrics_after
    busy = sum(e.get("seconds", 0.0) for e in streamed if e.get("source") == "computed")
    quantile = after.get("repro_point_latency_seconds", {}).get((("quantile", "0.5"),))
    counters = {
        "runner.cache_hit_frac": _gauge(after, "repro_result_cache_hit_rate"),
        "store.generated": _gauge(after, "repro_trace_cache_generated")
        - _gauge(metrics_before, "repro_trace_cache_generated"),
        "store.hit_frac": _gauge(after, "repro_trace_cache_hit_rate"),
        "service.submit_s": median(submits) if submits else 0.0,
        "service.queue_wait_s": median(waits) if waits else 0.0,
        "service.point_latency_p50_s": quantile or 0.0,
        "service.cache_served_frac": sources.count("cache") / len(sources)
        if sources else 0.0,
        # The repro_worker_utilization gauge is instantaneous and reads 0
        # between campaigns of a closed loop; the mean over the loop comes
        # from the compute seconds the stream reports per point.
        "dispatch.worker_busy_s": busy,
        "dispatch.utilization": busy / (CAMPAIGN_WORKERS * host["wall_s"]),
    }
    server = None
    if tracer is not None and server_spans.exists():
        server = json.loads(server_spans.read_text())
    return {
        **host,
        "setup_s": setup_s,
        "points": len(streamed),
        "simulated_points": sources.count("computed"),
        "sim_accesses": sum(r.total_accesses for r in results.values()),
        "latencies": latencies,
        "digests": digests,
        "engines": engine_counts((requested[k], results[k].engine) for k in results),
        "results": list(results.values()),
        "counters": counters,
        "server": server,
    }


def _gauge(parsed: Dict, name: str) -> float:
    values = parsed.get(name, {})
    return float(next(iter(values.values()))) if values else 0.0


# ------------------------------------------------------------------ plumbing

def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _traced(tracer: Optional[Tracer], request):
    """Run the request, inside the root span with the layers rebound if traced."""
    if tracer is None:
        return request()
    layers.install(tracer)
    try:
        with tracer.span("bench"):
            return request()
    finally:
        tracer.uninstall()


WORKLOADS = {
    "f3-sweep": f3_sweep,
    "weakscale-256": weakscale,
    "campaign-mixed": campaign_mixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report setup_s and exit")
    args = parser.parse_args(argv)
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))

    from repro.analysis import experiments, runner  # noqa: F401  (set-up cost)
    from repro.coherence.tables import l1_tables
    from repro.common.mesi import CoherenceProtocol

    checks = Checks()
    _assert_isolated(checks)
    start = time.perf_counter()
    l1_tables(CoherenceProtocol.MESI)
    derive_s = time.perf_counter() - start
    size = SIZES[args.size]
    tracer = Tracer(f"{args.workload}-{args.seed}-{args.rep}") if args.traced else None
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        if args.workload == "campaign-mixed":
            from repro.service import loadgen, manifest  # noqa: F401  (set-up cost)

            setup_s = campaign_setup(root, args.spawned_at)
        print(json.dumps({"setup_s": setup_s, "failures": checks.failures}))
        return 0

    fn = WORKLOADS[args.workload]
    if args.workload == "campaign-mixed":
        out = fn(args.seed, size, tracer, checks, root, args.spawned_at)
        setup_s = out.pop("setup_s")
    else:
        out = fn(args.seed, size, tracer, checks)

    results = out.pop("results")
    engines = out["engines"]
    fast = sum(engines["ran"].get(e, 0) for e in ("vector", "parallel"))
    layer = {
        "tables.derive_s": derive_s,
        "sim.fast_engine_frac": fast / max(1, sum(engines["ran"].values())),
        "sim.fallbacks": float(engines["fallbacks"]),
        **model_counts(results),
        **out.pop("counters"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "rep": args.rep,
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        **out,
    }
    if tracer is not None:
        layer.update(layers.layer_metrics(tracer.spans, tracer.counts))
        record["spans"] = tracer.spans
        record["self_times"] = self_by_name(tracer.spans)
        server_side = record.get("server")
        if server_side:
            # The server's spans cover the service-side layers; the
            # client's own tree accounts for the client's wall time.
            server_layers = layers.layer_metrics(server_side["spans"],
                                                 server_side["counts"])
            for metric, value in server_layers.items():
                if metric != "bench.self_s" and not layer.get(metric):
                    layer[metric] = value
    record["layer"] = layer
    record["failures"] = checks.failures
    record["failed_points"] = checks.failed(out["points"])
    print(json.dumps(record, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
