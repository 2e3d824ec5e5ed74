"""Synthetic load client for the campaign service (stdlib ``urllib`` only).

The measurement companion to :mod:`repro.service.server`: submits
generated campaign manifests over real HTTP, polls them to completion and
reports sustained throughput plus submit→result latency quantiles.  Used
three ways:

* ``benchmarks/bench_service.py`` — the BENCH_service.json numbers
  (sustained points/s, p50/p99 latency, warm vs cold cache).
* ``tools/service_smoke.py`` — the CI smoke job's client half.
* ``python -m repro.service.loadgen --url http://...`` — ad-hoc load
  against an already-running ``repro serve``.

All requests use ``Connection: close`` (matching the server) and every
``/metrics`` fetch round-trips through the strict parser, so a format
regression fails the load run loudly.
"""

from __future__ import annotations

import argparse
import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .metrics import parse_prometheus

#: Default per-campaign completion timeout (seconds).
DEFAULT_TIMEOUT = 300.0


class ServiceClientError(RuntimeError):
    """An HTTP call to the campaign service failed."""


# --------------------------------------------------------------- HTTP client

def _request(
    base_url: str,
    path: str,
    body: Optional[Dict] = None,
    timeout: float = 30.0,
) -> Tuple[int, bytes]:
    """One request against the service; returns (status, body bytes)."""
    url = base_url.rstrip("/") + path
    data = None
    method = "GET"
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        method = "POST"
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise ServiceClientError(f"{method} {url}: {exc}") from None


def get_json(base_url: str, path: str, timeout: float = 30.0) -> Dict:
    """GET a JSON endpoint; raises on non-2xx."""
    status, raw = _request(base_url, path, timeout=timeout)
    payload = json.loads(raw.decode("utf-8"))
    if status >= 400:
        raise ServiceClientError(f"GET {path} -> {status}: {payload}")
    return payload


def post_json(base_url: str, path: str, body: Dict, timeout: float = 30.0) -> Dict:
    """POST JSON; returns the decoded response, raises on non-2xx."""
    status, raw = _request(base_url, path, body=body, timeout=timeout)
    payload = json.loads(raw.decode("utf-8"))
    if status >= 400:
        raise ServiceClientError(f"POST {path} -> {status}: {payload}")
    return payload


def fetch_metrics(base_url: str, timeout: float = 30.0) -> Dict:
    """GET ``/metrics`` and parse it strictly; raises on junk output."""
    status, raw = _request(base_url, "/metrics", timeout=timeout)
    if status != 200:
        raise ServiceClientError(f"GET /metrics -> {status}")
    return parse_prometheus(raw.decode("utf-8"))


def wait_campaign(
    base_url: str,
    campaign_id: str,
    timeout: float = DEFAULT_TIMEOUT,
    poll: float = 0.2,
) -> Dict:
    """Poll one campaign until it reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while True:
        status = get_json(base_url, f"/campaigns/{campaign_id}")
        if status["status"] in ("done", "failed", "cancelled"):
            return status
        if time.monotonic() >= deadline:
            raise ServiceClientError(
                f"campaign {campaign_id} still {status['status']!r} "
                f"after {timeout:.0f}s"
            )
        time.sleep(poll)


# ------------------------------------------------------------ load generation

def make_manifest(
    index: int,
    kinds: Tuple[str, ...] = ("sparse", "stash"),
    ratios: Tuple[float, ...] = (0.5, 0.125),
    workload: str = "mix",
    ops: int = 300,
    cores: int = 16,
    seed: int = 1,
) -> Dict:
    """One synthetic campaign manifest; ``index`` shifts the seed so each
    generated campaign is a distinct (cold) parameterization."""
    return {
        "name": f"loadgen-{index}",
        "factors": {
            "kind": list(kinds),
            "ratio": list(ratios),
            "workload": [workload],
            "ops": [ops],
            "cores": [cores],
            "seed": [seed + index],
        },
    }


@dataclass
class LoadReport:
    """Aggregate result of one load run."""

    campaigns: int = 0
    points: int = 0
    computed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)

    @property
    def points_per_second(self) -> float:
        return self.points / self.wall_seconds if self.wall_seconds else 0.0

    def quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        data = sorted(self.latencies)
        rank = min(len(data) - 1, max(0, int(q * len(data))))
        return data[rank]

    def to_dict(self) -> Dict:
        return {
            "campaigns": self.campaigns,
            "points": self.points,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "failed": self.failed,
            "wall_seconds": round(self.wall_seconds, 6),
            "points_per_second": round(self.points_per_second, 3),
            "latency_p50_seconds": round(self.quantile(0.50), 6),
            "latency_p99_seconds": round(self.quantile(0.99), 6),
        }


def run_load(
    base_url: str,
    campaigns: int = 4,
    ops: int = 300,
    seed: int = 1,
    timeout: float = DEFAULT_TIMEOUT,
    poll: float = 0.1,
) -> LoadReport:
    """Submit ``campaigns`` synthetic manifests back-to-back and poll all
    of them to completion.

    Submissions are not throttled — the service's campaigns queue on its
    dispatch backend — so the report's ``points_per_second`` is
    the sustained service throughput, and each campaign's submit→done
    wall time feeds the latency quantiles.
    """
    report = LoadReport()
    start = time.monotonic()
    submitted: List[Tuple[str, float]] = []
    for index in range(campaigns):
        manifest = make_manifest(index, ops=ops, seed=seed)
        response = post_json(base_url, "/campaigns", manifest, timeout=timeout)
        submitted.append((response["id"], time.monotonic()))
    for campaign_id, submit_time in submitted:
        status = wait_campaign(base_url, campaign_id, timeout=timeout, poll=poll)
        report.campaigns += 1
        report.points += status["total_points"]
        report.computed += status["executed"]
        report.cache_hits += status["cache_hits"]
        report.resumed += status["resumed"]
        report.failed += status["counts"]["failed"]
        report.latencies.append(time.monotonic() - submit_time)
    report.wall_seconds = time.monotonic() - start
    # Every load run exercises the metrics path: junk output fails loudly.
    fetch_metrics(base_url, timeout=timeout)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    """Ad-hoc load against a running service (prints the report JSON)."""
    parser = argparse.ArgumentParser(
        description="Synthetic load against a running repro campaign service"
    )
    parser.add_argument("--url", required=True, help="service base URL")
    parser.add_argument("--campaigns", type=int, default=4)
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    args = parser.parse_args(argv)
    report = run_load(
        args.url,
        campaigns=args.campaigns,
        ops=args.ops,
        seed=args.seed,
        timeout=args.timeout,
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
