"""Campaign manifests: run-table style factor grids over sweep points.

A **campaign manifest** is the unit of work the campaign service accepts:
a JSON object describing a full-factorial grid (factors x levels x
replicates) that expands deterministically into
:class:`~repro.analysis.runner.SweepPoint` objects.  The same manifest
always expands to the same points in the same order, and its
content-addressed :attr:`~CampaignManifest.campaign_id` is the resume
handle: re-submitting a manifest after a crash re-runs only the points
its journal has not recorded.

Manifest schema (all fields optional except at least one factor level)::

    {
      "name": "nightly-f3",            # display label (folded into the id)
      "factors": {
        "kind":     ["sparse", "stash"],
        "ratio":    [1.0, 0.5, 0.25, 0.125],
        "workload": ["mix"],
        "cores":    [16],
        "ops":      [2000],
        "engine":   ["interp"],
        "seed":     [1]
      },
      "replicates": 3,                 # re-run the grid with shifted seeds
      "seed_stride": 1000,             # replicate r uses seed + r*stride
      "config": {"moesi": false, "dir_ways": 8},   # constant overrides
      "observe": {"epoch": 0}          # >0: sample epochs, never cached
    }

Expansion order is the canonical factor order (:data:`FACTOR_ORDER`) with
replicates and seeds innermost, so point index ``i`` refers to the same
parameterization on every host and restart.  Validation is eager and
total: unknown factors, unknown levels, malformed types and oversized
grids all raise :class:`ManifestError` before anything is scheduled.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common.config import DirectoryKind, SharerFormat
from ..common.errors import ReproError
from ..obs import ObsConfig
from ..workloads.suite import workload_names

#: Canonical factor order: the outer-to-inner nesting of the expansion.
FACTOR_ORDER: Tuple[str, ...] = (
    "kind", "ratio", "workload", "cores", "ops", "engine", "seed",
)

#: Default level list for every omitted factor.
FACTOR_DEFAULTS: Dict[str, tuple] = {
    "kind": ("stash",),
    "ratio": (0.125,),
    "workload": ("mix",),
    "cores": (16,),
    "ops": (2000,),
    "engine": ("interp",),
    "seed": (1,),
}

#: Execution engines a manifest may request.
ENGINES: Tuple[str, ...] = ("interp", "native", "vector", "parallel")

#: Constant config overrides a manifest may carry (-> make_config kwargs).
CONFIG_OVERRIDES: Tuple[str, ...] = (
    "moesi", "dir_ways", "sharer_format", "clean_notification",
    "private_l2", "discovery_filter_slots",
)

#: Hard ceiling on grid size regardless of server settings.
ABSOLUTE_MAX_POINTS = 1_000_000


class ManifestError(ReproError):
    """A campaign manifest failed validation."""


@dataclass(frozen=True)
class PointSpec:
    """One expanded grid point: its factor levels plus the runnable point.

    ``index`` is the point's stable position in the campaign (the journal
    key); ``labels`` is the JSON-able factor assignment the status API
    reports.
    """

    index: int
    labels: Dict[str, object]
    point: object  # SweepPoint (typed loosely to keep import layering thin)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _as_level_list(name: str, raw) -> tuple:
    """Normalize one factor's levels to a non-empty tuple."""
    if isinstance(raw, (str, int, float)):
        raw = [raw]
    _require(
        isinstance(raw, (list, tuple)) and len(raw) > 0,
        f"factor {name!r} must be a non-empty list of levels",
    )
    return tuple(raw)


def _validate_levels(name: str, levels: tuple) -> tuple:
    """Type- and domain-check one factor's levels; returns canonical values."""
    from ..analysis.experiments import MESH_SHAPES

    out = []
    for level in levels:
        if name == "kind":
            _require(isinstance(level, str), "kind levels must be strings")
            try:
                out.append(DirectoryKind(level).value)
            except ValueError:
                raise ManifestError(
                    f"unknown directory kind {level!r}; known: "
                    f"{[k.value for k in DirectoryKind]}"
                ) from None
        elif name == "ratio":
            _require(
                isinstance(level, (int, float)) and not isinstance(level, bool)
                and level > 0,
                f"ratio levels must be positive numbers, got {level!r}",
            )
            out.append(float(level))
        elif name == "workload":
            _require(
                isinstance(level, str) and level in workload_names(),
                f"unknown workload {level!r}; known: {workload_names()}",
            )
            out.append(level)
        elif name == "cores":
            _require(
                isinstance(level, int) and not isinstance(level, bool),
                f"cores levels must be integers, got {level!r}",
            )
            _require(
                level in MESH_SHAPES,
                f"unsupported core count {level}; supported: "
                f"{sorted(MESH_SHAPES)}",
            )
            out.append(level)
        elif name == "ops":
            _require(
                isinstance(level, int) and not isinstance(level, bool)
                and level >= 1,
                f"ops levels must be integers >= 1, got {level!r}",
            )
            out.append(level)
        elif name == "engine":
            _require(
                isinstance(level, str) and level in ENGINES,
                f"unknown engine {level!r}; known: {list(ENGINES)}",
            )
            out.append(level)
        elif name == "seed":
            _require(
                isinstance(level, int) and not isinstance(level, bool),
                f"seed levels must be integers, got {level!r}",
            )
            out.append(level)
    return tuple(out)


def _validate_overrides(raw: Dict) -> Dict[str, object]:
    """Check the constant ``config`` overrides block."""
    _require(isinstance(raw, dict), "'config' must be an object")
    out: Dict[str, object] = {}
    for key, value in raw.items():
        _require(
            key in CONFIG_OVERRIDES,
            f"unknown config override {key!r}; known: {list(CONFIG_OVERRIDES)}",
        )
        if key in ("moesi", "clean_notification", "private_l2"):
            _require(isinstance(value, bool), f"override {key!r} must be a bool")
        elif key in ("dir_ways", "discovery_filter_slots"):
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value >= 0,
                f"override {key!r} must be a non-negative integer",
            )
        elif key == "sharer_format":
            try:
                SharerFormat(value)
            except ValueError:
                raise ManifestError(
                    f"unknown sharer_format {value!r}; known: "
                    f"{[f.value for f in SharerFormat]}"
                ) from None
        out[key] = value
    return out


@dataclass(frozen=True)
class CampaignManifest:
    """A validated campaign: factor grid, replicates and constant overrides.

    Construct via :meth:`from_dict` (which validates) rather than
    directly; :meth:`to_dict` round-trips losslessly, and
    :meth:`canonical_json` / :attr:`campaign_id` are stable across
    processes and hosts for identical manifests.
    """

    name: str = "campaign"
    factors: Dict[str, tuple] = field(default_factory=dict)
    replicates: int = 1
    seed_stride: int = 1000
    config: Dict[str, object] = field(default_factory=dict)
    observe_epoch: int = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignManifest":
        """Validate and build a manifest from parsed JSON."""
        _require(isinstance(data, dict), "manifest must be a JSON object")
        known_top = {"name", "factors", "replicates", "seed_stride", "config",
                     "observe"}
        unknown = set(data) - known_top
        _require(
            not unknown,
            f"unknown manifest fields {sorted(unknown)}; known: "
            f"{sorted(known_top)}",
        )
        name = data.get("name", "campaign")
        _require(
            isinstance(name, str) and 0 < len(name) <= 128,
            "'name' must be a non-empty string (<= 128 chars)",
        )
        raw_factors = data.get("factors", {})
        _require(isinstance(raw_factors, dict), "'factors' must be an object")
        unknown_factors = set(raw_factors) - set(FACTOR_ORDER)
        _require(
            not unknown_factors,
            f"unknown factors {sorted(unknown_factors)}; known: "
            f"{list(FACTOR_ORDER)}",
        )
        factors: Dict[str, tuple] = {}
        for factor in FACTOR_ORDER:
            levels = _as_level_list(
                factor, raw_factors.get(factor, list(FACTOR_DEFAULTS[factor]))
            )
            factors[factor] = _validate_levels(factor, levels)
        replicates = data.get("replicates", 1)
        _require(
            isinstance(replicates, int) and not isinstance(replicates, bool)
            and replicates >= 1,
            "'replicates' must be an integer >= 1",
        )
        seed_stride = data.get("seed_stride", 1000)
        _require(
            isinstance(seed_stride, int) and not isinstance(seed_stride, bool)
            and seed_stride >= 1,
            "'seed_stride' must be an integer >= 1",
        )
        overrides = _validate_overrides(data.get("config", {}))
        observe = data.get("observe", {})
        _require(isinstance(observe, dict), "'observe' must be an object")
        _require(
            set(observe) <= {"epoch"},
            "'observe' supports only the 'epoch' key",
        )
        observe_epoch = observe.get("epoch", 0)
        _require(
            isinstance(observe_epoch, int) and not isinstance(observe_epoch, bool)
            and observe_epoch >= 0,
            "'observe.epoch' must be an integer >= 0",
        )
        return cls(
            name=name,
            factors=factors,
            replicates=replicates,
            seed_stride=seed_stride,
            config=overrides,
            observe_epoch=observe_epoch,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-able form; ``from_dict(to_dict(m)) == m``."""
        out: Dict[str, object] = {
            "name": self.name,
            "factors": {name: list(levels) for name, levels in self.factors.items()},
            "replicates": self.replicates,
            "seed_stride": self.seed_stride,
        }
        if self.config:
            out["config"] = dict(self.config)
        if self.observe_epoch:
            out["observe"] = {"epoch": self.observe_epoch}
        return out

    def canonical_json(self) -> str:
        """Stable (sorted-key, no-whitespace) encoding — the identity."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def campaign_id(self) -> str:
        """Content-addressed id: identical manifests resume each other."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    # -- expansion ----------------------------------------------------------

    def grid_size(self) -> int:
        """Number of points the manifest expands to (before any dedup)."""
        size = self.replicates
        for factor in FACTOR_ORDER:
            size *= len(self.factors[factor])
        return size

    def expand(self, max_points: Optional[int] = None) -> List[PointSpec]:
        """Deterministically expand the grid to runnable sweep points.

        ``max_points`` (and the hard :data:`ABSOLUTE_MAX_POINTS` ceiling)
        reject oversized grids *before* any config is built.  The order is
        total and stable: :data:`FACTOR_ORDER` outer-to-inner, then
        replicate, then seed.
        """
        from ..analysis.experiments import make_config
        from ..analysis.runner import SweepPoint

        limit = ABSOLUTE_MAX_POINTS if max_points is None else min(
            int(max_points), ABSOLUTE_MAX_POINTS
        )
        size = self.grid_size()
        if size > limit:
            raise ManifestError(
                f"campaign expands to {size} points, over the limit of {limit}"
            )
        obs = (
            ObsConfig(epoch_interval=self.observe_epoch)
            if self.observe_epoch
            else None
        )
        specs: List[PointSpec] = []
        outer = [self.factors[f] for f in FACTOR_ORDER[:-1]]  # all but seed
        for kind, ratio, workload, cores, ops, engine in itertools.product(*outer):
            for replicate in range(self.replicates):
                for base_seed in self.factors["seed"]:
                    seed = base_seed + replicate * self.seed_stride
                    config = make_config(
                        kind=DirectoryKind(kind),
                        ratio=ratio,
                        num_cores=cores,
                        seed=seed,
                        **self._make_config_kwargs(),
                    )
                    point = SweepPoint(
                        workload, config, ops, seed, obs=obs, engine=engine
                    )
                    labels = {
                        "kind": kind, "ratio": ratio, "workload": workload,
                        "cores": cores, "ops": ops, "engine": engine,
                        "seed": seed, "replicate": replicate,
                    }
                    specs.append(PointSpec(len(specs), labels, point))
        return specs

    def _make_config_kwargs(self) -> Dict[str, object]:
        kwargs = dict(self.config)
        if "sharer_format" in kwargs:
            kwargs["sharer_format"] = SharerFormat(kwargs["sharer_format"])
        return kwargs


def parse_manifest(raw: bytes) -> CampaignManifest:
    """Parse + validate raw JSON bytes (the HTTP request body path)."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    return CampaignManifest.from_dict(data)
