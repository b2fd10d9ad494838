"""Threshold-sweep runner, ROI metrics, and deterministic report emission.

The sweep evaluates collaborative inference over a list of confidence
thresholds against one trace set. Routing work that does not depend on
the threshold is computed once; each threshold then only re-applies the
gate and re-prices the batches. Reports are written as a commented CSV
plus a schema-versioned JSON, byte-identical across runs with the same
inputs and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from .cost import (
    AGGREGATION_MODES,
    BatchCost,
    CommModel,
    CostProfile,
    price_batches,
)
from .data import load_partition_spec, load_profile_spec
from .errors import ConfigError, check_json, read_json
from .partition import DomainSet, PartitionMap
from .router import RoutingPrimitives, apply_gate, compute_routing_primitives
from .trace import TraceSet, load_trace_set, topk_accuracy
from .trace import shuffle_trace_set  # noqa: F401 -- the benchmark spans it by this name

__all__ = [
    "SweepConfig",
    "SweepRow",
    "BaselineRow",
    "SweepResult",
    "roi_ratios",
    "baseline_costs",
    "run_sweep",
    "emit_report",
    "load_report",
]

SCHEMA_VERSION = 1

_BASELINE_NAMES = ("edge_only", "near_edge_only")

_PROFILE_KEY = {"device": "string", "model": "string"}
_SWEEP_CONFIG = {
    "thresholds": ["number"], "k": "integer",
    "partitions": "string", "manifest": "string", "profiles": "string",
    "edge_profile": _PROFILE_KEY, "near_profile": _PROFILE_KEY,
    "expert_profiles?": {"*": _PROFILE_KEY},
    "comm?": {"rtt_ms?": "number", "per_sample_ms?": "number", "per_sample_mj?": "number"},
    "aggregation?": "string", "batch_size?": "integer", "normalize_against?": "string",
    "seed?": "integer", "shuffle?": "boolean", "mask_to_domain?": "boolean",
}


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs, loadable from a JSON config document."""

    thresholds: tuple[float, ...]
    k: int
    partitions: str  # path or builtin:<name>
    manifest: str
    profiles: str  # path or "builtin"
    edge_profile: tuple[str, str]  # (device, model)
    near_profile: tuple[str, str]
    expert_profiles: Mapping[str, tuple[str, str]] | None = None  # domain label -> key
    comm: CommModel = CommModel()
    aggregation: str = "monolithic"
    batch_size: int = 10
    normalize_against: str = "edge_only"
    seed: int = 0
    shuffle: bool = False
    mask_to_domain: bool = False

    def __post_init__(self):
        taus = tuple(float(t) for t in self.thresholds)
        if any(not 0.0 <= t <= 1.0 for t in taus):
            raise ConfigError(f"thresholds must lie in [0,1], got {list(taus)}")
        if any(b > a for a, b in zip(taus, taus[1:])):
            raise ConfigError("thresholds must be sorted descending")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(
                f"aggregation must be one of {AGGREGATION_MODES}, got {self.aggregation!r}"
            )
        if self.normalize_against not in _BASELINE_NAMES:
            raise ConfigError(
                f"normalize_against must be one of {_BASELINE_NAMES}, "
                f"got {self.normalize_against!r}"
            )
        object.__setattr__(self, "thresholds", taus)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepConfig":
        """Load a sweep config JSON file; every error in it names the file."""
        return read_json(path, "sweep config", cls.from_mapping)

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "SweepConfig":
        # A report writes "expert_profiles": null for a sweep without them.
        if check_json(doc, "object").get("expert_profiles", {}) is None:
            doc = {key: value for key, value in doc.items() if key != "expert_profiles"}
        check_json(doc, _SWEEP_CONFIG)
        kwargs = {
            **doc,
            "thresholds": tuple(doc["thresholds"]),
            "edge_profile": _profile_key(doc["edge_profile"]),
            "near_profile": _profile_key(doc["near_profile"]),
        }
        if "expert_profiles" in doc:
            for label in doc["expert_profiles"]:
                try:
                    DomainSet.from_label(label)
                except ValueError as exc:
                    raise ConfigError(f"expert_profiles.{label}: {exc}") from None
            kwargs["expert_profiles"] = {
                label: _profile_key(key) for label, key in doc["expert_profiles"].items()
            }
        if "comm" in doc:
            kwargs["comm"] = CommModel(**{k: float(v) for k, v in doc["comm"].items()})
        return cls(**kwargs)


def _profile_key(doc: Mapping) -> tuple[str, str]:
    return (doc["device"], doc["model"])


@dataclass(frozen=True)
class SweepRow:
    """One collaborative operating point of the sweep."""

    threshold: float
    alpha: float
    accuracy: float
    offload_count: int
    histogram: Mapping[DomainSet, int]
    cost: BatchCost  # totals over the whole stream
    num_batches: int
    acc_to_latency_per_ms: float | None = None
    acc_to_energy_per_mj: float | None = None
    latency_vs_baseline: float | None = None
    energy_vs_baseline: float | None = None

    @property
    def t_per_batch_ms(self) -> float:
        return self.cost.t_total_ms / self.num_batches

    @property
    def e_per_batch_mj(self) -> float:
        return self.cost.e_total_mj / self.num_batches


@dataclass(frozen=True)
class BaselineRow:
    """Edge-Only or Near-Edge-Only reference point."""

    name: str
    alpha: float
    accuracy: float | None
    cost: BatchCost
    num_batches: int

    @property
    def t_per_batch_ms(self) -> float:
        return self.cost.t_total_ms / self.num_batches

    @property
    def e_per_batch_mj(self) -> float:
        return self.cost.e_total_mj / self.num_batches


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    num_samples: int
    num_classes: int
    baselines: Mapping[str, BaselineRow]
    rows: tuple[SweepRow, ...]


def roi_ratios(
    acc_co: float,
    acc_edge: float,
    t_co: float,
    t_edge: float,
    e_co: float,
    e_edge: float,
) -> tuple[float | None, float | None]:
    """Accuracy gained per extra ms and per extra mJ over the edge baseline.

    A non-positive denominator means the operating point is not paying
    extra cost in that dimension, so the ratio is undefined (None)
    rather than an error.
    """
    dt, de = t_co - t_edge, e_co - e_edge
    dacc = acc_co - acc_edge
    return (
        dacc / dt if dt > 0 else None,
        dacc / de if de > 0 else None,
    )


def _batch_sizes(num_samples: int, batch_size: int) -> np.ndarray:
    """Consecutive batches of ``batch_size`` samples; the last may be short."""
    return np.minimum(batch_size, num_samples - np.arange(0, num_samples, batch_size))


def _resolve_profile(
    profiles: Mapping[tuple[str, str], CostProfile], key: tuple[str, str], what: str
) -> CostProfile:
    profile = profiles.get(key)
    if profile is None:
        raise ConfigError(f"{what} profile {key[0]}/{key[1]} not found in the profile document")
    return profile


def _expert_profile_map(
    cfg: SweepConfig, profiles: Mapping[tuple[str, str], CostProfile]
) -> dict[DomainSet, CostProfile] | None:
    if cfg.expert_profiles is None:
        return None
    return {
        DomainSet.from_label(label): _resolve_profile(profiles, key, f"expert {label}")
        for label, key in cfg.expert_profiles.items()
    }


def baseline_costs(
    cfg: SweepConfig,
    ts: TraceSet,
    profiles: Mapping[tuple[str, str], CostProfile],
    primitives: RoutingPrimitives | None = None,
    labels: np.ndarray | None = None,
) -> dict[str, BaselineRow]:
    """Edge-Only (nothing offloaded) and Near-Edge-Only (everything) rows.

    Edge-Only accuracy compares ``primitives.local_predictions``, when
    given, to ``labels`` in their order (default: the trace set's), else
    comes from the edge trace. Near-Edge-Only accuracy comes from the
    trace set's near-edge generalist entry when present, else it is left
    undefined; its cost charges the near profile plus communication for
    every sample, with no edge term.
    """
    edge_prof = _resolve_profile(profiles, cfg.edge_profile, "edge")
    near_prof = _resolve_profile(profiles, cfg.near_profile, "near-edge")
    sizes = _batch_sizes(ts.num_samples, cfg.batch_size)

    edge_total = price_batches(sizes, np.zeros((len(sizes), 0)), (), edge_prof)
    near_total = price_batches(
        sizes, sizes[:, None], (DomainSet.of([1]),), None, near_profile=near_prof, comm=cfg.comm
    )
    if primitives is None:
        edge_acc = topk_accuracy(ts.edge, 1)
    else:
        labels = ts.labels if labels is None else labels
        edge_acc = float((primitives.local_predictions == labels).sum()) / ts.num_samples
    near_acc = (
        topk_accuracy(ts.near_generalist, 1) if ts.near_generalist is not None else None
    )
    n = len(sizes)
    return {
        "edge_only": BaselineRow(
            name="edge_only",
            alpha=0.0,
            accuracy=edge_acc,
            cost=edge_total,
            num_batches=n,
        ),
        "near_edge_only": BaselineRow(
            name="near_edge_only",
            alpha=1.0,
            accuracy=near_acc,
            cost=near_total,
            num_batches=n,
        ),
    }


def run_sweep(
    cfg: SweepConfig,
    ts: TraceSet | None = None,
    pm: PartitionMap | None = None,
    profiles: Mapping[tuple[str, str], CostProfile] | None = None,
) -> SweepResult:
    """Evaluate every configured threshold and price the realized offloads.

    ``ts``, ``pm``, and ``profiles`` may be passed pre-loaded (tests,
    library callers); otherwise they are loaded from the config paths.
    ``builtin:<name>`` partition specs and ``profiles="builtin"`` pull
    packaged data.
    """
    if pm is None:
        pm = load_partition_spec(cfg.partitions)
    if ts is None:
        ts = load_trace_set(cfg.manifest, pm, cfg.k)
    if profiles is None:
        profiles = load_profile_spec(cfg.profiles)

    _resolve_profile(profiles, cfg.edge_profile, "edge")  # fail before routing
    near_prof = _resolve_profile(profiles, cfg.near_profile, "near-edge")
    expert_profs = _expert_profile_map(cfg, profiles)
    if cfg.aggregation != "monolithic" and expert_profs is None:
        raise ConfigError(f"{cfg.aggregation} aggregation needs expert_profiles in the config")

    order = np.random.default_rng(cfg.seed).permutation(ts.num_samples) if cfg.shuffle else None
    primitives = compute_routing_primitives(ts, pm, cfg.k, cfg.mask_to_domain, order=order)
    labels = ts.labels if order is None else ts.labels[order]
    baselines = baseline_costs(cfg, ts, profiles, primitives, labels)
    base = baselines[cfg.normalize_against]
    edge_base = baselines["edge_only"]
    sizes = _batch_sizes(ts.num_samples, cfg.batch_size)
    # Each sample's cell in the (batch, domain) count matrix of a threshold.
    num_domains = len(primitives.domain_table)
    cells = np.arange(ts.num_samples) // cfg.batch_size * num_domains + primitives.codes

    rows = []
    for tau in cfg.thresholds:
        outcome = apply_gate(primitives, labels, tau)
        counts = np.bincount(cells[outcome.offloaded], minlength=len(sizes) * num_domains)
        offload_cost = price_batches(
            sizes, counts, primitives.domain_table, None,
            near_profile=near_prof,
            expert_profiles=expert_profs,
            comm=cfg.comm,
            aggregation=cfg.aggregation,
        )
        # The edge term is the Edge-Only baseline's: every sample runs the edge model.
        total = replace(
            offload_cost, t_edge_ms=edge_base.cost.t_edge_ms, e_edge_mj=edge_base.cost.e_edge_mj
        )

        lat_roi, en_roi = roi_ratios(
            outcome.accuracy, edge_base.accuracy,
            total.t_total_ms, edge_base.cost.t_total_ms,
            total.e_total_mj, edge_base.cost.e_total_mj,
        )
        rows.append(
            SweepRow(
                threshold=tau,
                alpha=outcome.offload_proportion,
                accuracy=outcome.accuracy,
                offload_count=outcome.offload_count,
                histogram=dict(outcome.histogram),
                cost=total,
                num_batches=len(sizes),
                acc_to_latency_per_ms=lat_roi,
                acc_to_energy_per_mj=en_roi,
                latency_vs_baseline=(
                    total.t_total_ms / base.cost.t_total_ms
                    if base.cost.t_total_ms > 0 else None
                ),
                energy_vs_baseline=(
                    total.e_total_mj / base.cost.e_total_mj
                    if base.cost.e_total_mj > 0 else None
                ),
            )
        )

    return SweepResult(
        config=cfg,
        num_samples=ts.num_samples,
        num_classes=ts.num_classes,
        baselines=baselines,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _fmt(value: float | int | None) -> str:
    """Fixed 6-significant-digit rendering; None becomes an empty field."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _num(value: float | int | None):
    if value is None or isinstance(value, int):
        return value
    return float(f"{value:.6g}")


def _hist_str(hist: Mapping[DomainSet, int]) -> str:
    return ";".join(f"{d.label}:{hist[d]}" for d in sorted(hist))


_COST_FIELDS = (
    "t_edge_ms", "t_near_ms", "t_comm_ms", "t_total_ms",
    "e_edge_mj", "e_near_mj", "e_comm_mj", "e_total_mj",
)

# Per-threshold report fields in CSV column order, each with the SweepRow
# attribute it reads. The JSON report nests the cost terms as "cost",
# preceded by "num_batches", which the CSV leaves out.
_ROW_FIELDS = (
    ("tau", "threshold"),
    ("alpha", "alpha"),
    ("accuracy", "accuracy"),
    ("offload_count", "offload_count"),
    *((name, f"cost.{name}") for name in _COST_FIELDS),
    ("t_per_batch_ms", "t_per_batch_ms"),
    ("e_per_batch_mj", "e_per_batch_mj"),
    ("acc_to_latency_per_ms", "acc_to_latency_per_ms"),
    ("acc_to_energy_per_mj", "acc_to_energy_per_mj"),
    ("latency_vs_baseline", "latency_vs_baseline"),
    ("energy_vs_baseline", "energy_vs_baseline"),
    ("offload_histogram", "histogram"),
)


def _row_fields(row: SweepRow) -> dict:
    """One sweep row's report fields, unformatted, in CSV column order."""
    return {name: attrgetter(attr)(row) for name, attr in _ROW_FIELDS}


def _csv_row(row: SweepRow) -> str:
    return ",".join(
        _hist_str(value) if name == "offload_histogram" else _fmt(value)
        for name, value in _row_fields(row).items()
    )


def _cost_obj(cost: BatchCost) -> dict:
    return {name: _num(getattr(cost, name)) for name in _COST_FIELDS}


def _json_row(row: SweepRow) -> dict:
    """The JSON report's row: :func:`_row_fields` with the cost terms nested."""
    doc: dict = {}
    for name, value in _row_fields(row).items():
        if name in _COST_FIELDS:
            if "cost" not in doc:
                doc["num_batches"] = row.num_batches
                doc["cost"] = _cost_obj(row.cost)
        elif name == "offload_histogram":
            doc[name] = {d.label: value[d] for d in sorted(value)}
        else:
            doc[name] = _num(value)
    return doc


def _baseline_comment(name: str, row: BaselineRow) -> str:
    return (
        f"# baseline {name}: alpha={_fmt(row.alpha)} accuracy={_fmt(row.accuracy)}"
        f" t_total_ms={_fmt(row.cost.t_total_ms)} e_total_mj={_fmt(row.cost.e_total_mj)}"
        f" t_per_batch_ms={_fmt(row.t_per_batch_ms)} e_per_batch_mj={_fmt(row.e_per_batch_mj)}"
    )


def emit_report(result: SweepResult, out_base: str | Path) -> tuple[Path, Path]:
    """Write <base>.csv and <base>.json; returns both paths.

    Output is a pure function of the result: no timestamps, fixed key
    and column order, floats at 6 significant digits.
    """
    out_base = Path(out_base)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out_base.with_suffix(".csv")
    json_path = out_base.with_suffix(".json")
    cfg = result.config

    lines = [
        "# collaborative inference threshold sweep",
        f"# samples={result.num_samples} classes={result.num_classes} "
        f"k={cfg.k} batch_size={cfg.batch_size} aggregation={cfg.aggregation} "
        f"seed={cfg.seed}",
        f"# normalized columns divide by the {cfg.normalize_against} baseline",
    ]
    for name in _BASELINE_NAMES:
        lines.append(_baseline_comment(name, result.baselines[name]))
    lines.append(",".join(name for name, _ in _ROW_FIELDS))
    lines.extend(_csv_row(row) for row in result.rows)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "thresholds": [_num(t) for t in cfg.thresholds],
            "k": cfg.k,
            "partitions": cfg.partitions,
            "manifest": cfg.manifest,
            "profiles": cfg.profiles,
            "edge_profile": {"device": cfg.edge_profile[0], "model": cfg.edge_profile[1]},
            "near_profile": {"device": cfg.near_profile[0], "model": cfg.near_profile[1]},
            "expert_profiles": (
                None
                if cfg.expert_profiles is None
                else {
                    label: {"device": key[0], "model": key[1]}
                    for label, key in sorted(cfg.expert_profiles.items())
                }
            ),
            "comm": {
                "rtt_ms": _num(cfg.comm.rtt_ms),
                "per_sample_ms": _num(cfg.comm.per_sample_ms),
                "per_sample_mj": _num(cfg.comm.per_sample_mj),
            },
            "aggregation": cfg.aggregation,
            "batch_size": cfg.batch_size,
            "normalize_against": cfg.normalize_against,
            "seed": cfg.seed,
            "shuffle": cfg.shuffle,
            "mask_to_domain": cfg.mask_to_domain,
        },
        "num_samples": result.num_samples,
        "num_classes": result.num_classes,
        "baselines": {
            name: {
                "alpha": _num(row.alpha),
                "accuracy": _num(row.accuracy),
                "num_batches": row.num_batches,
                "cost": _cost_obj(row.cost),
                "t_per_batch_ms": _num(row.t_per_batch_ms),
                "e_per_batch_mj": _num(row.e_per_batch_mj),
            }
            for name, row in sorted(result.baselines.items())
        },
        "rows": [_json_row(row) for row in result.rows],
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return csv_path, json_path


def load_report(json_path: str | Path) -> dict:
    """Read back an emitted JSON report, checking the schema version."""
    return read_json(json_path, "report", _check_report)


def _check_report(doc) -> dict:
    version = check_json(doc, "object").get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"report schema version {version!r} is not {SCHEMA_VERSION}")
    return doc
