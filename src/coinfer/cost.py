"""Latency and energy model for collaborative batches.

Device behavior is captured by profiled (batch size, latency, energy)
knot tables measured per (device, model) pair. Evaluation is exact at
the knots, linear between them and beyond the last one, with an implied
origin knot at batch 0. Batch cost composes an edge term over the full
batch, a near-edge term over the offloaded part, and an affine
communication term.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, read_json
from .partition import DomainSet

__all__ = [
    "CostProfile",
    "CommModel",
    "BatchCost",
    "compose_batch_cost",
    "load_cost_profiles",
]

AGGREGATION_MODES = ("monolithic", "serial", "parallel")


@dataclass(frozen=True)
class CostProfile:
    """Piecewise-linear latency/energy curves for one (device, model) pair."""

    device: str
    model: str
    batches: tuple[int, ...]
    latencies_ms: tuple[float, ...]
    energies_mj: tuple[float, ...]

    def __post_init__(self):
        name = f"profile {self.device}/{self.model}"
        if not self.batches:
            raise ConfigError(f"{name}: needs at least one point")
        if len({len(self.batches), len(self.latencies_ms), len(self.energies_mj)}) != 1:
            raise ConfigError(f"{name}: point arrays have mismatched lengths")
        if any(b <= 0 or not isinstance(b, int) for b in self.batches):
            raise ConfigError(f"{name}: batch sizes must be positive integers")
        if any(b >= c for b, c in zip(self.batches, self.batches[1:])):
            raise ConfigError(f"{name}: batch sizes must be strictly increasing, got {self.batches}")
        if any(v < 0 for v in self.latencies_ms) or any(v < 0 for v in self.energies_mj):
            raise ConfigError(f"{name}: latency and energy values must be non-negative")

    def _interp(self, b: float, values: Sequence[float]) -> float:
        if b < 0:
            raise ValueError(f"batch size must be >= 0, got {b}")
        # Implied origin knot, exact knots, linear segments in between.
        xs = (0,) + self.batches
        ys = (0.0,) + tuple(values)
        if b <= xs[-1]:
            return float(np.interp(b, xs, ys))
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return ys[-1] + slope * (b - xs[-1])

    def latency_at(self, b: float) -> float:
        """Latency in ms for a batch of b samples."""
        return self._interp(b, self.latencies_ms)

    def energy_at(self, b: float) -> float:
        """Energy in mJ for a batch of b samples."""
        return self._interp(b, self.energies_mj)


@dataclass(frozen=True)
class CommModel:
    """Affine offload transfer cost: one round trip plus per-sample terms."""

    rtt_ms: float = 0.0
    per_sample_ms: float = 0.0
    per_sample_mj: float = 0.0

    def __post_init__(self):
        for field in ("rtt_ms", "per_sample_ms", "per_sample_mj"):
            if getattr(self, field) < 0:
                raise ConfigError(f"comm model {field} must be non-negative")

    def latency_ms(self, num_offloaded: int) -> float:
        if num_offloaded <= 0:
            return 0.0
        return self.rtt_ms + self.per_sample_ms * num_offloaded

    def energy_mj(self, num_offloaded: int) -> float:
        if num_offloaded <= 0:
            return 0.0
        return self.per_sample_mj * num_offloaded


@dataclass(frozen=True)
class BatchCost:
    """Latency/energy decomposition of one collaborative batch."""

    t_edge_ms: float
    t_near_ms: float
    t_comm_ms: float
    e_edge_mj: float
    e_near_mj: float
    e_comm_mj: float

    @property
    def t_total_ms(self) -> float:
        return self.t_edge_ms + self.t_near_ms + self.t_comm_ms

    @property
    def e_total_mj(self) -> float:
        return self.e_edge_mj + self.e_near_mj + self.e_comm_mj

    def __add__(self, other: "BatchCost") -> "BatchCost":
        if not isinstance(other, BatchCost):
            return NotImplemented
        return BatchCost(
            self.t_edge_ms + other.t_edge_ms,
            self.t_near_ms + other.t_near_ms,
            self.t_comm_ms + other.t_comm_ms,
            self.e_edge_mj + other.e_edge_mj,
            self.e_near_mj + other.e_near_mj,
            self.e_comm_mj + other.e_comm_mj,
        )


ZERO_COST = BatchCost(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def compose_batch_cost(
    batch_size: int,
    offload_histogram: Mapping[DomainSet, int],
    edge_profile: CostProfile | None,
    near_profile: CostProfile | None = None,
    expert_profiles: Mapping[DomainSet, CostProfile] | None = None,
    comm: CommModel = CommModel(),
    aggregation: str = "monolithic",
) -> BatchCost:
    """Cost of running one batch with the given per-domain offload counts.

    The edge term always covers the full batch (every sample runs the
    edge model first); passing ``edge_profile=None`` drops it, which the
    near-edge-only baseline uses. The near-edge term depends on the
    aggregation mode:

    * ``monolithic``: one near-edge call over all offloaded samples,
      priced by ``near_profile``
    * ``serial``: per-expert calls priced by ``expert_profiles`` and
      summed
    * ``parallel``: per-expert calls, the batch pays only the slowest
      one for latency while energy still sums (all experts do run)
    """
    if aggregation not in AGGREGATION_MODES:
        raise ConfigError(f"unknown aggregation mode {aggregation!r}, expected one of {AGGREGATION_MODES}")
    if batch_size < 0:
        raise ValueError(f"batch_size must be >= 0, got {batch_size}")
    counts = {d: int(c) for d, c in offload_histogram.items() if c}
    if any(c < 0 for c in counts.values()):
        raise ValueError("offload counts must be non-negative")
    num_off = sum(counts.values())
    if num_off > batch_size:
        raise ValueError(f"offloaded {num_off} samples exceeds batch size {batch_size}")

    t_edge = edge_profile.latency_at(batch_size) if edge_profile else 0.0
    e_edge = edge_profile.energy_at(batch_size) if edge_profile else 0.0

    if num_off == 0:
        t_near = e_near = 0.0
    elif aggregation == "monolithic":
        if near_profile is None:
            raise ConfigError("monolithic aggregation needs a near-edge profile")
        t_near = near_profile.latency_at(num_off)
        e_near = near_profile.energy_at(num_off)
    else:
        if expert_profiles is None:
            raise ConfigError(f"{aggregation} aggregation needs per-expert profiles")
        missing = [d.label for d in counts if d not in expert_profiles]
        if missing:
            raise ConfigError(f"no cost profile for routed experts: {missing}")
        lats = [expert_profiles[d].latency_at(c) for d, c in counts.items()]
        e_near = sum(expert_profiles[d].energy_at(c) for d, c in counts.items())
        t_near = sum(lats) if aggregation == "serial" else max(lats)

    return BatchCost(
        t_edge_ms=t_edge,
        t_near_ms=t_near,
        t_comm_ms=comm.latency_ms(num_off),
        e_edge_mj=e_edge,
        e_near_mj=e_near,
        e_comm_mj=comm.energy_mj(num_off),
    )


def load_cost_profiles(source: str | Path | Mapping) -> dict[tuple[str, str], CostProfile]:
    """Parse a cost profile document into profiles keyed by (device, model).

    Each point carries ``latency_ms`` and exactly one of ``energy_mj``
    or ``power_w``; power is converted at load time (mJ = W x ms).
    """
    if isinstance(source, (str, Path)):
        doc = read_json(source, "cost profile document")
    else:
        doc = source
    if not isinstance(doc, Mapping) or "profiles" not in doc:
        raise ConfigError("cost profile document must be an object with a 'profiles' list")

    out: dict[tuple[str, str], CostProfile] = {}
    for i, entry in enumerate(doc["profiles"]):
        where = f"profiles[{i}]"
        for key in ("device", "model", "points"):
            if key not in entry:
                raise ConfigError(f"{where}: missing {key!r}")
        batches, lats, energies = [], [], []
        for j, pt in enumerate(entry["points"]):
            pw = f"{where}.points[{j}]"
            if "batch" not in pt or "latency_ms" not in pt:
                raise ConfigError(f"{pw}: needs 'batch' and 'latency_ms'")
            has_e, has_p = "energy_mj" in pt, "power_w" in pt
            if has_e == has_p:
                raise ConfigError(f"{pw}: exactly one of 'energy_mj' or 'power_w' required")
            lat = float(pt["latency_ms"])
            energy = float(pt["energy_mj"]) if has_e else float(pt["power_w"]) * lat
            batches.append(pt["batch"])
            lats.append(lat)
            energies.append(energy)
        key = (entry["device"], entry["model"])
        if key in out:
            raise ConfigError(f"{where}: duplicate profile for device/model {key}")
        out[key] = CostProfile(
            device=entry["device"], model=entry["model"],
            batches=tuple(batches), latencies_ms=tuple(lats), energies_mj=tuple(energies),
        )
    if not out:
        raise ConfigError("cost profile document contains no profiles")
    return out
