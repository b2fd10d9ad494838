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
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, check_json, read_json
from .partition import DomainSet

__all__ = [
    "CostProfile",
    "CommModel",
    "BatchCost",
    "compose_batch_cost",
    "price_batches",
    "load_cost_profiles",
]

AGGREGATION_MODES = ("monolithic", "serial", "parallel")


def _float_if_scalar(query, values: np.ndarray):
    """``values`` as a Python float when ``query`` was a scalar."""
    return float(values) if np.ndim(query) == 0 else values


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
        if any(not isinstance(b, int) or b <= 0 for b in self.batches):
            raise ConfigError(f"{name}: batch sizes must be positive integers")
        if any(b >= c for b, c in zip(self.batches, self.batches[1:])):
            raise ConfigError(f"{name}: batch sizes must be strictly increasing, got {self.batches}")
        if any(v < 0 for v in self.latencies_ms) or any(v < 0 for v in self.energies_mj):
            raise ConfigError(f"{name}: latency and energy values must be non-negative")

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch sizes, latencies and energies, each with the implied origin knot."""
        return (
            np.array((0,) + self.batches, dtype=np.float64),
            np.array((0.0,) + self.latencies_ms),
            np.array((0.0,) + self.energies_mj),
        )

    def _interp(self, b, ys: np.ndarray):
        batch = np.asarray(b, dtype=np.float64)
        if batch.size and batch.min() < 0:
            raise ValueError(f"batch size must be >= 0, got {batch.min()}")
        # Exact at the knots, linear in between, the last segment extended.
        xs = self._knots[0]
        out = np.interp(batch, xs, ys)
        beyond = batch > xs[-1]
        if beyond.any():
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            out = np.where(beyond, ys[-1] + slope * (batch - xs[-1]), out)
        return _float_if_scalar(b, out)

    def latency_at(self, b):
        """Latency in ms for a batch of b samples (elementwise for an array)."""
        return self._interp(b, self._knots[1])

    def energy_at(self, b):
        """Energy in mJ for a batch of b samples (elementwise for an array)."""
        return self._interp(b, self._knots[2])


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

    def latency_ms(self, num_offloaded):
        """Transfer latency in ms (elementwise for an array of counts)."""
        n = np.asarray(num_offloaded)
        return _float_if_scalar(
            num_offloaded, np.where(n > 0, self.rtt_ms + self.per_sample_ms * n, 0.0)
        )

    def energy_mj(self, num_offloaded):
        """Transfer energy in mJ (elementwise for an array of counts)."""
        n = np.asarray(num_offloaded)
        return _float_if_scalar(num_offloaded, np.where(n > 0, self.per_sample_mj * n, 0.0))


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


def price_batches(
    batch_sizes: np.ndarray,
    offload_counts: np.ndarray,
    domains: Sequence[DomainSet],
    edge_profile: CostProfile | None,
    near_profile: CostProfile | None = None,
    expert_profiles: Mapping[DomainSet, CostProfile] | None = None,
    comm: CommModel = CommModel(),
    aggregation: str = "monolithic",
) -> BatchCost:
    """Total cost of a stream of batches, each priced on its own.

    ``offload_counts[b, j]`` is how many samples of batch b were
    offloaded to ``domains[j]``. Every term is summed over the batches
    in batch order. The edge term always covers the full batch (every
    sample runs the edge model first); passing ``edge_profile=None``
    drops it, which the near-edge-only baseline uses. The near-edge term
    depends on the aggregation mode:

    * ``monolithic``: one near-edge call over all offloaded samples,
      priced by ``near_profile``
    * ``serial``: per-expert calls priced by ``expert_profiles`` and
      summed
    * ``parallel``: per-expert calls, the batch pays only the slowest
      one for latency while energy still sums (all experts do run)
    """
    if aggregation not in AGGREGATION_MODES:
        raise ConfigError(f"unknown aggregation mode {aggregation!r}, expected one of {AGGREGATION_MODES}")
    sizes = np.asarray(batch_sizes, dtype=np.int64)
    counts = np.asarray(offload_counts, dtype=np.int64).reshape(len(sizes), len(domains))
    if (sizes < 0).any():
        raise ValueError(f"batch_size must be >= 0, got {sizes.min()}")
    if (counts < 0).any():
        raise ValueError("offload counts must be non-negative")
    num_off = counts.sum(axis=1)
    over = np.flatnonzero(num_off > sizes)
    if over.size:
        b = over[0]
        raise ValueError(f"offloaded {num_off[b]} samples exceeds batch size {sizes[b]}")

    zero = np.zeros(len(sizes))
    t_edge = edge_profile.latency_at(sizes) if edge_profile else zero
    e_edge = edge_profile.energy_at(sizes) if edge_profile else zero

    used = np.flatnonzero(counts.any(axis=0))
    if used.size == 0:
        t_near = e_near = zero
    elif aggregation == "monolithic":
        if near_profile is None:
            raise ConfigError("monolithic aggregation needs a near-edge profile")
        t_near = near_profile.latency_at(num_off)
        e_near = near_profile.energy_at(num_off)
    else:
        if expert_profiles is None:
            raise ConfigError(f"{aggregation} aggregation needs per-expert profiles")
        missing = [domains[j].label for j in used if domains[j] not in expert_profiles]
        if missing:
            raise ConfigError(f"no cost profile for routed experts: {missing}")
        # Price the columns that share a profile in one call each.
        columns: dict[CostProfile, list[int]] = {}
        for j in used.tolist():
            columns.setdefault(expert_profiles[domains[j]], []).append(j)
        lats = np.zeros(counts.shape)
        energies = np.zeros(counts.shape)
        for prof, cols in columns.items():
            lats[:, cols] = prof.latency_at(counts[:, cols])
            energies[:, cols] = prof.energy_at(counts[:, cols])
        e_near = np.cumsum(energies, axis=1)[:, -1]
        t_near = np.cumsum(lats, axis=1)[:, -1] if aggregation == "serial" else lats.max(axis=1)

    terms = np.stack(
        [t_edge, t_near, comm.latency_ms(num_off), e_edge, e_near, comm.energy_mj(num_off)]
    )
    # Summed left to right in batch order, as adding up one batch at a time does.
    totals = np.cumsum(terms, axis=1)[:, -1] if len(sizes) else np.zeros(len(terms))
    return BatchCost(*totals.tolist())


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

    The one-batch case of :func:`price_batches`, which documents the
    terms and aggregation modes.
    """
    domains = list(offload_histogram)
    counts = [[int(offload_histogram[d]) for d in domains]]
    return price_batches(
        [batch_size], counts, domains, edge_profile,
        near_profile=near_profile, expert_profiles=expert_profiles,
        comm=comm, aggregation=aggregation,
    )


_POINT = {"batch": "integer", "latency_ms": "number", "energy_mj?": "number", "power_w?": "number"}
_COST_PROFILES = {"profiles": [{"device": "string", "model": "string", "points": [_POINT]}]}


def load_cost_profiles(source: str | Path | Mapping) -> dict[tuple[str, str], CostProfile]:
    """Parse a cost profile document into profiles keyed by (device, model).

    Each point carries ``latency_ms`` and exactly one of ``energy_mj``
    or ``power_w``; power is converted at load time (mJ = W x ms). Every
    error in a document read from a file names the file.
    """
    if isinstance(source, (str, Path)):
        return read_json(source, "cost profile document", _parse_cost_profiles)
    return _parse_cost_profiles(source)


def _parse_cost_profiles(doc) -> dict[tuple[str, str], CostProfile]:
    check_json(doc, _COST_PROFILES)
    out: dict[tuple[str, str], CostProfile] = {}
    for i, entry in enumerate(doc["profiles"]):
        points = entry["points"]
        for j, pt in enumerate(points):
            if ("energy_mj" in pt) == ("power_w" in pt):
                raise ConfigError(
                    f"profiles[{i}].points[{j}]: exactly one of 'energy_mj' or 'power_w' required"
                )
        key = (entry["device"], entry["model"])
        if key in out:
            raise ConfigError(f"profiles[{i}]: duplicate profile for device/model {key}")
        lats = tuple(float(pt["latency_ms"]) for pt in points)
        out[key] = CostProfile(
            device=entry["device"], model=entry["model"],
            batches=tuple(pt["batch"] for pt in points),
            latencies_ms=lats,
            energies_mj=tuple(
                float(pt["energy_mj"]) if "energy_mj" in pt else float(pt["power_w"]) * lat
                for pt, lat in zip(points, lats)
            ),
        )
    if not out:
        raise ConfigError("cost profile document contains no profiles")
    return out
