"""Packaged reference data: partition schemes, device profiles, model targets.

The partition schemes group CIFAR-100's 100 classes by superclass into
4, 6, or 8 subsets. Device profiles carry profiled batch-10 latencies
for four DeiT variants on four devices; no public energy figures exist
for them, so their power is zero and energy columns stay zero unless
the user supplies their own profile document. Model targets are the
measured top-k accuracies (and, for the smallest model, the confidence
quantiles) the synthetic generator can calibrate against.
"""

from __future__ import annotations

import json
from importlib import resources

from .cost import CostProfile, load_cost_profiles
from .errors import ConfigError
from .partition import PartitionMap, load_partition_map
from .trace import TraceTargets

__all__ = [
    "builtin_partition_names",
    "load_builtin_partitions",
    "load_partition_spec",
    "load_profile_spec",
    "builtin_device_profiles",
    "builtin_model_names",
    "builtin_model_targets",
]

_PARTITION_NAMES = ("cifar100-s4", "cifar100-s6", "cifar100-s8")


def _read_json(filename: str):
    path = resources.files(__package__) / "data" / filename
    return json.loads(path.read_text(encoding="utf-8"))


def builtin_partition_names() -> tuple[str, ...]:
    return _PARTITION_NAMES


def load_builtin_partitions(name: str) -> PartitionMap:
    """Load a packaged partition scheme by name (see builtin_partition_names)."""
    if name not in _PARTITION_NAMES:
        raise ConfigError(
            f"unknown builtin partition scheme {name!r}, available: {list(_PARTITION_NAMES)}"
        )
    return load_partition_map(_read_json(f"{name}.json"))


def builtin_device_profiles() -> dict[tuple[str, str], CostProfile]:
    """Packaged latency profiles keyed by (device, model)."""
    return load_cost_profiles(_read_json("device_profiles.json"))


def load_partition_spec(spec: str) -> PartitionMap:
    """Partition map named by ``builtin:<name>`` or by a partition config path."""
    if spec.startswith("builtin:"):
        return load_builtin_partitions(spec.removeprefix("builtin:"))
    return load_partition_map(spec)


def load_profile_spec(spec: str) -> dict[tuple[str, str], CostProfile]:
    """Cost profiles named by ``builtin`` or by a profile document path."""
    if spec == "builtin":
        return builtin_device_profiles()
    return load_cost_profiles(spec)


def builtin_model_names() -> tuple[str, ...]:
    return tuple(sorted(_read_json("model_zoo.json")["models"]))


def builtin_model_targets(model: str) -> TraceTargets:
    """Calibration targets for one packaged model name."""
    zoo = _read_json("model_zoo.json")["models"]
    entry = zoo.get(model)
    if entry is None:
        raise ConfigError(f"unknown builtin model {model!r}, available: {sorted(zoo)}")
    quantiles = entry.get("confidence_quantiles")
    return TraceTargets(
        topk_acc={int(k): float(v) for k, v in entry["topk_acc"].items()},
        confidence_quantiles=(
            None
            if quantiles is None
            else {float(t): float(q) for t, q in quantiles.items()}
        ),
    )
