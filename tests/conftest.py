"""Shared fixtures and small builders used across the test modules."""

import os
from pathlib import Path

import numpy as np
import pytest

from coinfer.partition import PartitionMap, enumerate_expert_domains
from coinfer.trace import PredictionTrace, TraceSet

# Child processes (``python -m coinfer.cli``) import the package from the same
# source tree as this process, also in a checkout without an install.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def make_partition_map(num_classes: int, num_partitions: int) -> PartitionMap:
    """Split classes round-robin so every partition is non-empty."""
    groups = [[] for _ in range(num_partitions)]
    for c in range(num_classes):
        groups[c % num_partitions].append(c)
    return PartitionMap(partitions=groups, num_classes=num_classes)


def lattice_logits(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Random logits on a coarse grid; exact float values, frequent ties."""
    return (rng.integers(-40, 41, size=(m, n)) / 8.0).astype(np.float32)


def random_trace_set(
    rng: np.random.Generator, m: int, n: int, pm: PartitionMap, k: int
) -> TraceSet:
    """Fully covered trace set with lattice logits everywhere."""
    labels = rng.integers(0, n, size=m)
    edge = PredictionTrace("edge", lattice_logits(rng, m, n), labels)
    experts = {
        dom: PredictionTrace(f"x{dom.label}", lattice_logits(rng, m, n), labels)
        for dom in enumerate_expert_domains(pm.num_partitions, k)
    }
    return TraceSet(edge=edge, experts=experts)


@pytest.fixture
def pm4() -> PartitionMap:
    return make_partition_map(12, 4)
