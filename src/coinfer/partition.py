"""Dataset partition structure and expert-domain combinatorics.

A :class:`PartitionMap` assigns every class index (0-based) to exactly one
partition (1-based, matching the usual set notation {1..S}). A
:class:`DomainSet` is a canonical, ascending set of partition indices and
identifies one specialist expert. Routing needs an expert for every
possible union of partitions hit by a top-k candidate list, which
:func:`enumerate_expert_domains` enumerates in a deterministic order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, check_json, read_json

__all__ = [
    "DomainSet",
    "PartitionMap",
    "load_partition_map",
    "enumerate_expert_domains",
    "domain_of_topk",
]


@dataclass(frozen=True, order=True)
class DomainSet:
    """Canonical set of partition indices identifying one expert.

    ``indices`` is strictly increasing and non-empty, so structural
    equality is set equality and instances are usable as dict keys.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("domain set must be non-empty")
        if any(i < 1 for i in self.indices):
            raise ValueError(f"partition indices are 1-based, got {self.indices}")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"domain indices must be strictly increasing, got {self.indices}")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "DomainSet":
        """Build from any iterable, deduplicating and sorting."""
        return cls(tuple(sorted(set(int(i) for i in indices))))

    @property
    def label(self) -> str:
        """Stable human-readable identity, e.g. ``"1+3"``."""
        return "+".join(str(i) for i in self.indices)

    @classmethod
    def from_label(cls, label: str) -> "DomainSet":
        try:
            parts = [int(p) for p in label.split("+")]
        except ValueError:
            raise ValueError(f"bad domain label {label!r}") from None
        return cls.of(parts)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, partition: int) -> bool:
        return partition in self.indices

    def __str__(self) -> str:
        return self.label


class PartitionMap:
    """Total, non-overlapping assignment of classes to partitions.

    Args:
        partitions: per-partition class lists; partition ``i`` is the
            (i)-th list, 1-based.
        num_classes: total class count N; every index in [0, N) must
            appear in exactly one partition.
    """

    def __init__(self, partitions: Sequence[Sequence[int]], num_classes: int):
        if num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
        if len(partitions) < 1:
            raise ConfigError("at least one partition is required")
        assignment = np.zeros(num_classes, dtype=np.int64)  # 0 = unassigned
        for pidx, classes in enumerate(partitions, start=1):
            if len(classes) == 0:
                raise ConfigError(f"partition {pidx} is empty")
            for c in classes:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ConfigError(f"partition {pidx}: class {c!r} is not an integer")
                if not 0 <= c < num_classes:
                    raise ConfigError(
                        f"partition {pidx}: class {c} out of range [0, {num_classes})"
                    )
                if assignment[c] != 0:
                    raise ConfigError(
                        f"class {c} assigned to both partition {assignment[c]} and {pidx}"
                    )
                assignment[c] = pidx
        missing = np.flatnonzero(assignment == 0)
        if missing.size:
            raise ConfigError(f"classes not covered by any partition: {missing.tolist()}")
        self.num_classes = num_classes
        self.num_partitions = len(partitions)
        self.assignment = assignment
        self.assignment.setflags(write=False)

    def partition_of(self, class_index: int) -> int:
        """Return the unique 1-based partition containing ``class_index``."""
        if not 0 <= class_index < self.num_classes:
            raise ValueError(
                f"class index {class_index} out of range [0, {self.num_classes})"
            )
        return int(self.assignment[class_index])

    def classes_in(self, domain: DomainSet) -> np.ndarray:
        """All class indices whose partition belongs to ``domain``."""
        return np.flatnonzero(np.isin(self.assignment, domain.indices))

    def partition_sizes(self) -> list[int]:
        return [int(np.sum(self.assignment == p)) for p in range(1, self.num_partitions + 1)]

    def __repr__(self) -> str:
        return (
            f"PartitionMap(num_classes={self.num_classes}, "
            f"num_partitions={self.num_partitions})"
        )


_PARTITION_CONFIG = {"num_classes": "integer", "partitions": [["integer"]]}


def load_partition_map(source: str | Path | Mapping) -> PartitionMap:
    """Load and validate a partition config.

    ``source`` is either a path to a JSON document or the already-parsed
    mapping: ``{"num_classes": N, "partitions": [[class, ...], ...]}``.
    Every error in a document read from a file names the file.
    """
    if isinstance(source, (str, Path)):
        return read_json(source, "partition config", _parse_partition_map)
    return _parse_partition_map(source)


def _parse_partition_map(doc) -> PartitionMap:
    check_json(doc, _PARTITION_CONFIG)
    return PartitionMap(doc["partitions"], doc["num_classes"])


def enumerate_expert_domains(num_partitions: int, k: int) -> list[DomainSet]:
    """Every domain an expert library must cover for top-k routing.

    Returns all partition subsets of cardinality 1..k, ordered by
    cardinality then lexicographically; the count is
    sum(C(num_partitions, i) for i in 1..k).
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if not 1 <= k <= num_partitions:
        raise ValueError(f"k must satisfy 1 <= k <= {num_partitions}, got {k}")
    domains: list[DomainSet] = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(1, num_partitions + 1), size):
            domains.append(DomainSet(combo))
    assert len(domains) == sum(
        math.comb(num_partitions, i) for i in range(1, k + 1)
    )
    return domains


def domain_of_topk(pm: PartitionMap, topk: Sequence[int]) -> DomainSet:
    """Map a top-k class list to its expert domain.

    The domain is the deduplicated union of the partitions containing
    each candidate class; its cardinality is at most ``len(topk)``.
    """
    if len(topk) == 0:
        raise ValueError("topk must be non-empty")
    return DomainSet.of(pm.partition_of(int(c)) for c in topk)
