"""Confidence-gated top-k routing and collaborative inference.

Each sample runs the edge generalist first. If the maximum softmax
probability clears the threshold, the edge argmax is final. Otherwise
the top-k classes are mapped through the partition map to a domain,
and the expert covering exactly that domain re-predicts the sample over
the full label space.

The gate threshold only selects between two per-sample outcomes that do
not themselves depend on it, so :class:`RoutingPrimitives` precomputes
both once per trace set and sweeps reuse them across thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import CoinferError
from .partition import DomainSet, PartitionMap
from .trace import PredictionTrace, TraceSet, softmax_and_confidence, topk_matrix

__all__ = [
    "RoutingPrimitives",
    "CollabOutcome",
    "gate_signals",
    "compute_routing_primitives",
    "apply_gate",
    "collaborative_infer",
    "offload_proportion_curve",
]


def check_threshold(threshold: float):
    """Reject a confidence threshold outside [0, 1] with ValueError."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"confidence threshold must lie in [0,1], got {threshold}")


def _check_gate_params(threshold: float, k: int, num_classes: int):
    check_threshold(threshold)
    if not (isinstance(k, int) and 1 <= k <= num_classes):
        raise ValueError(f"k must be an integer in [1, {num_classes}], got {k!r}")


def expert_argmax(logits: np.ndarray, allowed: np.ndarray | None = None) -> np.ndarray:
    """Expert prediction for each row of ``logits`` (or for one 1-D row).

    By default the argmax over the full label space (experts are
    specialized by training, not by output masking). Given ``allowed``,
    the class indices of the routed domain (``pm.classes_in(domain)``),
    the argmax is restricted to them.
    """
    if allowed is None:
        return logits.argmax(axis=-1)
    return allowed[logits[..., allowed].argmax(axis=-1)]


@dataclass(frozen=True, eq=False)
class RoutingPrimitives:
    """Threshold-independent per-sample routing state.

    ``domain_table[codes[i]]`` is where sample i would be routed if
    offloaded and ``refined[i]`` the expert prediction it would receive;
    the gate only chooses between ``local_predictions[i]`` and
    ``refined[i]``.
    """

    k: int
    confidences: np.ndarray  # (M,) float64 max softmax probability
    local_predictions: np.ndarray  # (M,) int64 edge argmax
    topk: np.ndarray  # (M, k) int64
    codes: np.ndarray  # (M,) int64 index into domain_table
    domain_table: tuple[DomainSet, ...]  # each routed domain once
    refined: np.ndarray  # (M,) int64 expert prediction per sample

    @property
    def num_samples(self) -> int:
        return self.confidences.shape[0]

    @cached_property
    def domains(self) -> tuple[DomainSet, ...]:
        """Each sample's routed domain, gathered once from the table."""
        return tuple(map(self.domain_table.__getitem__, self.codes.tolist()))


def gate_signals(
    edge_trace: PredictionTrace, pm: PartitionMap, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[DomainSet, ...]]:
    """Edge-side routing signals: confidences, argmax, top-k, domain codes.

    Sample i routes to ``table[codes[i]]``; the returned ``table`` lists
    each routed domain once. Needs no expert traces, so the network
    client can run it locally and leave refinement to the server.
    """
    _check_gate_params(0.0, k, edge_trace.num_classes)
    probs, conf = softmax_and_confidence(edge_trace.logits)
    top = topk_matrix(probs, k).astype(np.int64, copy=False)
    local_pred = top[:, 0].copy()

    # One canonical row per domain: its partitions ascending, with repeats
    # zeroed and moved to the front.
    parts = np.sort(pm.assignment[top], axis=1)
    parts[:, 1:][parts[:, 1:] == parts[:, :-1]] = 0
    parts.sort(axis=1)
    # Number the distinct rows a column at a time. Renumbering after each
    # column keeps every code below M, so the codes cannot overflow.
    codes = np.zeros(len(parts), dtype=np.int64)
    for column in parts.T:
        _, first, codes = np.unique(
            codes * (pm.num_partitions + 1) + column, return_index=True, return_inverse=True
        )
    table = tuple(DomainSet(tuple(p for p in row if p)) for row in parts[first].tolist())
    return conf, local_pred, top, codes, table


def compute_routing_primitives(
    ts: TraceSet, pm: PartitionMap, k: int, mask_to_domain: bool = False,
    *, order: np.ndarray | None = None,
) -> RoutingPrimitives:
    """Evaluate each sample's local and offloaded outcome once; sample i is row ``order[i]``."""
    ts.validate_for(pm, k)
    conf, local_pred, top, codes, table = gate_signals(ts.edge, pm, k)
    by_code = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=len(table)))

    refined = np.empty(ts.num_samples, dtype=np.int64)
    for dom, rows in zip(table, np.split(by_code, ends[:-1])):
        expert = ts.experts.get(dom)
        if expert is None:
            raise CoinferError(f"no expert trace for routed domain {dom.label}")
        allowed = pm.classes_in(dom) if mask_to_domain else None
        refined[rows] = expert_argmax(expert.logits[rows], allowed)

    keep = slice(None) if order is None else order
    return RoutingPrimitives(
        k=k,
        confidences=conf[keep],
        local_predictions=local_pred[keep],
        topk=top[keep],
        codes=codes[keep],
        domain_table=table,
        refined=refined[keep],
    )


@dataclass(frozen=True, eq=False)
class CollabOutcome:
    """Result of collaborative inference over one trace set at one threshold."""

    threshold: float
    k: int
    predictions: np.ndarray  # (M,) int64 final prediction per sample
    offloaded: np.ndarray  # (M,) bool
    confidences: np.ndarray  # (M,) float64
    topk: np.ndarray  # (M, k) int64
    domains: tuple[DomainSet, ...]
    accuracy: float
    offload_count: int
    offload_proportion: float
    histogram: Mapping[DomainSet, int]  # offloads per routed domain


def apply_gate(
    primitives: RoutingPrimitives, labels: np.ndarray, threshold: float
) -> CollabOutcome:
    """Select each sample's outcome by the confidence gate (conf >= tau stays local)."""
    check_threshold(threshold)
    offloaded = primitives.confidences < threshold
    predictions = np.where(offloaded, primitives.refined, primitives.local_predictions)
    m = primitives.num_samples
    count = int(offloaded.sum())
    table = primitives.domain_table
    counts = np.bincount(primitives.codes[offloaded], minlength=len(table))
    hist = {table[c]: int(counts[c]) for c in np.flatnonzero(counts)}
    return CollabOutcome(
        threshold=threshold,
        k=primitives.k,
        predictions=predictions,
        offloaded=offloaded,
        confidences=primitives.confidences,
        topk=primitives.topk,
        domains=primitives.domains,
        accuracy=float((predictions == labels).sum()) / m,
        offload_count=count,
        offload_proportion=count / m,
        histogram=hist,
    )


def collaborative_infer(
    ts: TraceSet,
    pm: PartitionMap,
    threshold: float,
    k: int,
    mask_to_domain: bool = False,
    primitives: RoutingPrimitives | None = None,
) -> CollabOutcome:
    """Run the full collaborative pipeline over a trace set.

    ``primitives`` may carry the cached threshold-independent state from
    :func:`compute_routing_primitives` when sweeping many thresholds.
    """
    _check_gate_params(threshold, k, ts.num_classes)
    if primitives is None:
        primitives = compute_routing_primitives(ts, pm, k, mask_to_domain)
    elif primitives.k != k:
        raise ValueError(f"cached primitives were built for k={primitives.k}, not k={k}")
    return apply_gate(primitives, ts.labels, threshold)


def offload_proportion_curve(
    edge_trace: PredictionTrace, thresholds: Sequence[float]
) -> list[tuple[float, float]]:
    """Exact offload proportion (fraction with conf < tau) per threshold."""
    for t in thresholds:
        check_threshold(t)
    conf = softmax_and_confidence(edge_trace.logits)[1]
    m = edge_trace.num_samples
    return [(float(t), float((conf < t).sum()) / m) for t in thresholds]
