"""Trace-driven collaborative inference between edge and near-edge devices.

The package routes each sample through a confidence gate on a small
edge model; uncertain samples carry their top-k predictions to a
near-edge expert library for refinement. It ships the routing engine,
the latency/energy cost model, the progressive specialist weighting
math, a calibrated synthetic trace generator, a binary client/server
pair, and a deterministic threshold-sweep harness.
"""

from .cost import (
    BatchCost,
    CommModel,
    CostProfile,
    compose_batch_cost,
    load_cost_profiles,
)
from .errors import CoinferError, ConfigError, ProtocolError, TransportError
from .harness import (
    SweepConfig,
    SweepResult,
    baseline_costs,
    emit_report,
    load_report,
    roi_ratios,
    run_sweep,
)
from .partition import (
    DomainSet,
    PartitionMap,
    domain_of_topk,
    enumerate_expert_domains,
    load_partition_map,
)
from .router import (
    CollabOutcome,
    collaborative_infer,
    compute_routing_primitives,
    offload_proportion_curve,
)
from .schedule import (
    DistillBatch,
    WeightSchedule,
    hard_teacher_label,
    weighted_distill_loss,
)
from .trace import (
    PredictionTrace,
    TraceSet,
    TraceTargets,
    load_trace_set,
    recall_gap,
    synthesize_trace,
    synthesize_trace_set,
    topk_accuracy,
    write_trace_set,
)
from .wire import (
    ErrorMsg,
    NearEdgeServer,
    OffloadRequest,
    OffloadResponse,
    decode,
    encode,
    run_edge_client,
)

__version__ = "0.1.0"

__all__ = [
    "BatchCost",
    "CollabOutcome",
    "CommModel",
    "CoinferError",
    "ConfigError",
    "CostProfile",
    "DistillBatch",
    "DomainSet",
    "ErrorMsg",
    "NearEdgeServer",
    "OffloadRequest",
    "OffloadResponse",
    "PartitionMap",
    "PredictionTrace",
    "ProtocolError",
    "SweepConfig",
    "SweepResult",
    "TraceSet",
    "TraceTargets",
    "TransportError",
    "WeightSchedule",
    "baseline_costs",
    "collaborative_infer",
    "compose_batch_cost",
    "compute_routing_primitives",
    "decode",
    "domain_of_topk",
    "emit_report",
    "encode",
    "enumerate_expert_domains",
    "hard_teacher_label",
    "load_cost_profiles",
    "load_partition_map",
    "load_report",
    "load_trace_set",
    "offload_proportion_curve",
    "recall_gap",
    "roi_ratios",
    "run_edge_client",
    "run_sweep",
    "synthesize_trace",
    "synthesize_trace_set",
    "topk_accuracy",
    "weighted_distill_loss",
    "write_trace_set",
]
