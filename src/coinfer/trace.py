"""Prediction traces: logit matrices standing in for deployed models.

A :class:`PredictionTrace` holds an M x N float32 logit matrix plus the
shared length-M label vector, and is the unit the router, server, and
sweep harness consume. A :class:`TraceSet` bundles the edge generalist
trace with one expert trace per routable domain.

Binary layout (little-endian, bit-exact, no trailing bytes):

* labels file: M uint32 values
* logits file: M*N float32 values, row-major

The synthetic generator exists so the pipeline can be exercised at desk
scale with controlled top-k accuracy and confidence marginals; its row
construction is documented in :func:`synthesize_trace` precisely enough
to reimplement.
"""

from __future__ import annotations

import json
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, check_json, read_json
from .partition import DomainSet, PartitionMap, enumerate_expert_domains

__all__ = [
    "PredictionTrace",
    "TraceSet",
    "TraceTargets",
    "softmax_matrix",
    "topk_accuracy",
    "recall_gap",
    "synthesize_trace",
    "synthesize_expert_trace",
    "synthesize_trace_set",
    "load_trace_set",
    "write_trace_set",
]

# Rows are generated in fixed-size chunks so peak memory stays bounded
# without affecting the draw sequence (the chunk size is part of the
# documented generator contract).
_SYNTH_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class PredictionTrace:
    """Per-model logits over a labeled evaluation set."""

    model_name: str
    logits: np.ndarray  # (M, N) float32
    labels: np.ndarray  # (M,) integer class indices

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float32)
        labels = np.asarray(self.labels)
        if logits.ndim != 2:
            raise ConfigError(f"{self.model_name}: logits must be 2-D, got {logits.ndim}-D")
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ConfigError(
                f"{self.model_name}: labels length {labels.shape} does not match "
                f"logit rows {logits.shape[0]}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ConfigError(f"{self.model_name}: labels must be integers")
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
            bad = int(np.flatnonzero((labels < 0) | (labels >= logits.shape[1]))[0])
            raise ConfigError(
                f"{self.model_name}: label {int(labels[bad])} at row {bad} out of "
                f"range [0, {logits.shape[1]})"
            )
        if not np.isfinite(logits).all():
            # Element index and byte offset in the row-major float32 logits file layout.
            flat = int(np.flatnonzero(~np.isfinite(logits).ravel())[0])
            raise ConfigError(
                f"{self.model_name}: non-finite logit at row {flat // logits.shape[1]}, "
                f"column {flat % logits.shape[1]} (element {flat}, byte offset {flat * 4})"
            )
        logits.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]


@dataclass(frozen=True)
class TraceSet:
    """Edge trace plus one expert trace per domain, over one sample set.

    ``near_generalist`` optionally carries a generalist model trace for
    the near-edge device, used only by the Near-Edge-Only baseline.
    """

    edge: PredictionTrace
    experts: Mapping[DomainSet, PredictionTrace]
    near_generalist: PredictionTrace | None = None

    def __post_init__(self):
        ref = self.edge
        members = list(self.experts.items())
        for domain, trace in members:
            self._check_member(str(domain), trace, ref)
        if self.near_generalist is not None:
            self._check_member("near_generalist", self.near_generalist, ref)

    @staticmethod
    def _check_member(name: str, trace: PredictionTrace, ref: PredictionTrace):
        if trace.logits.shape != ref.logits.shape:
            raise ConfigError(
                f"trace {name!r} shape {trace.logits.shape} differs from edge "
                f"shape {ref.logits.shape}"
            )
        if not np.array_equal(trace.labels, ref.labels):
            raise ConfigError(f"trace {name!r} labels differ from edge labels")

    @property
    def num_samples(self) -> int:
        return self.edge.num_samples

    @property
    def num_classes(self) -> int:
        return self.edge.num_classes

    @property
    def labels(self) -> np.ndarray:
        return self.edge.labels

    def validate_for(self, pm: PartitionMap, k: int):
        """Check expert coverage for routing with this partition map and k."""
        if pm.num_classes != self.num_classes:
            raise ConfigError(
                f"partition map covers {pm.num_classes} classes but traces have "
                f"{self.num_classes}"
            )
        missing = [
            d.label
            for d in enumerate_expert_domains(pm.num_partitions, k)
            if d not in self.experts
        ]
        if missing:
            raise ConfigError(f"expert coverage incomplete, missing domains: {missing}")


def softmax_and_confidence(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise stable softmax in one float64 buffer, and each row's max probability:
    1 / sum(exp(x - max)) bit for bit, as exp(0) = 1.0 and rounded division is monotone."""
    probs = np.array(logits, dtype=np.float64)
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    sums = probs.sum(axis=1, keepdims=True)
    probs /= sums
    return probs, 1.0 / sums[:, 0]


def softmax_matrix(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of an M x N logit matrix."""
    return softmax_and_confidence(logits)[0]


def topk_matrix(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest probabilities in each row of an M x N matrix.

    Each row is ordered descending by probability; ties break by
    ascending class index so routing is deterministic. The result equals
    ``np.argsort(-probs, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows: k=1 is the argmax (the first maximum), and 1 < k < N
    partitions each row, then sorts its k candidates by (-p, index).
    Rows where a class left out of the cut ties the k-th value, so the
    cut alone cannot tell which tied classes come first, fall back to
    the stable full-row sort, as does k=N.
    """
    n = probs.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if k == 1:
        return probs.argmax(axis=1)[:, None]
    if k == n:
        return np.argsort(-probs, axis=1, kind="stable")
    cand = np.argpartition(probs, n - k, axis=1)[:, n - k:]
    vals = np.take_along_axis(probs, cand, axis=1)
    top = np.take_along_axis(cand, np.lexsort((cand, -vals)), axis=1)
    kth = np.take_along_axis(probs, top[:, -1:], axis=1)
    # The candidates all reach the k-th value; any other class that does ties it.
    tied = np.flatnonzero((probs >= kth).sum(axis=1) != k)
    if tied.size:
        top[tied] = np.argsort(-probs[tied], axis=1, kind="stable")[:, :k]
    return top


def topk_accuracy(trace: PredictionTrace, k: int) -> float:
    """Fraction of samples whose label appears among the top-k classes."""
    if k != 1:
        top = topk_matrix(softmax_matrix(trace.logits), k)
        return float((top == trace.labels[:, None]).any(axis=1).sum()) / trace.num_samples
    top = trace.logits.argmax(axis=1)
    best = np.take_along_axis(trace.logits, top[:, None], axis=1).astype(np.float64)
    # If every other logit x < m - 1e-6 (m the top one; below a huge m, float32s are
    # 2**28 float64 ulps apart), exp(x - m) < 1 - 4e-7 stays ~10**9 ulps under exp(0)
    # = 1.0 through exp's and the division's few ulps of error, so the logit argmax is
    # the probability argmax. Closer rows, e.g. [-1e-30, 0], take the probability path.
    close = np.flatnonzero((trace.logits >= best - 1e-6).sum(axis=1) > 1)
    top[close] = softmax_matrix(trace.logits[close]).argmax(axis=1)
    return float((top == trace.labels).sum()) / trace.num_samples


def recall_gap(trace: PredictionTrace, k: int) -> float:
    """Top-k accuracy minus top-1 accuracy; the headroom an expert can recover."""
    if k < 2:
        raise ValueError(f"recall gap needs k >= 2, got {k}")
    return topk_accuracy(trace, k) - topk_accuracy(trace, 1)


@dataclass(frozen=True)
class TraceTargets:
    """Calibration targets for the synthetic generator.

    ``topk_acc`` maps k to the desired top-k accuracy and must include
    k=1. ``confidence_quantiles`` maps a threshold to the desired
    fraction of samples with confidence strictly below it; when omitted,
    confidences are drawn uniformly from [1/N, 1].
    """

    topk_acc: Mapping[int, float]
    confidence_quantiles: Mapping[float, float] | None = None

    def validated(self, num_classes: int) -> "TraceTargets":
        ks = sorted(self.topk_acc)
        if not ks or ks[0] < 1:
            raise ConfigError("topk_acc must contain k >= 1 targets")
        if 1 not in self.topk_acc:
            raise ConfigError("topk_acc must include a k=1 target")
        if ks[-1] > num_classes:
            raise ConfigError(f"topk_acc has k={ks[-1]} > num_classes={num_classes}")
        accs = [self.topk_acc[k] for k in ks]
        if any(not 0.0 <= a <= 1.0 for a in accs):
            raise ConfigError(f"topk_acc values must lie in [0,1], got {accs}")
        if any(b < a for a, b in zip(accs, accs[1:])):
            raise ConfigError(f"topk_acc must be non-decreasing in k, got {dict(zip(ks, accs))}")
        if ks[-1] == num_classes and accs[-1] < 1.0:
            raise ConfigError("top-N accuracy must be 1.0 when k equals num_classes")
        if self.confidence_quantiles is not None:
            taus = sorted(self.confidence_quantiles)
            qs = [self.confidence_quantiles[t] for t in taus]
            floor = 1.0 / num_classes
            if any(not 0.0 <= q <= 1.0 for q in qs) or any(not 0.0 <= t <= 1.0 for t in taus):
                raise ConfigError("confidence quantiles must lie in [0,1]")
            if any(b < a for a, b in zip(qs, qs[1:])):
                raise ConfigError("confidence quantiles must be non-decreasing in the threshold")
            if any(t <= floor and q > 0.0 for t, q in zip(taus, qs)):
                raise ConfigError(
                    f"confidence below 1/N={floor:.4g} is impossible for an N-way softmax"
                )
        return self


def _rank_cdf(targets: TraceTargets, num_classes: int) -> np.ndarray:
    """CDF over the planted rank of the true label (ranks 1..N).

    Mass between consecutive specified k values, and beyond the largest
    one, is spread uniformly over the intervening ranks.
    """
    ks = sorted(targets.topk_acc)
    pdf = np.zeros(num_classes, dtype=np.float64)
    prev_k, prev_a = 0, 0.0
    for k in ks:
        a = targets.topk_acc[k]
        span = k - prev_k
        pdf[prev_k:k] = (a - prev_a) / span
        prev_k, prev_a = k, a
    if prev_k < num_classes:
        pdf[prev_k:] = (1.0 - prev_a) / (num_classes - prev_k)
    elif 1.0 - prev_a > 1e-12:
        raise ConfigError("rank distribution leaves mass beyond rank N")
    cdf = np.cumsum(pdf)
    cdf[-1] = 1.0
    return cdf


def _confidence_anchors(
    targets: TraceTargets, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear confidence CDF anchor points (conf, cumulative)."""
    floor = 1.0 / num_classes
    if targets.confidence_quantiles is None:
        return np.array([floor, 1.0]), np.array([0.0, 1.0])
    taus = sorted(t for t in targets.confidence_quantiles if t > floor)
    confs = [floor] + taus + ([1.0] if (not taus or taus[-1] < 1.0) else [])
    cum = [0.0] + [targets.confidence_quantiles[t] for t in taus] + (
        [1.0] if (not taus or taus[-1] < 1.0) else []
    )
    return np.asarray(confs, dtype=np.float64), np.asarray(cum, dtype=np.float64)


def _sorted_tail(conf: np.ndarray, num_classes: int) -> np.ndarray:
    """Probabilities for ranks 2..N as a strictly decreasing linear ramp.

    Given the top probability c, the remaining mass 1-c is laid out as a
    linear ramp from b (rank 2) down to a (rank N) with
    (a+b)(N-1)/2 = 1-c. Unconstrained, b = 2(1-c)/(N-1) and a = 0; when
    that b would tie or exceed c, b is capped at c*(1 - 1e-3) and a
    raised to keep the mass, which stays feasible whenever c >= 1/N.
    """
    n_tail = num_classes - 1
    t = 1.0 - conf
    if n_tail == 1:
        return t[:, None]
    cap = conf * (1.0 - 1e-3)
    b = np.minimum(cap, 2.0 * t / n_tail)
    a = 2.0 * t / n_tail - b
    steps = np.arange(n_tail, dtype=np.float64) / (n_tail - 1)
    return b[:, None] + (a - b)[:, None] * steps[None, :]


def synthesize_trace(
    targets: TraceTargets,
    num_samples: int,
    num_classes: int,
    seed: int | np.random.SeedSequence,
    model_name: str = "synthetic",
) -> PredictionTrace:
    """Generate a trace matching top-k accuracy and confidence marginals.

    Deterministic for a fixed seed. Row construction, in chunks of
    16384 rows with ``numpy.random.default_rng(seed)`` and four draws
    per chunk in this order:

    1. labels: uniform integers in [0, N)
    2. rank uniforms: mapped through the rank CDF (see ``topk_acc``;
       mass between/beyond the target k values is spread uniformly)
       to the rank at which the true label is planted
    3. confidence uniforms: mapped through the piecewise-linear inverse
       of the confidence CDF (anchors at (1/N, 0), the supplied
       quantiles, and (1.0, 1.0)) to the row's maximum probability c,
       clamped into [(1 + 1e-2)/N, 1 - 1e-9] to keep the tail feasible
    4. a random permutation of [0, N) per row ordering the distractors

    The sorted probability vector is [c, ramp(2..N)] with the tail ramp
    from :func:`_sorted_tail`; the label takes the planted rank and the
    distractors fill the remainder in permutation order. Logits are
    log-probabilities, clamped at log(c) - 80 and stored as float32.
    """
    targets = targets.validated(num_classes)
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
    rank_cdf = _rank_cdf(targets, num_classes)
    anchor_conf, anchor_cum = _confidence_anchors(targets, num_classes)
    # Keep sampled confidence strictly feasible for the tail ramp.
    conf_min = (1.0 + 1e-2) / num_classes

    rng = np.random.default_rng(seed)
    logits = np.empty((num_samples, num_classes), dtype=np.float32)
    labels = np.empty(num_samples, dtype=np.int64)
    cols = np.arange(num_classes)[None, :]

    for start in range(0, num_samples, _SYNTH_CHUNK_ROWS):
        stop = min(start + _SYNTH_CHUNK_ROWS, num_samples)
        m = stop - start
        chunk_labels = rng.integers(0, num_classes, size=m)
        ranks = np.searchsorted(rank_cdf, rng.random(m), side="right") + 1
        conf = np.interp(rng.random(m), anchor_cum, anchor_conf)
        conf = np.clip(conf, conf_min, 1.0 - 1e-9)
        perm = rng.permuted(np.broadcast_to(np.arange(num_classes), (m, num_classes)), axis=1)

        distractors = perm[perm != chunk_labels[:, None]].reshape(m, num_classes - 1)
        plant = (ranks - 1)[:, None]
        take = np.clip(cols - (cols > plant), 0, num_classes - 2)
        class_at_rank = np.where(
            cols == plant,
            chunk_labels[:, None],
            np.take_along_axis(distractors, take, axis=1),
        )

        prob_at_rank = np.empty((m, num_classes), dtype=np.float64)
        prob_at_rank[:, 0] = conf
        prob_at_rank[:, 1:] = _sorted_tail(conf, num_classes)
        with np.errstate(divide="ignore"):
            log_p = np.log(prob_at_rank)
        log_p = np.maximum(log_p, np.log(conf)[:, None] - 80.0)

        chunk_logits = np.empty((m, num_classes), dtype=np.float64)
        np.put_along_axis(chunk_logits, class_at_rank, log_p, axis=1)
        logits[start:stop] = chunk_logits.astype(np.float32)
        labels[start:stop] = chunk_labels

    return PredictionTrace(model_name=model_name, logits=logits, labels=labels)


def synthesize_expert_trace(
    labels: np.ndarray,
    pm: PartitionMap,
    domain: DomainSet,
    seed: int | np.random.SeedSequence,
    in_domain_accuracy: float = 1.0,
    out_domain_accuracy: float | None = None,
    edge_logits: np.ndarray | None = None,
    model_name: str | None = None,
    margin: float = 12.0,
) -> PredictionTrace:
    """Generate an expert trace with controlled per-region accuracy.

    Samples whose true label lies in ``domain`` are predicted correctly
    with probability ``in_domain_accuracy``; incorrect predictions pick
    the cyclic next class. Outside the domain the expert either mimics
    the edge model's argmax (when ``edge_logits`` is given and
    ``out_domain_accuracy`` is None) or is correct with probability
    ``out_domain_accuracy``. Output rows are one-hot logits at the
    chosen class with the given margin.
    """
    labels = np.asarray(labels)
    num_samples = labels.shape[0]
    num_classes = pm.num_classes
    rng = np.random.default_rng(seed)
    in_domain = np.isin(pm.assignment[labels], domain.indices)

    correct_in = rng.random(num_samples) < in_domain_accuracy
    wrong = (labels + 1) % num_classes
    pred = np.where(correct_in, labels, wrong)

    if out_domain_accuracy is None:
        if edge_logits is None:
            raise ValueError("need edge_logits or out_domain_accuracy for off-domain rows")
        edge_pred = np.asarray(edge_logits).argmax(axis=1)
        pred = np.where(in_domain, pred, edge_pred)
    else:
        correct_out = rng.random(num_samples) < out_domain_accuracy
        pred = np.where(in_domain, pred, np.where(correct_out, labels, wrong))

    logits = np.zeros((num_samples, num_classes), dtype=np.float32)
    logits[np.arange(num_samples), pred] = margin
    name = model_name if model_name is not None else f"expert-{domain.label}"
    return PredictionTrace(model_name=name, logits=logits, labels=labels)


def synthesize_trace_set(
    targets: TraceTargets,
    pm: PartitionMap,
    k: int,
    num_samples: int,
    seed: int,
    expert_in_accuracy: float = 1.0,
    expert_out_accuracy: float | None = None,
    near_generalist_top1: float | None = None,
    edge_name: str = "edge-synthetic",
) -> TraceSet:
    """Edge trace plus full expert coverage, from one top-level seed.

    The seed is forked with ``numpy.random.SeedSequence(seed).spawn``:
    child 0 drives the edge trace, children 1..D the experts in
    :func:`enumerate_expert_domains` order, and child D+1 the optional
    near-edge generalist trace.
    """
    domains = enumerate_expert_domains(pm.num_partitions, k)
    children = np.random.SeedSequence(seed).spawn(len(domains) + 2)
    edge = synthesize_trace(
        targets, num_samples, pm.num_classes,
        seed=children[0], model_name=edge_name,
    )
    experts = {}
    for domain, child in zip(domains, children[1:]):
        experts[domain] = synthesize_expert_trace(
            edge.labels, pm, domain,
            seed=child,
            in_domain_accuracy=expert_in_accuracy,
            out_domain_accuracy=expert_out_accuracy,
            edge_logits=edge.logits,
        )
    near = None
    if near_generalist_top1 is not None:
        near = _relabel(
            synthesize_trace(
                TraceTargets(topk_acc={1: near_generalist_top1}),
                num_samples, pm.num_classes,
                seed=children[-1], model_name="near-generalist",
            ),
            edge.labels,
        )
    return TraceSet(edge=edge, experts=experts, near_generalist=near)


def _relabel(trace: PredictionTrace, labels: np.ndarray) -> PredictionTrace:
    """Rewrite a synthetic trace onto the shared label vector.

    The generator plants each row's true label at a sampled rank; to
    keep its accuracy marginals while sharing labels, swap each row's
    own label column with the shared label column.
    """
    logits = np.array(trace.logits)
    rows = np.arange(trace.num_samples)
    own = trace.labels
    tmp = logits[rows, own].copy()
    logits[rows, own] = logits[rows, labels]
    logits[rows, labels] = tmp
    return PredictionTrace(trace.model_name, logits, labels)


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------


def _read_exact(path: Path, dtype: np.dtype, count: int, what: str) -> np.ndarray:
    """Exactly ``count`` values from a regular file of exactly that size.

    The file is checked before it is opened, so that a device such as
    /dev/zero is not read without end and a FIFO does not block the open.
    """
    expected = count * dtype.itemsize
    out = np.empty(count, dtype=dtype)
    try:
        info = path.stat()
        if not stat.S_ISREG(info.st_mode):
            raise ConfigError(f"{what} file {path} is not a regular file")
        if info.st_size != expected:
            raise ConfigError(
                f"{what} file {path}: expected exactly {expected} bytes "
                f"({count} x {dtype.itemsize}), found {info.st_size}"
            )
        with open(path, "rb", buffering=0) as fh:
            view, done = memoryview(out).cast("B"), 0
            while done < expected and (n := fh.readinto(view[done:])):
                done += n
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    if done != expected:
        raise ConfigError(f"{what} file {path}: expected {expected} bytes, read only {done}")
    return out


_TRACE_ENTRY = {"name": "string", "logits_file": "string"}
_MANIFEST = {
    "num_classes": "integer", "num_samples": "integer", "labels_file": "string",
    "edge": _TRACE_ENTRY,
    "experts": [{"domain": ["integer"], **_TRACE_ENTRY}],
    "near_generalist?": _TRACE_ENTRY,
}


def _check_manifest(doc) -> tuple[dict, list[DomainSet]]:
    """A parsed manifest and its expert domains, in listed order."""
    check_json(doc, _MANIFEST)
    if doc["num_classes"] < 2:
        raise ConfigError(f"num_classes must be >= 2, got {doc['num_classes']}")
    if doc["num_samples"] < 1:
        raise ConfigError(f"num_samples must be >= 1, got {doc['num_samples']}")
    domains: list[DomainSet] = []
    for i, entry in enumerate(doc["experts"]):
        try:
            domain = DomainSet.of(entry["domain"])
        except ValueError as exc:
            raise ConfigError(f"experts[{i}].domain: {exc}") from None
        if domain in domains:
            raise ConfigError(f"experts[{i}].domain: expert domain {domain.label} listed twice")
        domains.append(domain)
    return doc, domains


def load_trace_set(
    manifest_path: str | Path,
    pm: PartitionMap | None = None,
    k: int | None = None,
) -> TraceSet:
    """Load a trace manifest and its binary files, validating layout.

    When ``pm`` and ``k`` are supplied, expert coverage for routing is
    checked as well. Relative file paths resolve against the manifest's
    directory. Every error in the manifest itself names the manifest.
    """
    manifest_path = Path(manifest_path)
    doc, domains = read_json(manifest_path, "manifest", _check_manifest)
    n, m = doc["num_classes"], doc["num_samples"]
    base = manifest_path.parent  # an absolute file path replaces it

    labels32 = _read_exact(base / doc["labels_file"], np.dtype("<u4"), m, "labels")
    labels = labels32.astype(np.int64)
    if labels.size and labels.max() >= n:
        bad = int(np.flatnonzero(labels >= n)[0])
        raise ConfigError(
            f"labels file {doc['labels_file']}: label {int(labels[bad])} at row {bad} "
            f"out of range [0, {n})"
        )

    def load_entry(entry) -> PredictionTrace:
        path = base / entry["logits_file"]
        flat = _read_exact(path, np.dtype("<f4"), m * n, f"logits ({entry['name']})")
        try:
            return PredictionTrace(
                model_name=entry["name"], logits=flat.reshape(m, n), labels=labels
            )
        except ConfigError as exc:  # the trace's own checks, e.g. a non-finite logit
            raise ConfigError(f"logits file {path}: {exc}") from None

    edge = load_entry(doc["edge"])
    experts = {domain: load_entry(entry) for domain, entry in zip(domains, doc["experts"])}
    near = load_entry(doc["near_generalist"]) if "near_generalist" in doc else None

    ts = TraceSet(edge=edge, experts=experts, near_generalist=near)
    if pm is not None and k is not None:
        ts.validate_for(pm, k)
    return ts


def write_trace_set(ts: TraceSet, out_dir: str | Path) -> Path:
    """Write a trace set as manifest + binary files; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "labels.bin").write_bytes(ts.labels.astype("<u4").tobytes())

    def dump(trace: PredictionTrace, fname: str) -> str:
        (out / fname).write_bytes(trace.logits.astype("<f4").tobytes())
        return fname

    manifest = {
        "num_classes": ts.num_classes,
        "num_samples": ts.num_samples,
        "labels_file": "labels.bin",
        "edge": {"name": ts.edge.model_name, "logits_file": dump(ts.edge, "edge.bin")},
        "experts": [
            {
                "domain": list(domain.indices),
                "name": trace.model_name,
                "logits_file": dump(trace, f"expert_{domain.label.replace('+', '_')}.bin"),
            }
            for domain, trace in sorted(ts.experts.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ],
    }
    if ts.near_generalist is not None:
        manifest["near_generalist"] = {
            "name": ts.near_generalist.model_name,
            "logits_file": dump(ts.near_generalist, "near_generalist.bin"),
        }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def shuffle_trace_set(ts: TraceSet, seed: int) -> TraceSet:
    """Apply one seeded row permutation consistently to every member trace."""
    perm = np.random.default_rng(seed).permutation(ts.num_samples)

    def apply(trace: PredictionTrace) -> PredictionTrace:
        return PredictionTrace(trace.model_name, trace.logits[perm], trace.labels[perm])

    return TraceSet(
        edge=apply(ts.edge),
        experts={d: apply(t) for d, t in ts.experts.items()},
        near_generalist=apply(ts.near_generalist) if ts.near_generalist else None,
    )
