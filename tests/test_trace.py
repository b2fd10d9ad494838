import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coinfer.errors import ConfigError
from coinfer.harness import SweepConfig, run_sweep
from coinfer.partition import DomainSet, enumerate_expert_domains
from coinfer.trace import (
    PredictionTrace,
    TraceSet,
    TraceTargets,
    load_trace_set,
    recall_gap,
    shuffle_trace_set,
    softmax_and_confidence,
    softmax_matrix,
    synthesize_expert_trace,
    synthesize_trace,
    synthesize_trace_set,
    topk_accuracy,
    topk_matrix,
    write_trace_set,
)
from coinfer.wire import NearEdgeServer
from conftest import lattice_logits, make_partition_map


def test_prediction_trace_validates_labels():
    logits = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ConfigError, match="out of range"):
        PredictionTrace("m", logits, np.array([0, 3]))


def test_prediction_trace_rejects_non_finite():
    logits = np.zeros((2, 2), dtype=np.float32)
    logits[1, 0] = np.inf
    with pytest.raises(ConfigError, match="non-finite"):
        PredictionTrace("m", logits, np.array([0, 1]))


def test_trace_set_demands_consistent_labels():
    l1 = np.zeros((3, 2), dtype=np.float32)
    edge = PredictionTrace("edge", l1, np.array([0, 1, 0]))
    bad = PredictionTrace("x", l1, np.array([1, 1, 0]))
    with pytest.raises(ConfigError, match="labels differ"):
        TraceSet(edge=edge, experts={DomainSet.of([1]): bad})


def test_softmax_row_matches_direct_formula():
    row = np.array([1.0, 2.0, 3.0])
    (p,) = softmax_matrix(row[None, :])
    z = sum(math.exp(v) for v in row)
    assert p == pytest.approx([math.exp(v) / z for v in row], rel=1e-12)
    assert p.sum() == pytest.approx(1.0)


def test_softmax_row_is_shift_stable():
    row = np.array([1000.0, 1001.0])
    (p,) = softmax_matrix(row[None, :])
    assert np.isfinite(p).all()
    assert p[1] > p[0]


def test_topk_ties_break_by_ascending_class():
    p = np.array([[0.25, 0.25, 0.25, 0.25]])
    assert topk_matrix(p, 2).tolist() == [[0, 1]]
    p = np.array([[0.1, 0.4, 0.4, 0.1]])
    assert topk_matrix(p, 2).tolist() == [[1, 2]]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n=st.integers(1, 12))
def test_topk_matrix_equals_stable_argsort_for_every_k(seed, m, n):
    p = softmax_matrix(lattice_logits(np.random.default_rng(seed), m, n))
    ref = np.argsort(-p, axis=1, kind="stable")
    for k in range(1, n + 1):
        assert topk_matrix(p, k).tolist() == ref[:, :k].tolist()


@pytest.mark.parametrize("row,k,want", [
    ([0.2, 0.2, 0.2, 0.2, 0.2], 3, [0, 1, 2]),  # all equal
    ([0.1, 0.3, 0.3, 0.3], 2, [1, 2]),  # the k-th value tied past the cut
    ([0.3, 0.1, 0.3, 0.3], 2, [0, 2]),
    ([0.2, 0.2, 0.5, 0.1], 2, [2, 0]),
    ([0.1, 0.2, 0.2, 0.5], 3, [3, 1, 2]),  # tie inside the cut only
])
def test_topk_matrix_tie_order(row, k, want):
    p = np.array([row, row[::-1]])
    got = topk_matrix(p, k).tolist()
    assert got[0] == want
    assert got == np.argsort(-p, axis=1, kind="stable")[:, :k].tolist()


def test_topk_accuracy_hand_case():
    logits = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]], dtype=np.float32)
    trace = PredictionTrace("m", logits, np.array([1, 2]))
    assert topk_accuracy(trace, 1) == 0.5
    assert topk_accuracy(trace, 2) == 1.0
    assert recall_gap(trace, 2) == pytest.approx(0.5)


def float64_softmax(logits):
    """The gate's softmax as separate float64 temporaries: the reference."""
    m = np.asarray(logits, dtype=np.float64)
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@st.composite
def extreme_logits(draw):
    """Rows mixing exact ties, float32 neighbours, entries whose shifted exp
    underflows (below -708), a dominant class, tiny gaps and arbitrary floats."""
    n = draw(st.integers(2, 6))
    anchor = np.float32(draw(st.floats(-1e6, 1e6, width=32)))
    entry = st.one_of(
        st.just(anchor),
        st.sampled_from([np.nextafter(anchor, np.float32(d)) for d in (np.inf, -np.inf)]),
        st.floats(708.0, 5000.0).map(lambda d: anchor - d),
        st.floats(30.0, 1e30).map(lambda d: anchor + d),
        st.sampled_from([-1e-30, 0.0, 1e-30]),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    return np.array(rows, dtype=np.float32)


@settings(max_examples=300, deadline=None)
@given(logits=extreme_logits())
@example(logits=np.array([[-1e-30, 0.0]], dtype=np.float32))
@example(logits=np.array([[0.0, 0.0, 0.0], [2.5, -1.0, 2.5]], dtype=np.float32))
@example(logits=np.array([[1.0, np.nextafter(np.float32(1), np.float32(2))]], dtype=np.float32))
@example(logits=np.array([[0.0, -708.5, -745.2, -1000.0]], dtype=np.float32))
@example(logits=np.array([[3e38, -3e38, 0.0], [-5.0, 1e30, -5.0]], dtype=np.float32))
def test_one_buffer_gate_maths_equal_the_float64_path(logits):
    ref = float64_softmax(logits)
    probs, conf = softmax_and_confidence(logits)
    assert probs.tobytes() == ref.tobytes()
    assert softmax_matrix(logits).tobytes() == ref.tobytes()
    assert conf.tobytes() == ref.max(axis=1).tobytes()
    # Labelled with the probability argmax, top-1 from the logits hits every row.
    assert topk_accuracy(PredictionTrace("x", logits, ref.argmax(axis=1)), 1) == 1.0


def test_recall_gap_requires_k_at_least_two():
    trace = PredictionTrace("m", np.zeros((1, 2), dtype=np.float32), np.array([0]))
    with pytest.raises(ValueError):
        recall_gap(trace, 1)


class TestTraceTargets:
    def test_requires_top1(self):
        with pytest.raises(ConfigError, match="k=1"):
            TraceTargets(topk_acc={2: 0.9}).validated(10)

    def test_rejects_decreasing_accuracy(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            TraceTargets(topk_acc={1: 0.9, 2: 0.8}).validated(10)

    def test_rejects_infeasible_quantiles(self):
        bad = TraceTargets(topk_acc={1: 0.8}, confidence_quantiles={0.05: 0.2})
        with pytest.raises(ConfigError, match="impossible"):
            bad.validated(10)


class TestSynthesizeTrace:
    def test_deterministic_for_fixed_seed(self):
        t = TraceTargets(topk_acc={1: 0.7, 2: 0.85})
        a = synthesize_trace(t, 500, 10, seed=3)
        b = synthesize_trace(t, 500, 10, seed=3)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.labels, b.labels)
        c = synthesize_trace(t, 500, 10, seed=4)
        assert not np.array_equal(c.logits, a.logits)

    def test_hits_topk_targets_at_scale(self):
        t = TraceTargets(topk_acc={1: 0.6, 2: 0.8, 3: 0.9})
        trace = synthesize_trace(t, 40000, 20, seed=11)
        assert topk_accuracy(trace, 1) == pytest.approx(0.6, abs=0.01)
        assert topk_accuracy(trace, 2) == pytest.approx(0.8, abs=0.01)
        assert topk_accuracy(trace, 3) == pytest.approx(0.9, abs=0.01)

    def test_hits_confidence_quantiles_at_scale(self):
        t = TraceTargets(
            topk_acc={1: 0.7},
            confidence_quantiles={0.5: 0.2, 0.9: 0.6},
        )
        trace = synthesize_trace(t, 40000, 50, seed=12)
        conf = softmax_matrix(trace.logits).max(axis=1)
        assert float((conf < 0.5).mean()) == pytest.approx(0.2, abs=0.01)
        assert float((conf < 0.9).mean()) == pytest.approx(0.6, abs=0.01)

    def test_two_class_edge_case(self):
        t = TraceTargets(topk_acc={1: 0.75, 2: 1.0})
        trace = synthesize_trace(t, 5000, 2, seed=5)
        assert topk_accuracy(trace, 1) == pytest.approx(0.75, abs=0.03)
        assert topk_accuracy(trace, 2) == 1.0

    def test_probabilities_renormalize_to_planted_confidence(self):
        t = TraceTargets(topk_acc={1: 0.5}, confidence_quantiles={0.6: 0.5})
        trace = synthesize_trace(t, 2000, 10, seed=9)
        probs = softmax_matrix(trace.logits)
        # top prob never dips below the N-way floor and the rows are sorted
        assert probs.max(axis=1).min() >= 1.0 / 10
        top2 = np.sort(probs, axis=1)[:, -2:]
        assert (top2[:, 1] > top2[:, 0]).all()


def test_synthesize_expert_trace_controls_regions():
    pm = make_partition_map(8, 4)
    labels = np.arange(8).repeat(100)
    dom = DomainSet.of([1, 2])
    expert = synthesize_expert_trace(labels, pm, dom, seed=0,
                                     in_domain_accuracy=1.0, out_domain_accuracy=0.0)
    pred = expert.logits.argmax(axis=1)
    in_dom = np.isin(pm.assignment[labels], dom.indices)
    assert (pred[in_dom] == labels[in_dom]).all()
    assert (pred[~in_dom] != labels[~in_dom]).all()


def test_synthesize_expert_trace_can_follow_edge():
    pm = make_partition_map(6, 3)
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 6, size=300)
    edge_logits = rng.normal(size=(300, 6)).astype(np.float32)
    dom = DomainSet.of([2])
    expert = synthesize_expert_trace(labels, pm, dom, seed=0, edge_logits=edge_logits)
    pred = expert.logits.argmax(axis=1)
    out = ~np.isin(pm.assignment[labels], dom.indices)
    assert (pred[out] == edge_logits.argmax(axis=1)[out]).all()


def test_synthesize_trace_set_covers_all_domains():
    pm = make_partition_map(10, 5)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.6}), pm, 2, 200, seed=0)
    assert set(ts.experts) == set(enumerate_expert_domains(5, 2))
    ts.validate_for(pm, 2)


def read_all(trace):
    """A trace's whole logit matrix, gathered from its blocks (each copied before the
    next overwrites it), with the first row of each block."""
    starts, blocks = zip(*((start, block.copy()) for start, block in trace.blocks()))
    return np.concatenate(blocks), list(starts)


def test_trace_set_round_trips_through_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr("coinfer.trace._BLOCK_ROWS", 5)
    pm = make_partition_map(6, 3)
    ts = synthesize_trace_set(
        TraceTargets(topk_acc={1: 0.5}), pm, 2, 64, seed=2, near_generalist_top1=0.9
    )
    manifest = write_trace_set(ts, tmp_path)
    loaded = load_trace_set(manifest, pm, 2)
    assert np.array_equal(loaded.edge.logits, ts.edge.logits)
    assert np.array_equal(loaded.labels, ts.labels)
    assert set(loaded.experts) == set(ts.experts)
    for dom in ts.experts:
        logits, starts = read_all(loaded.experts[dom])
        assert np.array_equal(logits, ts.experts[dom].logits)
        assert starts == list(range(0, 64, 5))  # the last block holds 4 rows
    assert loaded.near_generalist is not None
    assert np.array_equal(read_all(loaded.near_generalist)[0], ts.near_generalist.logits)


def test_loader_rejects_trailing_bytes(tmp_path):
    pm = make_partition_map(4, 2)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5}), pm, 1, 16, seed=0)
    manifest = write_trace_set(ts, tmp_path)
    labels_file = tmp_path / "labels.bin"
    labels_file.write_bytes(labels_file.read_bytes() + b"\x00")
    with pytest.raises(ConfigError, match="expected exactly"):
        load_trace_set(manifest)


def test_loader_rejects_short_logits(tmp_path):
    pm = make_partition_map(4, 2)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5}), pm, 1, 16, seed=0)
    manifest = write_trace_set(ts, tmp_path)
    edge_file = tmp_path / "edge.bin"
    edge_file.write_bytes(edge_file.read_bytes()[:-4])
    with pytest.raises(ConfigError, match="expected exactly"):
        load_trace_set(manifest)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("kind", ["dev-zero", "fifo", "one-byte-long"])
def test_loader_refuses_what_it_cannot_read_in_bounds(tmp_path, kind):
    """Checked in a child with 1 GiB of address space and a timeout, so that an
    unbounded read fails the test instead of filling memory or hanging."""
    pm = make_partition_map(4, 2)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5}), pm, 1, 16, seed=0)
    manifest = write_trace_set(ts, tmp_path)
    edge_file = tmp_path / "edge.bin"
    if kind == "one-byte-long":
        edge_file.write_bytes(edge_file.read_bytes() + b"\x00")
    else:
        edge_file.unlink()
        if kind == "fifo":
            os.mkfifo(edge_file)
        else:
            edge_file.symlink_to("/dev/zero")
    proc = subprocess.run(
        [sys.executable, "-m", "coinfer.cli", "validate", "--manifest", str(manifest)],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert str(edge_file) in proc.stderr
    want = "expected exactly 256 bytes" if kind == "one-byte-long" else "not a regular file"
    assert want in proc.stderr


def test_loader_rejects_non_finite_logits(tmp_path):
    pm = make_partition_map(4, 2)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5}), pm, 1, 16, seed=0)
    manifest = write_trace_set(ts, tmp_path)
    edge_file = tmp_path / "edge.bin"
    raw = bytearray(edge_file.read_bytes())
    raw[4:8] = np.array([np.nan], dtype="<f4").tobytes()
    edge_file.write_bytes(bytes(raw))
    with pytest.raises(ConfigError, match=r"edge\.bin: .*byte offset 4\)"):
        load_trace_set(manifest)


def test_loader_rejects_duplicate_expert_domains(tmp_path):
    pm = make_partition_map(4, 2)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5}), pm, 1, 16, seed=0)
    manifest = write_trace_set(ts, tmp_path)
    doc = json.loads(manifest.read_text())
    doc["experts"].append(dict(doc["experts"][0]))
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="twice"):
        load_trace_set(manifest)


def test_missing_expert_coverage_names_the_domain(tmp_path):
    pm = make_partition_map(4, 2)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5}), pm, 2, 16, seed=0)
    manifest = write_trace_set(ts, tmp_path)
    doc = json.loads(manifest.read_text())
    doc["experts"] = [e for e in doc["experts"] if e["domain"] != [1, 2]]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"1\+2"):
        load_trace_set(manifest, pm, 2)


def test_shuffle_is_seeded_and_consistent():
    pm = make_partition_map(4, 2)
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.5}), pm, 2, 128, seed=0)
    s1 = shuffle_trace_set(ts, seed=5)
    s2 = shuffle_trace_set(ts, seed=5)
    assert np.array_equal(s1.labels, s2.labels)
    assert not np.array_equal(s1.labels, ts.labels)
    # every member trace moves through the same permutation
    dom = next(iter(ts.experts))
    perm = np.random.default_rng(5).permutation(ts.num_samples)
    assert np.array_equal(s1.edge.logits, ts.edge.logits[perm])
    assert np.array_equal(s1.experts[dom].logits, ts.experts[dom].logits[perm])


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    top1=st.floats(min_value=0.05, max_value=0.95),
)
def test_synthetic_rows_are_valid_distributions(n, seed, top1):
    trace = synthesize_trace(TraceTargets(topk_acc={1: top1}), 64, n, seed=seed)
    probs = softmax_matrix(trace.logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)
    assert np.isfinite(trace.logits).all()


def _traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` holds at once, counting only what it allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_neither_the_server_nor_a_sweep_holds_the_expert_library(tmp_path):
    """14 experts of 2.4 MB each: loading plus the server's table, and a sweep from the
    manifest, each stay under three expert files' worth (the edge trace is one)."""
    pm = make_partition_map(20, 4)
    groups = [list(range(p, 20, 4)) for p in range(4)]
    (tmp_path / "partitions.json").write_text(json.dumps({"num_classes": 20, "partitions": groups}))
    ts = synthesize_trace_set(TraceTargets(topk_acc={1: 0.6, 2: 0.8}), pm, 3, 30_000, seed=5,
                              near_generalist_top1=0.7)
    manifest = write_trace_set(ts, tmp_path / "traces")
    expert_bytes = (tmp_path / "traces" / "expert_1.bin").stat().st_size
    assert (len(ts.experts), expert_bytes) == (14, 2_400_000)
    del ts

    def serve():
        NearEdgeServer(("127.0.0.1", 0), load_trace_set(manifest, pm, 3), pm, 3).shutdown()

    cfg = SweepConfig(
        thresholds=(0.9, 0.5), k=3, partitions=str(tmp_path / "partitions.json"),
        manifest=str(manifest), profiles="builtin",
        edge_profile=("rpi5", "deit-3h"), near_profile=("agx-orin", "deit-6h"),
    )
    assert _traced_peak(serve) < 3 * expert_bytes
    assert _traced_peak(lambda: run_sweep(cfg)) < 3 * expert_bytes
