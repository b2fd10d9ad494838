import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinfer.partition import (
    DomainSet,
    PartitionMap,
    domain_of_topk,
    enumerate_expert_domains,
)
from coinfer.router import (
    apply_gate,
    collaborative_infer,
    compute_routing_primitives,
    gate_signals,
    offload_proportion_curve,
)
from coinfer.trace import PredictionTrace, TraceSet, TraceTargets, synthesize_trace_set
from conftest import lattice_logits, make_partition_map, random_trace_set


def one_row_trace_set(pm, k, edge_row, expert_row=None):
    """A single sample; every expert domain answers with ``expert_row``
    (default: the edge row itself)."""
    labels = np.array([0])
    edge = PredictionTrace("edge", np.array([edge_row], dtype=np.float32), labels)
    expert = edge if expert_row is None else PredictionTrace(
        "expert", np.array([expert_row], dtype=np.float32), labels
    )
    domains = enumerate_expert_domains(pm.num_partitions, k)
    return TraceSet(edge=edge, experts={dom: expert for dom in domains})


def reference_predictions(ts, assignment, tau, k):
    """Plain-Python per-sample re-implementation of the routing pipeline."""
    out = []
    n = ts.num_classes
    for i in range(ts.num_samples):
        row = [float(v) for v in ts.edge.logits[i]]
        mx = max(row)
        exps = [math.exp(v - mx) for v in row]
        total = sum(exps)
        probs = [e / total for e in exps]
        conf = max(probs)
        if conf >= tau:
            best = 0
            for j in range(1, n):
                if probs[j] > probs[best]:
                    best = j
            out.append(best)
            continue
        order = sorted(range(n), key=lambda j: (-probs[j], j))[:k]
        domain = DomainSet.of(int(assignment[c]) for c in order)
        expert_row = ts.experts[domain].logits[i]
        best = 0
        for j in range(1, n):
            if expert_row[j] > expert_row[best]:
                best = j
        out.append(best)
    return out


class TestRouteSample:
    """The gate on one sample, through a one-row trace set."""

    def test_confident_sample_stays_local(self):
        pm = make_partition_map(4, 2)
        ts = one_row_trace_set(pm, 2, [8.0, 0.0, 0.0, 0.0])
        outcome = collaborative_infer(ts, pm, 0.9, 2)
        assert not outcome.offloaded[0]
        assert outcome.predictions[0] == 0
        assert outcome.confidences[0] > 0.99

    def test_uncertain_sample_offloads_with_domain(self):
        pm = PartitionMap(partitions=[[0, 1], [2], [3]], num_classes=4)
        ts = one_row_trace_set(pm, 2, [1.0, 0.0, 1.0, -4.0])
        outcome = collaborative_infer(ts, pm, 0.9, 2)
        assert outcome.offloaded[0]
        assert outcome.topk[0].tolist() == [0, 2]
        assert outcome.domains[0] == DomainSet.of([1, 2])
        assert outcome.histogram == {DomainSet.of([1, 2]): 1}

    def test_threshold_zero_is_always_local(self):
        pm = make_partition_map(4, 2)
        ts = one_row_trace_set(pm, 2, [0.0, 0.0, 0.0, 0.0])
        assert not collaborative_infer(ts, pm, 0.0, 2).offloaded[0]

    def test_boundary_confidence_stays_local(self):
        pm = make_partition_map(2, 2)
        # two equal logits: confidence exactly 0.5
        ts = one_row_trace_set(pm, 1, [0.0, 0.0])
        outcome = collaborative_infer(ts, pm, 0.5, 1)
        assert outcome.confidences[0] == 0.5
        assert not outcome.offloaded[0]

    def test_rejects_bad_gate_params(self):
        pm = make_partition_map(4, 2)
        ts = one_row_trace_set(pm, 2, [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            collaborative_infer(ts, pm, 1.5, 2)
        with pytest.raises(ValueError):
            collaborative_infer(ts, pm, 0.5, 0)
        with pytest.raises(ValueError):
            collaborative_infer(ts, pm, 0.5, 5)
        with pytest.raises(ValueError):
            gate_signals(ts.edge, pm, 5)
        prims = compute_routing_primitives(ts, pm, 2)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            apply_gate(prims, ts.labels, -0.1)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            offload_proportion_curve(ts.edge, [0.5, 1.5])


class TestRefine:
    """Expert refinement of an offloaded sample, through a one-row trace set."""

    # Top-2 classes 0 and 1 both lie in partition 1, so the domain is {1}.
    PM = PartitionMap(partitions=[[0, 1], [2, 3]], num_classes=4)
    EDGE_ROW = [1.0, 1.0, 0.0, 0.0]
    EXPERT_ROW = [0.1, 0.2, 0.6, 0.1]

    def test_argmax_over_full_space(self):
        ts = one_row_trace_set(self.PM, 2, self.EDGE_ROW, self.EXPERT_ROW)
        outcome = collaborative_infer(ts, self.PM, 0.9, 2)
        assert outcome.domains[0] == DomainSet.of([1])
        assert outcome.offloaded[0]
        assert outcome.predictions[0] == 2

    def test_mask_restricts_to_domain_classes(self):
        ts = one_row_trace_set(self.PM, 2, self.EDGE_ROW, self.EXPERT_ROW)
        outcome = collaborative_infer(ts, self.PM, 0.9, 2, mask_to_domain=True)
        assert outcome.offloaded[0]
        assert outcome.predictions[0] == 1

    def test_identity_expert_matches_edge(self):
        pm = make_partition_map(4, 2)
        ts = one_row_trace_set(pm, 2, [0.5, 3.0, -1.0, 0.0])
        outcome = collaborative_infer(ts, pm, 1.0, 2)
        assert outcome.offloaded[0]
        assert outcome.predictions[0] == 1


class TestCollaborativeInfer:
    def test_matches_reference_loop_on_random_traces(self):
        rng = np.random.default_rng(7)
        pm = make_partition_map(12, 4)
        for _ in range(5):
            ts = random_trace_set(rng, 300, 12, pm, k=2)
            for tau in (0.5, 0.9):
                outcome = collaborative_infer(ts, pm, tau, 2)
                expected = reference_predictions(ts, pm.assignment, tau, 2)
                assert outcome.predictions.tolist() == expected

    def test_all_confident_trace_equals_edge_argmax(self):
        pm = make_partition_map(6, 3)
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 6, size=100)
        logits = np.full((100, 6), -30.0, dtype=np.float32)
        logits[np.arange(100), rng.integers(0, 6, size=100)] = 30.0
        ts = TraceSet(
            edge=PredictionTrace("edge", logits, labels),
            experts={
                dom: PredictionTrace("x", np.zeros_like(logits), labels)
                for dom in compute_domains(pm, 2)
            },
        )
        outcome = collaborative_infer(ts, pm, 0.99, 2)
        assert outcome.offload_count == 0
        assert np.array_equal(outcome.predictions, logits.argmax(axis=1))

    def test_identity_experts_reproduce_edge_accuracy(self):
        rng = np.random.default_rng(3)
        pm = make_partition_map(8, 4)
        labels = rng.integers(0, 8, size=500)
        logits = rng.normal(size=(500, 8)).astype(np.float32)
        edge = PredictionTrace("edge", logits, labels)
        ts = TraceSet(
            edge=edge,
            experts={dom: edge for dom in compute_domains(pm, 2)},
        )
        edge_acc = float((logits.argmax(axis=1) == labels).mean())
        for tau in (0.0, 0.4, 0.8, 1.0):
            assert collaborative_infer(ts, pm, tau, 2).accuracy == pytest.approx(edge_acc)

    def test_histogram_sums_to_offload_count(self):
        rng = np.random.default_rng(11)
        pm = make_partition_map(10, 5)
        ts = random_trace_set(rng, 400, 10, pm, k=2)
        outcome = collaborative_infer(ts, pm, 0.8, 2)
        assert sum(outcome.histogram.values()) == outcome.offload_count
        assert outcome.offload_proportion == outcome.offload_count / 400

    def test_cached_primitives_match_direct_run(self):
        rng = np.random.default_rng(13)
        pm = make_partition_map(9, 3)
        ts = random_trace_set(rng, 200, 9, pm, k=2)
        prim = compute_routing_primitives(ts, pm, 2)
        for tau in (0.3, 0.6, 0.95):
            direct = collaborative_infer(ts, pm, tau, 2)
            cached = collaborative_infer(ts, pm, tau, 2, primitives=prim)
            assert np.array_equal(direct.predictions, cached.predictions)
        with pytest.raises(ValueError, match="k="):
            collaborative_infer(ts, pm, 0.5, 1, primitives=prim)

    def test_decisions_reconstruct_per_sample(self):
        rng = np.random.default_rng(17)
        pm = make_partition_map(6, 2)
        ts = random_trace_set(rng, 50, 6, pm, k=2)
        prims = compute_routing_primitives(ts, pm, 2)
        outcome = collaborative_infer(ts, pm, 0.7, 2)
        for i in range(ts.num_samples):
            assert outcome.offloaded[i] == (outcome.confidences[i] < 0.7)
            assert outcome.domains[i] == domain_of_topk(pm, outcome.topk[i])
            if outcome.offloaded[i]:
                assert outcome.predictions[i] == prims.refined[i]
            else:
                assert outcome.predictions[i] == prims.local_predictions[i]

    def test_mask_to_domain_keeps_predictions_inside_domain(self):
        rng = np.random.default_rng(23)
        pm = make_partition_map(8, 4)
        ts = random_trace_set(rng, 300, 8, pm, k=2)
        outcome = collaborative_infer(ts, pm, 1.0, 2, mask_to_domain=True)
        for i in np.flatnonzero(outcome.offloaded):
            part = pm.assignment[outcome.predictions[i]]
            assert part in outcome.domains[i].indices


class TestDomainCodes:
    @pytest.mark.parametrize("n,s,k", [(12, 4, 3), (12, 4, 1), (8, 8, 8), (140, 70, 3)])
    def test_codes_index_a_table_of_distinct_domains(self, n, s, k):
        rng = np.random.default_rng(n + s + k)
        pm = make_partition_map(n, s)
        edge = PredictionTrace("edge", lattice_logits(rng, 300, n), rng.integers(0, n, 300))
        _, _, top, codes, table = gate_signals(edge, pm, k)
        assert len(set(table)) == len(table)
        assert sorted(set(codes.tolist())) == list(range(len(table)))
        for i in range(edge.num_samples):
            assert table[codes[i]] == domain_of_topk(pm, top[i])

    def test_histogram_counts_offloaded_domains(self):
        rng = np.random.default_rng(29)
        pm = make_partition_map(12, 4)
        ts = random_trace_set(rng, 400, 12, pm, k=3)
        prims = compute_routing_primitives(ts, pm, 3)
        for i in range(ts.num_samples):
            assert prims.domains[i] == prims.domain_table[prims.codes[i]]
            assert prims.domains[i] == domain_of_topk(pm, prims.topk[i])
        for tau in (0.0, 0.4, 0.8, 1.0):
            outcome = apply_gate(prims, ts.labels, tau)
            want = Counter(d for d, off in zip(outcome.domains, outcome.offloaded) if off)
            assert outcome.histogram == want
            assert 0 not in outcome.histogram.values()


def compute_domains(pm, k):
    return enumerate_expert_domains(pm.num_partitions, k)


class TestGateMonotonicity:
    @given(seed=st.integers(0, 2**16), taus=st.tuples(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @settings(deadline=None, max_examples=40)
    def test_raising_threshold_never_localizes_an_offload(self, seed, taus):
        lo, hi = min(taus), max(taus)
        rng = np.random.default_rng(seed)
        pm = make_partition_map(6, 3)
        ts = random_trace_set(rng, 60, 6, pm, k=2)
        a = collaborative_infer(ts, pm, lo, 2)
        b = collaborative_infer(ts, pm, hi, 2)
        assert (a.offloaded <= b.offloaded).all()

    def test_alpha_curve_monotone_with_exact_zero(self):
        rng = np.random.default_rng(5)
        pm = make_partition_map(6, 3)
        ts = random_trace_set(rng, 500, 6, pm, k=2)
        taus = [0.0, 0.2, 0.5, 0.7, 0.9, 1.0]
        curve = offload_proportion_curve(ts.edge, taus)
        alphas = [a for _, a in curve]
        assert alphas[0] == 0.0
        assert all(x <= y for x, y in zip(alphas, alphas[1:]))

    def test_alpha_hand_count(self):
        # confidences about 0.95, 0.8, 0.5 via crafted two-class logits
        logits = np.array(
            [[math.log(0.95 / 0.05), 0.0],
             [math.log(0.8 / 0.2), 0.0],
             [math.log(0.5 / 0.5), 0.0]],
            dtype=np.float32,
        )
        trace = PredictionTrace("edge", logits, np.zeros(3, dtype=np.int64))
        (tau, alpha), = offload_proportion_curve(trace, [0.9])
        assert alpha == pytest.approx(2 / 3)


def test_oracle_experts_error_structure():
    pm = make_partition_map(10, 5)
    ts = synthesize_trace_set(
        TraceTargets(topk_acc={1: 0.55, 2: 0.75}), pm, 2, 3000, seed=21,
        expert_in_accuracy=1.0, expert_out_accuracy=0.0,
    )
    outcome = collaborative_infer(ts, pm, 0.85, 2)
    labels = ts.labels
    wrong = outcome.predictions != labels
    confident_and_wrong = ~outcome.offloaded & (
        ts.edge.logits.argmax(axis=1) != labels
    )
    true_part = pm.assignment[labels]
    missed_domain = outcome.offloaded & np.array(
        [true_part[i] not in outcome.domains[i].indices for i in range(len(labels))]
    )
    assert np.array_equal(wrong, confident_and_wrong | missed_domain)
