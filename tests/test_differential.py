"""One drawn case through both trace sources: in memory, and written then loaded.

A loaded trace set holds its experts and near generalist as files that are
read in row blocks at each use. Every path that reads them must agree with
the in-memory set, read whole, on every drawn case: the routing primitives,
the sweep rows and baselines, the server's answers masked and unmasked, and
the near-edge generalist's top-1 accuracy. The loaded copy is read in
blocks of a few rows, so that every case spans several blocks, most with a
short last one.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from coinfer.cost import AGGREGATION_MODES, CommModel
from coinfer.data import builtin_device_profiles
from coinfer.harness import SweepConfig, run_sweep
from coinfer.partition import DomainSet, PartitionMap, enumerate_expert_domains
from coinfer.router import compute_routing_primitives, expert_argmax
from coinfer.trace import (
    PredictionTrace,
    TraceSet,
    load_trace_set,
    topk_accuracy,
    write_trace_set,
)
from coinfer.wire import NearEdgeServer, OffloadRequest, OffloadResponse
from conftest import lattice_logits

PROFILES = builtin_device_profiles()


@st.composite
def cases(draw):
    """A trace set with lattice logits (frequent ties), its partition map, and a sweep."""
    n = draw(st.integers(6, 24))
    s = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(3, s)))
    m = draw(st.integers(1, 300))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=s - 1, max_size=s - 1,
                                unique=True)))
    pm = PartitionMap([list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])], n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, n, size=m)

    def trace(name):
        return PredictionTrace(name, lattice_logits(rng, m, n), labels)

    domains = enumerate_expert_domains(s, k)
    ts = TraceSet(edge=trace("edge"), experts={d: trace(f"x{d.label}") for d in domains},
                  near_generalist=trace("near"))
    inner = draw(st.lists(st.sampled_from([0.05 * i for i in range(1, 20)]), max_size=3))
    aggregation = draw(st.sampled_from(AGGREGATION_MODES))
    cfg = SweepConfig(
        thresholds=tuple(sorted({1.0, 0.0, *inner}, reverse=True)),
        k=k, partitions="(in-memory)", manifest="(in-memory)", profiles="builtin",
        edge_profile=("rpi5", "deit-3h"), near_profile=("agx-orin", "deit-6h"),
        expert_profiles=(None if aggregation == "monolithic" else
                         {d.label: ("agx-orin", "deit-3h") for d in domains}),
        comm=CommModel(rtt_ms=2.0, per_sample_ms=0.1, per_sample_mj=0.5),
        aggregation=aggregation,
        batch_size=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**16)),
        shuffle=draw(st.booleans()),
        mask_to_domain=draw(st.booleans()),
    )
    block_rows = draw(st.integers(1, 9))
    return ts, pm, cfg, block_rows


def reference_refined(ts, pm, prims, mask):
    """Each sample's expert prediction, one logit row of the in-memory set at a time."""
    return [
        int(expert_argmax(ts.experts[dom].logits[i], pm.classes_in(dom) if mask else None))
        for i, dom in enumerate(prims.domains)
    ]


def primitive_fields(prims):
    return (prims.confidences.tobytes(), prims.local_predictions.tolist(), prims.topk.tolist(),
            prims.codes.tolist(), prims.domain_table, prims.refined.tolist())


def answers(ts, pm, k, mask, requests):
    server = NearEdgeServer(("127.0.0.1", 0), ts, pm, k, mask_to_domain=mask)
    try:
        return [server.answer(req) for req in requests]
    finally:
        server.shutdown()


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_in_memory_and_loaded_trace_sets_agree_on_every_path(case):
    ts, pm, cfg, block_rows = case
    k, mask = cfg.k, cfg.mask_to_domain
    order = np.random.default_rng(cfg.seed).permutation(ts.num_samples) if cfg.shuffle else None
    want = {m: compute_routing_primitives(ts, pm, k, m) for m in (False, True)}
    want_sweep = run_sweep(cfg, ts=ts, pm=pm, profiles=PROFILES)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("coinfer.trace._BLOCK_ROWS", block_rows), \
            mock.patch("coinfer.router._GATE_ROWS", block_rows):
        loaded = load_trace_set(write_trace_set(ts, tmp), pm, k)
        got = {m: compute_routing_primitives(loaded, pm, k, m) for m in (False, True)}
        shuffled = compute_routing_primitives(loaded, pm, k, mask, order=order)
        assert run_sweep(cfg, ts=loaded, pm=pm, profiles=PROFILES) == want_sweep
        assert topk_accuracy(loaded.near_generalist, 1) == topk_accuracy(ts.near_generalist, 1)

        for m in (False, True):
            assert primitive_fields(got[m]) == primitive_fields(want[m])
            assert got[m].refined.tolist() == reference_refined(ts, pm, want[m], m)
            # Every sample at its routed domain, then every library domain at one sample.
            prims = want[m]
            requests = [
                OffloadRequest(request_id=i, topk=tuple(prims.topk[i].tolist()), sample_index=i)
                for i in range(ts.num_samples)
            ]
            expected = list(zip(prims.refined.tolist(), prims.domains))
            last = ts.num_samples - 1
            for dom in ts.experts:
                classes = [int(pm.classes_in(DomainSet.of([p]))[0]) for p in dom.indices]
                requests.append(OffloadRequest(request_id=last, topk=tuple(classes),
                                               sample_index=last))
                allowed = pm.classes_in(dom) if m else None
                expected.append((int(expert_argmax(ts.experts[dom].logits[last], allowed)), dom))
            for source in (ts, loaded):
                replies = answers(source, pm, k, m, requests)
                assert all(isinstance(r, OffloadResponse) for r in replies)
                assert [(r.predicted_class, r.domain) for r in replies] == expected
    assert primitive_fields(shuffled) == primitive_fields(
        compute_routing_primitives(ts, pm, k, mask, order=order))
