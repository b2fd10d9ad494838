import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from coinfer.cost import BatchCost, CommModel, CostProfile, compose_batch_cost
from coinfer.data import builtin_device_profiles
from coinfer.errors import ConfigError
from coinfer.harness import (
    SweepConfig,
    baseline_costs,
    emit_report,
    load_report,
    roi_ratios,
    run_sweep,
)
from coinfer.partition import DomainSet, enumerate_expert_domains
from coinfer.router import apply_gate, compute_routing_primitives
from coinfer.trace import TraceTargets, shuffle_trace_set, synthesize_trace_set, topk_accuracy
from conftest import make_partition_map


def toy_profiles():
    edge = CostProfile("edge-dev", "small", (10,), (100.0,), (50.0,))
    near = CostProfile("near-dev", "big", (10,), (30.0,), (200.0,))
    return {("edge-dev", "small"): edge, ("near-dev", "big"): near}


def toy_config(**overrides):
    base = dict(
        thresholds=(0.9, 0.5, 0.0),
        k=2,
        partitions="(in-memory)",
        manifest="(in-memory)",
        profiles="(in-memory)",
        edge_profile=("edge-dev", "small"),
        near_profile=("near-dev", "big"),
        comm=CommModel(rtt_ms=5.0, per_sample_ms=0.5, per_sample_mj=1.0),
        batch_size=10,
    )
    base.update(overrides)
    return SweepConfig(**base)


def toy_world(seed=0, m=400, n=8, s=4, near_top1=0.6):
    pm = make_partition_map(n, s)
    ts = synthesize_trace_set(
        TraceTargets(topk_acc={1: 0.55, 2: 0.8}), pm, 2, m,
        seed=seed, near_generalist_top1=near_top1,
    )
    return pm, ts


class TestSweepConfig:
    def test_thresholds_must_descend(self):
        with pytest.raises(ConfigError, match="descending"):
            toy_config(thresholds=(0.5, 0.9))

    def test_thresholds_must_be_probabilities(self):
        with pytest.raises(ConfigError, match=r"\[0,1\]"):
            toy_config(thresholds=(1.5,))

    def test_bad_normalize_target(self):
        with pytest.raises(ConfigError, match="normalize_against"):
            toy_config(normalize_against="cloud_only")

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError, match="batch_size"):
            toy_config(batch_size=0)

    def test_from_mapping_round_trip(self):
        doc = {
            "thresholds": [0.9, 0.5],
            "k": 2,
            "partitions": "builtin:cifar100-s4",
            "manifest": "traces/manifest.json",
            "profiles": "builtin",
            "edge_profile": {"device": "rpi5", "model": "deit-3h"},
            "near_profile": {"device": "agx-orin", "model": "deit-base"},
            "comm": {"rtt_ms": 5.0},
            "batch_size": 10,
            "seed": 7,
        }
        cfg = SweepConfig.from_mapping(doc)
        assert cfg.thresholds == (0.9, 0.5)
        assert cfg.edge_profile == ("rpi5", "deit-3h")
        assert cfg.comm.rtt_ms == 5.0
        assert cfg.comm.per_sample_ms == 0.0
        assert cfg.seed == 7

    def test_from_mapping_rejects_unknown_keys(self):
        doc = {"thresholds": [0.9], "k": 2, "partitions": "p", "manifest": "m",
               "profiles": "q",
               "edge_profile": {"device": "a", "model": "b"},
               "near_profile": {"device": "c", "model": "d"},
               "bogus": 1}
        with pytest.raises(ConfigError, match="bogus"):
            SweepConfig.from_mapping(doc)

    def test_from_mapping_rejects_missing_keys(self):
        with pytest.raises(ConfigError, match="missing"):
            SweepConfig.from_mapping({"thresholds": [0.9]})

    def test_from_mapping_rejects_bad_profile_shape(self):
        doc = {"thresholds": [0.9], "k": 2, "partitions": "p", "manifest": "m",
               "profiles": "q", "edge_profile": "rpi5/deit-3h",
               "near_profile": {"device": "c", "model": "d"}}
        with pytest.raises(ConfigError, match="edge_profile"):
            SweepConfig.from_mapping(doc)

    def test_from_mapping_rejects_unknown_comm_keys(self):
        doc = {"thresholds": [0.9], "k": 2, "partitions": "p", "manifest": "m",
               "profiles": "q",
               "edge_profile": {"device": "a", "model": "b"},
               "near_profile": {"device": "c", "model": "d"},
               "comm": {"rtt_ms": 1.0, "bandwidth": 5}}
        with pytest.raises(ConfigError, match="comm"):
            SweepConfig.from_mapping(doc)


class TestRoiRatios:
    def test_positive_gain(self):
        lat, en = roi_ratios(0.9, 0.8, 20.0, 10.0, 7.0, 2.0)
        assert lat == pytest.approx(0.1 / 10.0)
        assert en == pytest.approx(0.1 / 5.0)

    def test_no_extra_cost_is_undefined(self):
        lat, en = roi_ratios(0.9, 0.8, 10.0, 10.0, 1.0, 2.0)
        assert lat is None and en is None

    def test_zero_gain_is_zero_not_none(self):
        lat, en = roi_ratios(0.8, 0.8, 20.0, 10.0, 7.0, 2.0)
        assert lat == 0.0 and en == 0.0


class TestBaselines:
    def test_edge_only_matches_trace_top1(self):
        pm, ts = toy_world(seed=1)
        rows = baseline_costs(toy_config(), ts, toy_profiles())
        edge = rows["edge_only"]
        assert edge.alpha == 0.0
        assert edge.accuracy == topk_accuracy(ts.edge, 1)
        prims = compute_routing_primitives(ts, pm, 2)
        reused = baseline_costs(toy_config(), ts, toy_profiles(), prims)["edge_only"]
        assert reused == edge
        # 40 batches of 10, no offloads, no comm
        assert edge.cost.t_total_ms == pytest.approx(40 * 100.0)
        assert edge.cost.t_comm_ms == 0.0
        assert edge.cost.e_total_mj == pytest.approx(40 * 50.0)

    def test_near_only_charges_near_and_comm_not_edge(self):
        pm, ts = toy_world(seed=1)
        cfg = toy_config()
        rows = baseline_costs(cfg, ts, toy_profiles())
        near = rows["near_edge_only"]
        assert near.alpha == 1.0
        per_batch = 30.0 + 5.0 + 0.5 * 10
        assert near.cost.t_total_ms == pytest.approx(40 * per_batch)
        assert near.cost.t_edge_ms == 0.0
        assert near.cost.e_total_mj == pytest.approx(40 * (200.0 + 10.0))

    def test_near_accuracy_from_generalist_trace(self):
        pm, ts = toy_world(seed=2, near_top1=0.6)
        rows = baseline_costs(toy_config(), ts, toy_profiles())
        assert rows["near_edge_only"].accuracy == topk_accuracy(ts.near_generalist, 1)

    def test_near_accuracy_none_without_generalist(self):
        pm = make_partition_map(8, 4)
        ts = synthesize_trace_set(
            TraceTargets(topk_acc={1: 0.55, 2: 0.8}), pm, 2, 100, seed=3)
        rows = baseline_costs(toy_config(), ts, toy_profiles())
        assert rows["near_edge_only"].accuracy is None

    def test_builtin_profile_knot_prices_batch_exactly(self):
        profiles = builtin_device_profiles()
        prof = profiles[("agx-orin", "deit-6h")]
        assert prof.latency_at(10) == pytest.approx(27.6, abs=1e-12)
        pm, ts = toy_world(seed=4, m=20)
        cfg = toy_config(
            edge_profile=("rpi5", "deit-3h"),
            near_profile=("agx-orin", "deit-6h"),
            comm=CommModel(),
        )
        rows = baseline_costs(cfg, ts, profiles)
        assert rows["near_edge_only"].cost.t_total_ms == pytest.approx(2 * 27.6)
        assert rows["edge_only"].cost.t_total_ms == pytest.approx(2 * 691.1)


class TestRunSweep:
    def test_threshold_zero_row_equals_edge_baseline(self):
        pm, ts = toy_world(seed=5)
        cfg = toy_config(thresholds=(0.0,))
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        row = result.rows[0]
        edge = result.baselines["edge_only"]
        assert row.alpha == 0.0
        assert row.offload_count == 0
        assert row.accuracy == edge.accuracy
        assert row.cost == edge.cost
        assert row.latency_vs_baseline == pytest.approx(1.0)
        assert row.energy_vs_baseline == pytest.approx(1.0)

    def test_alpha_monotone_in_threshold(self):
        pm, ts = toy_world(seed=6)
        cfg = toy_config(thresholds=(1.0, 0.9, 0.7, 0.5, 0.0))
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        alphas = [row.alpha for row in result.rows]
        assert alphas == sorted(alphas, reverse=True)
        assert result.rows[-1].alpha == 0.0

    def test_costs_price_realized_histogram(self):
        pm, ts = toy_world(seed=7, m=95)
        cfg = toy_config(thresholds=(0.8,))
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        row = result.rows[0]
        # reprice by hand: 9 full batches at the knot, one of 5 on the
        # origin-to-knot segment (half the knot latency)
        assert row.num_batches == 10
        assert sum(row.histogram.values()) == row.offload_count
        assert row.cost.t_edge_ms == pytest.approx(9 * 100.0 + 50.0)

    def test_accuracy_independent_of_profiles(self):
        pm, ts = toy_world(seed=8)
        cfg = toy_config(thresholds=(0.9, 0.5))
        a = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        cheap = {
            ("edge-dev", "small"): CostProfile("edge-dev", "small", (1,), (1.0,), (1.0,)),
            ("near-dev", "big"): CostProfile("near-dev", "big", (1,), (1.0,), (1.0,)),
        }
        b = run_sweep(cfg, ts=ts, pm=pm, profiles=cheap)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.accuracy == rb.accuracy
            assert ra.alpha == rb.alpha
            assert ra.histogram == rb.histogram
            assert ra.cost != rb.cost

    def test_serial_aggregation_requires_expert_profiles(self):
        pm, ts = toy_world(seed=9)
        cfg = toy_config(aggregation="serial")
        with pytest.raises(ConfigError, match="expert_profiles"):
            run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())

    def test_missing_profile_key_is_config_error(self):
        pm, ts = toy_world(seed=9)
        cfg = toy_config(edge_profile=("missing-dev", "small"))
        with pytest.raises(ConfigError, match="missing-dev"):
            run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())

    def test_shuffle_same_seed_same_result(self):
        pm, ts = toy_world(seed=10)
        cfg = toy_config(thresholds=(0.7,), shuffle=True, seed=123)
        a = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        b = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        assert a.rows[0].accuracy == b.rows[0].accuracy
        assert a.rows[0].histogram == b.rows[0].histogram
        assert a.rows[0].cost == b.rows[0].cost

    def test_shuffle_preserves_stream_accuracy(self):
        pm, ts = toy_world(seed=11)
        plain = run_sweep(toy_config(thresholds=(0.7,)), ts=ts, pm=pm,
                          profiles=toy_profiles())
        mixed = run_sweep(toy_config(thresholds=(0.7,), shuffle=True, seed=5),
                          ts=ts, pm=pm, profiles=toy_profiles())
        # a permutation moves samples between batches but not the totals
        assert mixed.rows[0].accuracy == plain.rows[0].accuracy
        assert mixed.rows[0].offload_count == plain.rows[0].offload_count
        assert mixed.rows[0].histogram == plain.rows[0].histogram


def reference_sweep(cfg, ts, pm, profiles):
    """The per-batch pricing loop, one sample and one batch at a time.

    Per threshold: histograms built in sample order, one
    compose_batch_cost call per batch, summed one BatchCost at a time.
    """
    prims = compute_routing_primitives(ts, pm, cfg.k, cfg.mask_to_domain)
    experts = None
    if cfg.expert_profiles is not None:
        experts = {DomainSet.from_label(label): profiles[key]
                   for label, key in cfg.expert_profiles.items()}
    m, bs = ts.num_samples, cfg.batch_size
    sizes = [bs] * (m // bs) + ([m % bs] if m % bs else [])
    rows = []
    for tau in cfg.thresholds:
        outcome = apply_gate(prims, ts.labels, tau)
        total = BatchCost(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        histogram: dict = {}
        start = 0
        for b in sizes:
            hist: dict = {}
            for i in range(start, start + b):
                if outcome.offloaded[i]:
                    dom = outcome.domains[i]
                    hist[dom] = hist.get(dom, 0) + 1
                    histogram[dom] = histogram.get(dom, 0) + 1
            total = total + compose_batch_cost(
                b, hist, profiles[cfg.edge_profile],
                near_profile=profiles[cfg.near_profile], expert_profiles=experts,
                comm=cfg.comm, aggregation=cfg.aggregation,
            )
            start += b
        rows.append((outcome.offload_count, histogram, total, outcome.accuracy))
    return rows


def assert_rows_equal_reference(rows, want):
    assert len(rows) == len(want)
    for row, (count, histogram, total, accuracy) in zip(rows, want):
        assert row.offload_count == count
        assert row.histogram == histogram
        assert row.accuracy == accuracy
        for field in ("t_edge_ms", "t_near_ms", "t_comm_ms",
                      "e_edge_mj", "e_near_mj", "e_comm_mj"):
            assert getattr(row.cost, field) == pytest.approx(
                getattr(total, field), rel=1e-12, abs=0.0
            ), field


class TestPricingMatchesPerBatchReference:
    @staticmethod
    def world():
        pm, ts = toy_world(seed=31, m=95, n=12, s=4)  # the tenth batch holds 5
        profiles = dict(toy_profiles())
        labels = {}
        for j, dom in enumerate(enumerate_expert_domains(4, 2)):
            key = ("expert-dev", dom.label)
            profiles[key] = CostProfile(
                *key, (2, 6), (3.0 + 1.7 * j, 9.5 + 2.3 * j), (0.7 + 0.45 * j, 2.9 + 1.1 * j)
            )
            labels[dom.label] = key
        return pm, ts, profiles, labels

    @pytest.mark.parametrize("aggregation", ["monolithic", "serial", "parallel"])
    def test_run_sweep_totals_equal_reference(self, aggregation):
        pm, ts, profiles, labels = self.world()
        cfg = toy_config(
            thresholds=(1.0, 0.8, 0.6, 0.3, 0.0),
            aggregation=aggregation,
            expert_profiles=labels,
        )
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=profiles)
        want = reference_sweep(cfg, ts, pm, profiles)
        assert result.rows[0].offload_count == ts.num_samples  # tau=1 offloads all
        assert result.rows[-1].offload_count == 0
        assert_rows_equal_reference(result.rows, want)

    @pytest.mark.parametrize("mask", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("aggregation", ["monolithic", "serial", "parallel"])
    def test_shuffled_sweep_equals_reference_on_shuffled_traces(self, aggregation, mask):
        pm, ts, profiles, labels = self.world()
        # A concave near-edge curve, so that monolithic totals depend on which
        # samples share a batch, as the per-expert ones do.
        profiles[("near-dev", "big")] = CostProfile(
            "near-dev", "big", (1, 3, 6), (5.0, 8.0, 9.0), (2.0, 3.5, 4.0)
        )
        cfg = toy_config(
            thresholds=(1.0, 0.8, 0.6, 0.3, 0.0),
            aggregation=aggregation,
            expert_profiles=labels,
            shuffle=True,
            seed=77,
            mask_to_domain=mask,
        )
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=profiles)
        shuffled = shuffle_trace_set(ts, cfg.seed)
        assert_rows_equal_reference(result.rows, reference_sweep(cfg, shuffled, pm, profiles))
        assert result.baselines["edge_only"].accuracy == topk_accuracy(shuffled.edge, 1)
        assert result.baselines["near_edge_only"].accuracy == topk_accuracy(
            shuffled.near_generalist, 1
        )


class TestReports:
    def test_csv_and_json_round_trip(self, tmp_path):
        pm, ts = toy_world(seed=12, m=60)
        cfg = toy_config(thresholds=(0.9, 0.5))
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        csv_path, json_path = emit_report(result, tmp_path / "report")
        assert csv_path.name == "report.csv"
        doc = load_report(json_path)
        assert doc["num_samples"] == 60
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["tau"] == 0.9
        assert doc["config"]["edge_profile"] == {"device": "edge-dev", "model": "small"}
        assert set(doc["baselines"]) == {"edge_only", "near_edge_only"}

    def test_repeat_emission_is_byte_identical(self, tmp_path):
        pm, ts = toy_world(seed=13, m=60)
        cfg = toy_config(thresholds=(0.9, 0.5))
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        p1 = emit_report(result, tmp_path / "a")
        result2 = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        p2 = emit_report(result2, tmp_path / "b")
        assert p1[0].read_bytes() == p2[0].read_bytes()
        assert p1[1].read_bytes() == p2[1].read_bytes()

    def test_empty_threshold_list_gives_header_only_csv(self, tmp_path):
        pm, ts = toy_world(seed=14, m=40)
        cfg = toy_config(thresholds=())
        result = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
        csv_path, json_path = emit_report(result, tmp_path / "empty")
        lines = csv_path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1  # just the column header
        assert data[0].startswith("tau,alpha,accuracy")
        assert any("baseline edge_only" in c for c in comments)
        assert any("baseline near_edge_only" in c for c in comments)
        assert json.loads(json_path.read_text())["rows"] == []

    def test_no_timestamps_in_output(self, tmp_path):
        pm, ts = toy_world(seed=15, m=40)
        result = run_sweep(toy_config(thresholds=(0.5,)), ts=ts, pm=pm,
                           profiles=toy_profiles())
        csv_path, json_path = emit_report(result, tmp_path / "r")
        text = csv_path.read_text() + json_path.read_text()
        assert "2025" not in text and "2026" not in text

    def test_load_report_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ConfigError, match="schema"):
            load_report(path)
        path.write_text("5")
        named = re.escape(f"{path}: document must be a JSON object")
        with pytest.raises(ConfigError, match=named):
            load_report(path)

    @pytest.mark.parametrize("expert_profiles", [
        None, {"1": ("near-dev", "big"), "2+3": ("near-dev", "big")},
    ], ids=["without-expert-profiles", "with-expert-profiles"])
    def test_report_config_loads_back_equal(self, tmp_path, expert_profiles):
        pm, ts = toy_world(seed=12, m=60)
        cfg = toy_config(thresholds=(0.9, 0.5), expert_profiles=expert_profiles)
        _, json_path = emit_report(
            run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles()), tmp_path / "report"
        )
        assert SweepConfig.from_mapping(load_report(json_path)["config"]) == cfg

    def test_histogram_serialization_sorted_by_domain(self, tmp_path):
        pm, ts = toy_world(seed=16, m=200)
        result = run_sweep(toy_config(thresholds=(0.95,)), ts=ts, pm=pm,
                           profiles=toy_profiles())
        _, json_path = emit_report(result, tmp_path / "h")
        doc = load_report(json_path)
        hist = doc["rows"][0]["offload_histogram"]
        keys = list(hist)
        assert keys == sorted(keys, key=lambda s: [int(x) for x in s.split("+")])
        assert sum(hist.values()) == doc["rows"][0]["offload_count"]


def test_sweep_from_files_end_to_end(tmp_path):
    # everything goes through the path-based loaders, as the CLI would
    from coinfer.partition import DomainSet
    from coinfer.trace import write_trace_set

    pm = make_partition_map(8, 4)
    ts = synthesize_trace_set(
        TraceTargets(topk_acc={1: 0.55, 2: 0.8}), pm, 2, 120,
        seed=17, near_generalist_top1=0.6,
    )
    manifest = write_trace_set(ts, tmp_path / "traces")
    partitions_path = tmp_path / "partitions.json"
    partitions_path.write_text(json.dumps({
        "num_classes": 8,
        "partitions": [
            [int(c) for c in pm.classes_in(DomainSet.of([p]))]
            for p in range(1, 5)
        ],
    }))
    profiles_path = tmp_path / "profiles.json"
    profiles_path.write_text(json.dumps({
        "profiles": [
            {"device": "edge-dev", "model": "small",
             "points": [{"batch": 10, "latency_ms": 100.0, "energy_mj": 50.0}]},
            {"device": "near-dev", "model": "big",
             "points": [{"batch": 10, "latency_ms": 30.0, "energy_mj": 200.0}]},
        ]
    }))
    cfg = toy_config(
        partitions=str(partitions_path),
        manifest=str(manifest),
        profiles=str(profiles_path),
        thresholds=(0.8, 0.3),
    )
    result = run_sweep(cfg)
    assert result.num_samples == 120
    assert result.rows[0].alpha >= result.rows[1].alpha
    in_memory = run_sweep(cfg, ts=ts, pm=pm, profiles=toy_profiles())
    for a, b in zip(result.rows, in_memory.rows):
        assert a.accuracy == b.accuracy
        assert a.cost == b.cost


def test_benchmark_workload_configs_load(monkeypatch):
    # The benchmark feeds each workload's sweep config to SweepConfig.from_mapping.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        doc = workload.sweep_config("manifest.json", seed=7)
        cfg = SweepConfig.from_mapping(doc)
        assert cfg.thresholds == workload.thresholds
        assert cfg.comm == CommModel(**doc.get("comm", {}))
