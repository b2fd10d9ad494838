import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coinfer.cost import (
    BatchCost,
    CommModel,
    CostProfile,
    compose_batch_cost,
    load_cost_profiles,
)
from coinfer.errors import ConfigError
from coinfer.partition import DomainSet


def single_knot(device, model, batch, latency, energy=0.0):
    return CostProfile(device, model, (batch,), (latency,), (energy,))


class TestCostProfile:
    def test_exact_at_knots(self):
        p = CostProfile("d", "m", (10, 20), (88.7, 160.0), (1.0, 2.0))
        assert p.latency_at(10) == 88.7
        assert p.latency_at(20) == 160.0
        assert p.energy_at(20) == 2.0

    def test_implied_origin(self):
        p = single_knot("d", "m", 10, 88.7)
        assert p.latency_at(0) == 0.0

    def test_linear_interpolation(self):
        p = single_knot("d", "m", 10, 88.7)
        assert p.latency_at(5) == pytest.approx(44.35, abs=1e-9)

    def test_extrapolates_with_final_slope(self):
        p = CostProfile("d", "m", (10, 20), (100.0, 140.0), (0.0, 0.0))
        assert p.latency_at(30) == pytest.approx(180.0)
        # single knot: the origin-to-knot segment extends
        q = single_knot("d", "m", 10, 50.0)
        assert q.latency_at(25) == pytest.approx(125.0)

    def test_rejects_non_increasing_batches(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            CostProfile("d", "m", (10, 10), (1.0, 2.0), (0.0, 0.0))

    def test_rejects_negative_values(self):
        with pytest.raises(ConfigError):
            CostProfile("d", "m", (10,), (-1.0,), (0.0,))

    def test_rejects_negative_batch_query(self):
        p = single_knot("d", "m", 10, 1.0)
        with pytest.raises(ValueError):
            p.latency_at(-1)

    @given(
        knots=st.lists(
            st.tuples(st.integers(1, 100), st.floats(0.0, 1e4)),
            min_size=1, max_size=5,
            unique_by=lambda t: t[0],
        ),
        query=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_monotone_when_knots_monotone(self, knots, query):
        knots = sorted(knots)
        lats = sorted(v for _, v in knots)
        p = CostProfile("d", "m", tuple(b for b, _ in knots), tuple(lats), tuple(lats))
        assert p.latency_at(query) <= p.latency_at(query + 1.0) + 1e-9


    @given(
        knots=st.lists(
            st.tuples(st.integers(1, 100), st.floats(0.0, 1e4), st.floats(0.0, 1e4)),
            min_size=1, max_size=5,
            unique_by=lambda t: t[0],
        ),
        queries=st.lists(st.integers(0, 300), min_size=1, max_size=20),
    )
    def test_array_query_equals_scalar_calls(self, knots, queries):
        knots = sorted(knots)
        p = CostProfile("d", "m", tuple(b for b, _, _ in knots),
                        tuple(t for _, t, _ in knots), tuple(e for _, _, e in knots))
        # 0, the last knot and one past it, besides the drawn queries
        batch = np.array(queries + [0, knots[-1][0], knots[-1][0] + 1])
        for price in (p.latency_at, p.energy_at):
            scalar = [price(int(b)) for b in batch]
            assert all(type(v) is float for v in scalar)
            assert price(batch).tolist() == scalar


class TestCommModel:
    def test_zero_offload_costs_nothing(self):
        c = CommModel(rtt_ms=5.0, per_sample_ms=1.0, per_sample_mj=2.0)
        assert c.latency_ms(0) == 0.0
        assert c.energy_mj(0) == 0.0

    def test_affine_in_count(self):
        c = CommModel(rtt_ms=5.0, per_sample_ms=0.5, per_sample_mj=2.0)
        assert c.latency_ms(4) == 7.0
        assert c.energy_mj(4) == 8.0

    def test_array_counts_equal_scalar_calls(self):
        c = CommModel(rtt_ms=2.0, per_sample_ms=0.1, per_sample_mj=0.5)
        n = np.array([0, 1, 3, 32, 1000])
        assert c.latency_ms(n).tolist() == [c.latency_ms(int(x)) for x in n]
        assert c.energy_mj(n).tolist() == [c.energy_mj(int(x)) for x in n]

    def test_rejects_negative_terms(self):
        with pytest.raises(ConfigError):
            CommModel(rtt_ms=-1.0)


class TestComposeBatchCost:
    def test_no_offload_is_edge_only(self):
        edge = single_knot("e", "m", 10, 45.5)
        near = single_knot("n", "m", 10, 27.6)
        cost = compose_batch_cost(10, {}, edge, near_profile=near,
                                  comm=CommModel(rtt_ms=5.0))
        assert cost.t_total_ms == 45.5
        assert cost.t_comm_ms == 0.0

    def test_monolithic_worked_example(self):
        edge = single_knot("e", "m", 10, 45.5)
        near = single_knot("n", "m", 10, 27.6)
        hist = {DomainSet.of([1]): 10}
        cost = compose_batch_cost(10, hist, edge, near_profile=near,
                                  comm=CommModel(rtt_ms=5.0))
        assert cost.t_edge_ms == 45.5
        assert cost.t_near_ms == 27.6
        assert cost.t_comm_ms == 5.0
        assert cost.t_total_ms == pytest.approx(78.1, abs=1e-9)

    def test_serial_sums_parallel_takes_max(self):
        edge = single_knot("e", "m", 10, 0.0)
        profs = {
            DomainSet.of([1]): single_knot("n", "a", 10, 30.0),
            DomainSet.of([2]): single_knot("n", "b", 10, 50.0),
        }
        hist = {DomainSet.of([1]): 10, DomainSet.of([2]): 10}
        serial = compose_batch_cost(20, hist, edge, expert_profiles=profs,
                                    aggregation="serial")
        parallel = compose_batch_cost(20, hist, edge, expert_profiles=profs,
                                      aggregation="parallel")
        assert serial.t_near_ms == pytest.approx(80.0)
        assert parallel.t_near_ms == pytest.approx(50.0)
        # energy adds in both modes
        assert serial.e_near_mj == parallel.e_near_mj

    def test_monolithic_single_expert_equals_serial(self):
        edge = single_knot("e", "m", 10, 10.0)
        near = single_knot("n", "a", 10, 30.0)
        hist = {DomainSet.of([2]): 7}
        mono = compose_batch_cost(10, hist, edge, near_profile=near)
        serial = compose_batch_cost(10, hist, edge,
                                    expert_profiles={DomainSet.of([2]): near},
                                    aggregation="serial")
        assert mono == serial

    def test_missing_expert_profile_is_an_error(self):
        edge = single_knot("e", "m", 10, 10.0)
        hist = {DomainSet.of([3]): 2}
        with pytest.raises(ConfigError, match="3"):
            compose_batch_cost(10, hist, edge,
                               expert_profiles={DomainSet.of([1]): edge},
                               aggregation="serial")

    def test_offload_beyond_batch_rejected(self):
        edge = single_knot("e", "m", 10, 10.0)
        with pytest.raises(ValueError):
            compose_batch_cost(5, {DomainSet.of([1]): 6}, edge, near_profile=edge)

    def test_decomposition_identity(self):
        edge = single_knot("e", "m", 10, 45.5, energy=3.0)
        near = single_knot("n", "m", 10, 27.6, energy=5.0)
        cost = compose_batch_cost(
            10, {DomainSet.of([1]): 4}, edge, near_profile=near,
            comm=CommModel(rtt_ms=2.0, per_sample_ms=0.25, per_sample_mj=0.5),
        )
        assert cost.t_total_ms == cost.t_edge_ms + cost.t_near_ms + cost.t_comm_ms
        assert cost.e_total_mj == cost.e_edge_mj + cost.e_near_mj + cost.e_comm_mj

    @given(b_off=st.integers(0, 10), b_off2=st.integers(0, 10))
    def test_monotone_in_offload_count(self, b_off, b_off2):
        if b_off > b_off2:
            b_off, b_off2 = b_off2, b_off
        edge = single_knot("e", "m", 10, 45.5, energy=1.0)
        near = single_knot("n", "m", 10, 27.6, energy=1.0)
        comm = CommModel(rtt_ms=1.0, per_sample_ms=0.1, per_sample_mj=0.1)
        lo = compose_batch_cost(10, {DomainSet.of([1]): b_off}, edge,
                                near_profile=near, comm=comm)
        hi = compose_batch_cost(10, {DomainSet.of([1]): b_off2}, edge,
                                near_profile=near, comm=comm)
        assert lo.t_total_ms <= hi.t_total_ms + 1e-12
        assert lo.e_total_mj <= hi.e_total_mj + 1e-12


class TestLoadCostProfiles:
    def test_loads_document(self, tmp_path):
        doc = {
            "profiles": [
                {"device": "d", "model": "m",
                 "points": [{"batch": 10, "latency_ms": 88.7, "energy_mj": 4.0}]}
            ]
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        profiles = load_cost_profiles(path)
        assert profiles[("d", "m")].latency_at(10) == 88.7

    def test_power_converts_to_energy(self):
        doc = {
            "profiles": [
                {"device": "d", "model": "m",
                 "points": [{"batch": 10, "latency_ms": 100.0, "power_w": 2.5}]}
            ]
        }
        profiles = load_cost_profiles(doc)
        assert profiles[("d", "m")].energy_at(10) == pytest.approx(250.0)

    def test_requires_exactly_one_energy_field(self):
        doc = {
            "profiles": [
                {"device": "d", "model": "m",
                 "points": [{"batch": 1, "latency_ms": 1.0,
                             "energy_mj": 1.0, "power_w": 1.0}]}
            ]
        }
        with pytest.raises(ConfigError, match="exactly one"):
            load_cost_profiles(doc)

    def test_rejects_duplicate_batches(self):
        doc = {
            "profiles": [
                {"device": "d", "model": "m",
                 "points": [{"batch": 10, "latency_ms": 1.0, "energy_mj": 0.0},
                            {"batch": 10, "latency_ms": 2.0, "energy_mj": 0.0}]}
            ]
        }
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_cost_profiles(doc)

    def test_rejects_duplicate_profile_keys(self):
        entry = {"device": "d", "model": "m",
                 "points": [{"batch": 1, "latency_ms": 1.0, "energy_mj": 0.0}]}
        with pytest.raises(ConfigError, match="duplicate"):
            load_cost_profiles({"profiles": [entry, dict(entry)]})
