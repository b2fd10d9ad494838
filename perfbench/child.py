"""Child-process stages of the benchmark, each timed from a fresh interpreter.

    python3 perfbench/child.py synth --partitions cifar100-s4 --k 3 --seed 7 --out DIR
    python3 perfbench/child.py sweep --config CFG --output BASE [--spans FILE]

``coinfer`` must be importable (the parent puts ``src`` on PYTHONPATH).
Each stage prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

from spans import Tracer
from workloads import EDGE_MODEL, NEAR_TOP1, NUM_SAMPLES


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def synth(args) -> dict:
    """What ``coinfer synth`` does: synthesize the trace set, then write it."""
    from coinfer import synthesize_trace_set, write_trace_set
    from coinfer.data import builtin_model_targets, load_builtin_partitions

    pm = load_builtin_partitions(args.partitions)
    targets = builtin_model_targets(EDGE_MODEL)
    t0 = time.perf_counter()
    ts = synthesize_trace_set(
        targets, pm, args.k, NUM_SAMPLES, args.seed,
        near_generalist_top1=NEAR_TOP1, edge_name=EDGE_MODEL,
    )
    t1 = time.perf_counter()
    write_trace_set(ts, args.out)
    t2 = time.perf_counter()
    return {"synth_s": t1 - t0, "write_s": t2 - t1, "peak_rss_mb": _peak_rss_mb()}


def _install_spans(tracer: Tracer, captured: dict):
    """Span every call the sweep makes into trace, router and harness."""
    import coinfer.cli
    import coinfer.harness
    import coinfer.router

    load = coinfer.harness.load_trace_set

    def load_measuring_rss(*args, **kwargs):
        before = _rss_bytes()
        ts = load(*args, **kwargs)
        captured["load_rss_mb"] = (_rss_bytes() - before) / 2**20
        return ts

    def keep_primitives(args, result):
        captured["ts"], captured["primitives"] = args[0], result

    coinfer.harness.load_trace_set = load_measuring_rss
    tracer.wrap(coinfer.harness, "load_trace_set", "trace.load_trace_set")
    tracer.wrap(coinfer.harness, "shuffle_trace_set", "trace.shuffle_trace_set")
    tracer.wrap(coinfer.harness, "compute_routing_primitives",
                "router.compute_routing_primitives", on_call=keep_primitives)
    tracer.wrap(coinfer.router, "gate_signals", "router.gate_signals")
    tracer.wrap(coinfer.harness, "apply_gate", "router.apply_gate")
    tracer.wrap(coinfer.harness, "baseline_costs", "harness.baseline_costs")
    tracer.wrap(coinfer.cli, "run_sweep", "harness.run_sweep")
    tracer.wrap(coinfer.cli, "emit_report", "harness.emit_report")


def _replay_compose(config_path: str, report_path: str, captured: dict) -> dict:
    """Re-price the sweep's per-batch histograms through ``compose_batch_cost``.

    The histograms are built (in sample order, as the sweep builds them)
    before the timed region; the timed region is the calls alone. The
    per-threshold totals must match the report.
    """
    from coinfer import BatchCost, DomainSet, SweepConfig, compose_batch_cost
    from coinfer.data import builtin_device_profiles
    from coinfer.router import apply_gate

    with open(config_path, encoding="utf-8") as fh:
        cfg = SweepConfig.from_mapping(json.load(fh))
    with open(report_path, encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    profiles = builtin_device_profiles()
    experts = None
    if cfg.expert_profiles is not None:
        experts = {DomainSet.from_label(label): profiles[key]
                   for label, key in cfg.expert_profiles.items()}
    ts, prims = captured["ts"], captured["primitives"]
    m, bs = ts.num_samples, cfg.batch_size
    sizes = [bs] * (m // bs) + ([m % bs] if m % bs else [])

    calls = []
    offloads = 0
    for tau in cfg.thresholds:
        outcome = apply_gate(prims, ts.labels, tau)
        offloads += outcome.offload_count
        hists = [{} for _ in sizes]
        for i in np.flatnonzero(outcome.offloaded).tolist():
            hist = hists[i // bs]
            dom = prims.domains[i]
            hist[dom] = hist.get(dom, 0) + 1
        calls.extend(zip(sizes, hists))

    edge, near = profiles[cfg.edge_profile], profiles[cfg.near_profile]
    start = time.perf_counter_ns()
    costs = [
        compose_batch_cost(b, hist, edge, near_profile=near, expert_profiles=experts,
                           comm=cfg.comm, aggregation=cfg.aggregation)
        for b, hist in calls
    ]
    compose_ns = time.perf_counter_ns() - start

    mismatches = 0
    for j, row in enumerate(rows):
        total = BatchCost(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for c in costs[j * len(sizes):(j + 1) * len(sizes)]:
            total = total + c
        for key, value in row["cost"].items():
            if float(f"{getattr(total, key):.6g}") != value:
                mismatches += 1
    return {
        "compose_calls": len(calls),
        "compose_s": compose_ns / 1e9,
        "replay_mismatches": mismatches,
        "offload_count": offloads,
        "domains_routed": len(set(prims.domains)),
    }


def sweep(args) -> dict:
    """``coinfer sweep --config``, timed around ``coinfer.cli.main``; spanned with --spans."""
    import coinfer.cli

    argv = ["sweep", "--config", args.config, "--output", args.output]
    if not args.spans:
        t0 = time.perf_counter()
        rc = coinfer.cli.main(argv)
        wall = time.perf_counter() - t0
        return {"rc": rc, "wall_s": wall, "peak_rss_mb": _peak_rss_mb()}

    tracer = Tracer(run_id=f"sweep-{os.getpid()}-{time.time_ns()}")
    captured: dict = {}
    _install_spans(tracer, captured)
    with tracer.span("cli.main") as root:
        rc = coinfer.cli.main(argv)
    out = {
        "rc": rc,
        "wall_s": (root["end_ns"] - root["start_ns"]) / 1e9,
        "peak_rss_mb": _peak_rss_mb(),
        "load_rss_mb": captured.get("load_rss_mb"),
    }
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    if rc == 0:
        out.update(_replay_compose(args.config, args.output + ".json", captured))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="stage", required=True)
    p = sub.add_parser("synth")
    p.add_argument("--partitions", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=synth)
    p = sub.add_parser("sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--spans")
    p.set_defaults(func=sweep)
    args = parser.parse_args()
    result = args.func(args)
    print(json.dumps(result), flush=True)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
