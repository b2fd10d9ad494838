"""coinfer benchmark: threshold sweeps and loopback serving, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source tree that holds ``src/coinfer``; the
package is imported from there, nothing is installed. For each workload
(see ``workloads.py``) one run:

1. sets up three times: synthesizes the trace set from ``--seed`` and
   writes it (what ``coinfer synth`` does), then starts ``coinfer serve``
   on it and waits until it accepts a connection; after each set-up but
   the last it runs ``coinfer sweep --config`` in a fresh child process;
2. replays the workload through the server: a warm-up ``run_edge_client``
   pass, measured passes for a quarter of ``--seconds`` (at least one),
   then, over one connection, an open-loop paced phase at each rate of
   ``PACED_RATES``;
3. sweeps again until it has swept the workload's ``sweeps`` times and
   for half of ``--seconds``;
4. checks every output and counts failed operations.

The sweeps are spread over the run because this host's CPU speed drifts
over tens of seconds: the median of sweeps taken far apart varies less
from run to run than that of sweeps taken back to back.

With ``--trace 1`` it also runs one sweep with spans around every call
into ``trace``, ``router`` and ``harness``, replays the sweep's batch
pricing through ``cost``, and times ``partition`` and ``wire`` calls
in-process; it then reports the per-layer metrics of BENCHMARK.json
instead of the end-to-end ones. A human-readable table precedes the
final JSON line; the full record of the run, spans included, is written
under ``--out`` (default ``perfbench/out/runs``). Trace loads read from a
warm page cache, because the files were just written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Offloads per request type in the in-process wire timings.
CODEC_SAMPLE = 20_000
# End-to-end figures that every run prints but BENCHMARK.json does not gate:
# on a shared 2-vCPU host their interquartile spread over five to ten runs
# reached 0.2-0.3 of the median (client throughput; paced p50 at 2000/s,
# whose 0.5 ms spacing leaves little slack when the host is busy) and
# 0.7-2.8 (paced p90s), so they are reported as these per-layer metrics instead.
UNGATED = {
    "wire.client_offloads_per_s": "client_offloads_per_s",
    "wire.offload_p50_ms.r2000": "offload_p50_ms_r2000",
    "wire.offload_p90_ms.r500": "offload_p90_ms_r500",
    "wire.offload_p90_ms.r2000": "offload_p90_ms_r2000",
}


def _run_child(argv: list[str], cwd: Path, env: dict, timeout: float) -> dict:
    """Run one child.py stage; its last stdout line is a JSON object."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.read_bytes())
    return digest.hexdigest()


def _loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def _provenance() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "coinfer").rglob("*")):
        if p.suffix in (".py", ".json"):
            src.update(p.relative_to(ROOT).as_posix().encode() + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "loadavg_start": _loadavg(),
        "page_cache": "warm: every trace load reads files written moments before; "
                      "a cold-cache load is not measured",
    }


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Run:
    """Samples, per-layer values, checks and operation counts of one workload run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.layer: dict[str, float] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(float(value))

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    def ops(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed


def _setup(w, seed: int, work: Path, env: dict, server=None) -> dict:
    """Synthesize and write the trace set, then start and stop the server if given."""
    shutil.rmtree(work / "traces", ignore_errors=True)
    s = _run_child(["synth", "--partitions", w.partitions, "--k", str(w.k),
                    "--seed", str(seed), "--out", "traces"], work, env, timeout=120)
    if server is not None:
        with server() as srv:
            s["ready_s"] = srv.ready_s
    # Flush the write, so that its writeback does not compete with the sweep after it.
    for path in (work / "traces").iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    return s


def _sweep(work: Path, env: dict, run: Run, digests: list):
    """One untraced sweep; appends its reports' digests (None if it failed) to ``digests``."""
    base = f"report_{len(digests)}"
    try:
        r = _run_child(["sweep", "--config", "sweep.json", "--output", base],
                       work, env, timeout=150)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        run.check(f"sweep {base} ran", False, str(exc)[-300:])
        digests.append(None)
        return
    run.add("sweep_s", r["wall_s"])
    run.add("sweep_peak_rss_mb", r["peak_rss_mb"])
    digests.append((_sha256(work / f"{base}.csv"), _sha256(work / f"{base}.json")))


def _traced_sweep(work: Path, env: dict) -> dict:
    """One sweep with spans; the parent derives the per-layer metrics from it."""
    traced = _run_child(["sweep", "--config", "sweep.json", "--output", "traced",
                         "--spans", "spans.json"], work, env, timeout=150)
    return {"traced": traced,
            "spans": json.loads((work / "spans.json").read_text(encoding="utf-8"))}


def _check_sweep_rows(report: Path, ts, pm, w, mask: bool, prims, run: Run) -> bool:
    """Each row's offload count, accuracy and histogram equal ``collaborative_infer``."""
    from coinfer import collaborative_infer

    bad = []
    for row in json.loads(report.read_text(encoding="utf-8"))["rows"]:
        ref = collaborative_infer(ts, pm, row["tau"], w.k, mask_to_domain=mask, primitives=prims)
        hist = {d.label: c for d, c in ref.histogram.items()}
        if (row["offload_count"], row["accuracy"], row["offload_histogram"]) != (
            ref.offload_count, float(f"{ref.accuracy:.6g}"), hist
        ):
            bad.append(row["tau"])
    run.check("sweep rows equal collaborative_infer", not bad, f"mismatched taus {bad}")
    return not bad


def _wire_timings(ts, pm, k: int, prims, rows, run: Run):
    """In-process per-call costs of routing, request building, codec and answer."""
    from coinfer import NearEdgeServer, OffloadRequest, decode, domain_of_topk, encode

    from wire_bench import timed_each

    rows = rows[:CODEC_SAMPLE].tolist()
    top = prims.topk
    run.layer["partition.domain_of_topk_us"], _ = timed_each(
        lambda i: domain_of_topk(pm, top[i]), rows)
    run.layer["wire.request_build_us"], reqs = timed_each(
        lambda i: OffloadRequest(request_id=i, topk=tuple(int(c) for c in top[i]),
                                 sample_index=i), rows)
    run.layer["wire.encode_us"], frames = timed_each(encode, reqs)
    run.layer["wire.decode_request_us"], _ = timed_each(decode, frames)
    # Started before use so that shutdown() has a serve loop to stop.
    server = NearEdgeServer(("127.0.0.1", 0), ts, pm, k).start_background()
    try:
        run.layer["wire.answer_us"], answers = timed_each(server.answer, reqs)
    finally:
        server.shutdown()
    replies = [encode(a) for a in answers]
    run.layer["wire.decode_response_us"], _ = timed_each(decode, replies)
    run.layer["wire.frame_bytes_per_offload"] = float(
        np.mean([len(a) + len(b) for a, b in zip(frames, replies)]))


def _paced_stats(res: dict, phase: int, rows, prims, rate: int, run: Run):
    """Latency from due time, server and network time, generator lateness, failures.

    The end-to-end percentiles are taken per window of ``PACED_WINDOW``
    consecutive offloads, so the run reports their median over windows.
    """
    from coinfer import ErrorMsg, OffloadResponse
    from workloads import PACED_WINDOW

    lat, server_us, network, errors, bad = [], [], [], 0, 0
    for j, i in enumerate(rows):
        got = res["received"].get(phase << 32 | int(i))
        msg = got[1] if got else None
        ok = (isinstance(msg, OffloadResponse) and msg.predicted_class == prims.refined[i]
              and msg.domain == prims.domains[i])
        errors += isinstance(msg, ErrorMsg)
        if not ok:
            bad += 1
            lat.append(res["end"] - res["due"][j])  # a failure misses every latency limit
            continue
        lat.append(got[0] - res["due"][j])
        server_us.append(msg.server_latency_us)
        network.append(got[0] - res["sent"][j] - msg.server_latency_us / 1e6)
    late = (res["sent"] - res["due"]) * 1e3
    tag = f"r{rate}"
    for q in (50, 90):
        for start in range(0, len(lat), PACED_WINDOW):
            run.add(f"offload_p{q}_ms_{tag}", _pct(lat[start:start + PACED_WINDOW], q) * 1e3)
    run.layer[f"wire.offload_p99_ms.{tag}"] = _pct(lat, 99) * 1e3
    run.layer[f"wire.server_latency_us_p50.{tag}"] = _pct(server_us, 50) if server_us else 0.0
    run.layer[f"wire.network_ms_p50.{tag}"] = _pct(network, 50) * 1e3 if network else 0.0
    run.layer[f"wire.gen_late_ms_p99.{tag}"] = float(np.nanpercentile(late, 99))
    run.layer["wire.gen_late_ms_max"] = max(run.layer.get("wire.gen_late_ms_max", 0.0),
                                           float(np.nanmax(late)))
    run.layer["wire.errors"] = run.layer.get("wire.errors", 0) + errors
    run.check(f"paced {tag} responses equal compute_routing_primitives", bad == 0,
              f"{bad} of {len(rows)} offloads failed")
    run.ops(len(rows), bad)


def _client_passes(srv, edge, pm, w, budget_s: float, expected, run: Run):
    """A warm-up pass, then measured passes for ``budget_s`` (at least one); all checked."""
    from coinfer import CoinferError, run_edge_client
    from workloads import WIRE_TAU

    cpu0, passes, offloads, failed = srv.cpu_s(), 0, 0, 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < budget_s:
        passes += 1
        t0 = time.perf_counter()
        try:
            out = run_edge_client(srv.addr, edge, pm, WIRE_TAU, w.k, timeout=30.0, retries=0)
        except (CoinferError, OSError) as exc:
            run.check(f"client pass {passes} ran", False, str(exc))
            failed += 1
            continue
        wall = time.perf_counter() - t0
        if not (np.array_equal(out.predictions, expected.predictions)
                and np.array_equal(out.offloaded, expected.offloaded)
                and dict(out.histogram) == dict(expected.histogram)):
            failed += 1
            continue
        offloads += out.offload_count
        if passes > 1:
            run.add("client_offloads_per_s", out.offload_count / wall)
    run.layer["wire.server_cpu_us_per_offload"] = (
        (srv.cpu_s() - cpu0) * 1e6 / offloads if offloads else 0.0)
    run.check("client passes bit-identical to collaborative_infer", failed == 0,
              f"{failed} of {passes} passes failed")
    run.ops(passes, failed)


def _paced(srv, seconds: float, prims, rows, run: Run):
    """A lead-in, then each rate of ``PACED_RATES`` in turn, over one connection."""
    from coinfer import OffloadRequest, encode
    from workloads import PACED_LEAD_IN, PACED_PAIR_EVERY, PACED_RATES

    from wire_bench import paced

    lead_rate, lead_s = PACED_LEAD_IN
    phases = [(lead_rate, rows[:int(lead_rate * lead_s)])] + [
        (rate, rows[:int(rate * share * seconds)]) for rate, share in PACED_RATES]
    frames = [
        [encode(OffloadRequest(request_id=phase << 32 | int(i),
                               topk=tuple(int(c) for c in prims.topk[i]), sample_index=int(i)))
         for i in phase_rows]
        for phase, (_, phase_rows) in enumerate(phases)
    ]
    with socket.create_connection(srv.addr, timeout=5.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for phase, (rate, phase_rows) in enumerate(phases):
            res = paced(sock, frames[phase], rate, PACED_PAIR_EVERY)
            if res["error"]:
                run.check(f"paced phase {phase} at {rate}/s completed", False, res["error"])
            if phase:
                _paced_stats(res, phase, phase_rows, prims, rate, run)


def _layers_from_sweep(sw: dict, run: Run):
    """Per-layer metrics of the traced sweep."""
    from spans import nesting_errors, self_times_ns, totals_s

    spans, traced = sw["spans"], sw["traced"]
    tot = totals_s(spans)

    def total(name, key="total_s"):
        return tot.get(name, {}).get(key, 0.0)

    taus = tot.get("router.apply_gate", {}).get("calls", 0)
    self_sum = sum(self_times_ns(spans).values()) / 1e9
    errors = nesting_errors(spans)
    untraced = median(run.samples["sweep_s"])
    overhead = traced["wall_s"] - untraced
    run.layer.update({
        "trace.load_s": total("trace.load_trace_set"),
        "trace.load_rss_mb": traced["load_rss_mb"],
        "trace.shuffle_s": total("trace.shuffle_trace_set"),
        "router.gate_signals_s": total("router.gate_signals"),
        "router.refine_s": total("router.compute_routing_primitives", "self_s"),
        "router.apply_gate_ms": total("router.apply_gate") / max(taus, 1) * 1e3,
        "router.offload_count": traced["offload_count"],
        "router.domains_routed": traced["domains_routed"],
        "cost.compose_calls": traced["compose_calls"],
        "cost.compose_s": traced["compose_s"],
        "cost.compose_us_per_call": traced["compose_s"] / traced["compose_calls"] * 1e6,
        "cost.baseline_s": total("harness.baseline_costs"),
        "harness.run_sweep_s": total("harness.run_sweep"),
        "harness.self_s": total("harness.run_sweep", "self_s") - traced["compose_s"],
        "harness.emit_ms": total("harness.emit_report") * 1e3,
        "cli.self_s": total("cli.main", "self_s"),
        "cli.tracing_overhead_s": overhead,
    })
    # Nested spans whose self times sum to the traced wall time account for all
    # of it, so that sum differs from sweep_s by exactly the tracing overhead.
    run.check("span self times add up to sweep_s within the tracing overhead",
              not errors and abs(self_sum - traced["wall_s"]) < 1e-6,
              f"self times sum to {self_sum:.4f} s, traced wall {traced['wall_s']:.4f} s, "
              f"untraced sweep_s {untraced:.4f} s; nesting errors {errors[:3]}")
    run.check("replayed batch pricing equals the report totals", traced["replay_mismatches"] == 0,
              f"{traced['replay_mismatches']} mismatched cost fields")
    return {name: {k: round(v, 6) for k, v in row.items()} for name, row in tot.items()}


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    from coinfer import collaborative_infer, compute_routing_primitives, load_trace_set
    from coinfer.data import load_builtin_partitions
    from workloads import WIRE_TAU

    from wire_bench import ServerChild

    run = Run()
    prov = _provenance()
    work = HERE / "out" / "work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    manifest = "traces/manifest.json"

    def server():
        return ServerChild(str(work), env, manifest, w.partitions, w.k, str(work / "server.log"))

    setups, digests, sw = [], [], {}
    phases = {"setup_s": 0.0, "sweeps_s": 0.0}

    def timed(phase: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - t0

    try:
        cfg = w.sweep_config(manifest, seed)
        (work / "sweep.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        for i in range(SETUP_REPEATS):
            # The last set-up's server start opens the wire phase.
            setups.append(timed("setup_s", _setup, w, seed, work, env,
                                server if i < SETUP_REPEATS - 1 else None))
            if i < w.sweeps - 1:
                timed("sweeps_s", _sweep, work, env, run, digests)

        t_phase = time.perf_counter()
        pm = load_builtin_partitions(w.partitions)
        ts = load_trace_set(work / manifest, pm, w.k)
        mask = bool(cfg.get("mask_to_domain"))
        prims = compute_routing_primitives(ts, pm, w.k, mask_to_domain=mask)
        first = next((i for i, d in enumerate(digests) if d), None)
        rows_ok = first is not None and _check_sweep_rows(
            work / f"report_{first}.json", ts, pm, w, mask, prims, run)
        trace_bytes = sum(p.stat().st_size for p in (work / "traces").glob("*.bin"))
        if mask:  # the server refines unmasked, as `coinfer serve` does by default
            prims = compute_routing_primitives(ts, pm, w.k)
        expected = collaborative_infer(ts, pm, WIRE_TAU, w.k, primitives=prims)
        rows = np.flatnonzero(expected.offloaded)
        if trace:
            _wire_timings(ts, pm, w.k, prims, rows, run)
        edge = ts.edge
        del ts
        phases["check_s"] = time.perf_counter() - t_phase
        t_phase = time.perf_counter()
        with server() as srv:
            setups[-1]["ready_s"] = srv.ready_s
            _client_passes(srv, edge, pm, w, 0.25 * seconds, expected, run)
            _paced(srv, seconds, prims, rows, run)
            run.add("server_peak_rss_mb", srv.peak_rss_mb())
        phases["wire_s"] = time.perf_counter() - t_phase

        while len(digests) < w.sweeps or phases["sweeps_s"] < 0.5 * seconds:
            timed("sweeps_s", _sweep, work, env, run, digests)
        reference = digests[first] if first is not None else None
        run.check("sweep reports byte-identical across repeats",
                  reference is not None and all(d == reference for d in digests),
                  f"csv sha256 {reference[0]} json sha256 {reference[1]}" if reference else "")
        run.ops(len(digests), sum(d != reference or not rows_ok for d in digests))
        if trace:
            sw = timed("traced_sweep_s", _traced_sweep, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for s in setups:
        run.add("setup_s", s["synth_s"] + s["write_s"] + s["ready_s"])
    run.layer["trace.synth_s"] = median(s["synth_s"] for s in setups)
    run.layer["trace.write_s"] = median(s["write_s"] for s in setups)
    run.layer["ops_failed_frac"] = run.failed / run.attempted
    span_table = _layers_from_sweep(sw, run) if trace else None
    run.layer["trace.load_mb"] = trace_bytes / 2**20
    for name, series in UNGATED.items():
        run.layer[name] = median(run.samples[series])
    prov["loadavg_end"] = _loadavg()
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": prov, "phase_wall_s": phases, "samples": run.samples, "setups": setups,
        "per_layer": run.layer, "spans_by_name": span_table,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "report_sha256": reference,
        "spans": sw.get("spans"),
        "attempted": run.attempted, "failed": run.failed,
        "correct": run.failed == 0 and all(ok for _, ok, _ in run.checks),
    }


def _metrics(record: dict, spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{record['workload']}: metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _print_table(record: dict, spec: dict):
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"seconds={record['seconds']}  commit={record['provenance']['git_commit'][:12]}  "
          f"load {record['provenance']['loadavg_start']} -> {record['provenance']['loadavg_end']}")
    gated = {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({series: next(m["unit"] for m in spec["per_layer"] if m["name"] == name)
                  for name, series in UNGATED.items()})
    for name, vals in record["samples"].items():
        print(f"  {name:<24} {median(vals):>12.4f} {units[name]:<6} "
              f"median of n={len(vals)}  [min {min(vals):.4f}, max {max(vals):.4f}]"
              + ("" if name in gated else "  (not gated: too noisy on this host)"))
    print(f"  {'ops_failed_frac':<24} {record['per_layer']['ops_failed_frac']:>12.4f} {'1':<6} "
          f"{record['failed']} of {record['attempted']} operations failed "
          "(not in BENCHMARK.json: it is 0 on a correct run; `failed` gates it)")
    if record["trace"]:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<34} {record['per_layer'][m['name']]:>14.4f} {m['unit']}")
    for c in record["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + (f": {c['detail']}" if c["detail"] else ""))


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out" / "runs"),
                        help="directory for the full record of each run")
    args = parser.parse_args(argv)
    # Terminated, unwind as on an error, so that every child process is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "coinfer" / "__init__.py").is_file():
        print(f"error: no coinfer source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        values = (record["per_layer"] if args.trace else
                  {k: median(v) for k, v in record["samples"].items()})
        record["metrics"] = _metrics(record, spec["per_layer" if args.trace else "end_to_end"],
                                     values)
        path = out_dir / f"{name}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        _print_table(record, spec)
        print(f"  record: {path}")
        results.append(record)

    metrics = (results[0]["metrics"] if len(results) == 1 else
               {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
