"""Command-line interface.

Subcommands: simulate, sweep, serve, client, synth, validate,
sched-eval. Exit codes: 0 success, 2 validation/config error, 3
runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .cost import AGGREGATION_MODES
from .data import (
    builtin_model_names,
    builtin_model_targets,
    builtin_partition_names,
    load_partition_spec,
    load_profile_spec,
)
from .errors import CoinferError, ConfigError
from .harness import SweepConfig, emit_report, run_sweep
from .router import collaborative_infer
from .schedule import DistillBatch, WeightSchedule, weighted_distill_loss
from .trace import (
    TraceTargets,
    load_trace_set,
    synthesize_trace_set,
    write_trace_set,
)
from .wire import NearEdgeServer, run_edge_client


def _addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"address must look like host:port, port 0-65535, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _print_outcome(outcome, dump_path: str | None):
    print(f"samples: {outcome.predictions.shape[0]}")
    print(f"threshold: {outcome.threshold:.6g}")
    print(f"accuracy: {outcome.accuracy:.6g}")
    print(f"offloaded: {outcome.offload_count} (alpha={outcome.offload_proportion:.6g})")
    hist = " ".join(
        f"{d.label}:{outcome.histogram[d]}" for d in sorted(outcome.histogram)
    )
    print(f"offload histogram: {hist if hist else '(none)'}")
    if dump_path:
        Path(dump_path).write_bytes(outcome.predictions.astype("<u4").tobytes())
        print(f"predictions written to {dump_path}")


def _cmd_simulate(args) -> int:
    pm = load_partition_spec(args.partitions)
    ts = load_trace_set(args.manifest, pm, args.k)
    outcome = collaborative_infer(ts, pm, args.tau, args.k, mask_to_domain=args.mask_to_domain)
    _print_outcome(outcome, args.dump_predictions)
    return 0


def _cmd_sweep(args) -> int:
    if args.config:
        cfg = SweepConfig.from_file(args.config)
    else:
        required = ("taus", "k", "partitions", "manifest", "profiles",
                    "edge_device", "edge_model", "near_device", "near_model")
        missing = [f"--{name.replace('_', '-')}" for name in required
                   if getattr(args, name) in (None, [])]
        if missing:
            raise ConfigError(f"without --config, these flags are required: {missing}")
        cfg = SweepConfig(
            thresholds=tuple(args.taus),
            k=args.k,
            partitions=args.partitions,
            manifest=args.manifest,
            profiles=args.profiles,
            edge_profile=(args.edge_device, args.edge_model),
            near_profile=(args.near_device, args.near_model),
            aggregation=args.aggregation,
            batch_size=args.batch_size,
            seed=args.seed,
            shuffle=args.shuffle,
            mask_to_domain=args.mask_to_domain,
        )
    result = run_sweep(cfg)
    csv_path, json_path = emit_report(result, args.output)
    print(f"report written: {csv_path} {json_path}")
    return 0


def _cmd_serve(args) -> int:
    addr = _addr(args.listen)
    pm = load_partition_spec(args.partitions)
    ts = load_trace_set(args.manifest, pm, args.k)
    server = NearEdgeServer(addr, ts, pm, args.k, mask_to_domain=args.mask_to_domain)
    host, port = server.address
    print(f"near-edge server listening on {host}:{port} "
          f"({len(ts.experts)} experts, k={args.k})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
    return 0


def _cmd_client(args) -> int:
    addr = _addr(args.server)
    pm = load_partition_spec(args.partitions)
    ts = load_trace_set(args.manifest)
    outcome = run_edge_client(
        addr, ts.edge, pm, args.tau, args.k,
        timeout=args.timeout, retries=args.retries,
    )
    _print_outcome(outcome, args.dump_predictions)
    return 0


def _cmd_synth(args) -> int:
    pm = load_partition_spec(args.partitions)
    if args.model:
        targets = builtin_model_targets(args.model)
    else:
        if args.top1 is None:
            raise ConfigError("give either --model or --top1 (optionally --top2/--top3)")
        topk = {1: args.top1}
        if args.top2 is not None:
            topk[2] = args.top2
        if args.top3 is not None:
            topk[3] = args.top3
        targets = TraceTargets(topk_acc=topk)
    if args.classes is not None and pm.num_classes != args.classes:
        raise ConfigError(
            f"partition scheme covers {pm.num_classes} classes, --classes says {args.classes}"
        )
    ts = synthesize_trace_set(
        targets, pm, args.k, args.samples, args.seed,
        expert_in_accuracy=args.expert_in_acc,
        expert_out_accuracy=args.expert_out_acc,
        near_generalist_top1=args.near_top1,
        edge_name=args.model or "edge-synthetic",
    )
    manifest = write_trace_set(ts, args.out)
    print(f"manifest written: {manifest}")
    print(f"samples={ts.num_samples} classes={ts.num_classes} experts={len(ts.experts)}")
    return 0


def _cmd_validate(args) -> int:
    checked = False
    pm = None
    if args.partitions:
        pm = load_partition_spec(args.partitions)
        print(f"OK partitions: {pm.num_partitions} partitions over {pm.num_classes} classes")
        checked = True
    if args.manifest:
        if pm is not None:
            ts = load_trace_set(args.manifest, pm, args.k)
        else:
            ts = load_trace_set(args.manifest)
        print(f"OK manifest: {ts.num_samples} samples, {ts.num_classes} classes, "
              f"{len(ts.experts)} experts"
              + (" (coverage checked)" if pm is not None else ""))
        checked = True
    if args.profiles:
        profiles = load_profile_spec(args.profiles)
        print(f"OK profiles: {len(profiles)} device/model pairs")
        checked = True
    if args.sweep_config:
        SweepConfig.from_file(args.sweep_config)
        print("OK sweep config")
        checked = True
    if not checked:
        raise ConfigError("nothing to validate; give --partitions, --manifest, "
                          "--profiles, or --sweep-config")
    return 0


def _cmd_sched_eval(args) -> int:
    schedule = WeightSchedule(max_weight=args.max_weight, total_epochs=args.total_epochs)
    scale = schedule.scaling_factor(args.epoch)
    print(f"scaling factor at epoch {args.epoch:.6g}/{args.total_epochs}: {scale:.6g}")
    print(f"sample weight (in domain): {scale:.6g}")
    print("sample weight (out of domain): 1")
    if args.logits is not None:
        row = np.array([float(x) for x in args.logits.split(",")], dtype=np.float64)
        batch = DistillBatch(
            student_logits=row[None, :],
            true_labels=np.array([args.true_label]),
            teacher_labels=np.array([args.teacher_label]),
            in_domain=np.array([args.in_domain]),
        )
        loss, _ = weighted_distill_loss(schedule, args.epoch, batch)
        print(f"single-sample weighted loss: {loss:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinfer",
        description="Trace-driven edge/near-edge collaborative inference toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=True):
        p.add_argument("--partitions", required=True,
                       help="partition config path or builtin:<name> "
                            f"(builtin names: {', '.join(builtin_partition_names())})")
        if with_k:
            p.add_argument("--k", type=int, default=2, help="top-k routing width")

    p = sub.add_parser("simulate", help="run collaborative inference at one threshold")
    p.add_argument("--manifest", required=True, help="trace manifest path")
    add_common(p)
    p.add_argument("--tau", type=float, required=True, help="confidence threshold in [0,1]")
    p.add_argument("--mask-to-domain", action="store_true",
                   help="restrict expert predictions to the routed domain's classes")
    p.add_argument("--dump-predictions", help="write final predictions as u32 LE binary")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="evaluate a threshold list and write CSV+JSON reports")
    p.add_argument("--config", help="sweep config JSON (overrides the individual flags)")
    p.add_argument("--taus", type=float, nargs="*", default=[],
                   help="thresholds, descending")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--partitions")
    p.add_argument("--manifest")
    p.add_argument("--profiles", help="cost profile document path or 'builtin'")
    p.add_argument("--edge-device")
    p.add_argument("--edge-model")
    p.add_argument("--near-device")
    p.add_argument("--near-model")
    p.add_argument("--aggregation", default="monolithic", choices=AGGREGATION_MODES)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--mask-to-domain", action="store_true")
    p.add_argument("--output", required=True, help="report base path (writes .csv and .json)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("serve", help="run the near-edge expert server")
    p.add_argument("--listen", default="127.0.0.1:7071", help="host:port to bind")
    p.add_argument("--manifest", required=True)
    add_common(p)
    p.add_argument("--mask-to-domain", action="store_true")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("client", help="run the edge client against a server")
    p.add_argument("--server", required=True, help="server host:port")
    p.add_argument("--manifest", required=True, help="manifest providing the edge trace")
    add_common(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--dump-predictions")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("synth", help="generate a calibrated synthetic trace set")
    add_common(p)
    p.add_argument("--model", choices=builtin_model_names(),
                   help="builtin calibration target")
    p.add_argument("--top1", type=float, help="custom top-1 accuracy target")
    p.add_argument("--top2", type=float)
    p.add_argument("--top3", type=float)
    p.add_argument("--classes", type=int, default=None,
                   help="cross-check against the partition scheme's class count")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expert-in-acc", type=float, default=1.0,
                   help="expert accuracy on its own domain")
    p.add_argument("--expert-out-acc", type=float, default=None,
                   help="expert accuracy off-domain (default: follow the edge model)")
    p.add_argument("--near-top1", type=float, default=None,
                   help="also generate a near-edge generalist trace at this top-1")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="lint configs, manifests, and profile documents")
    p.add_argument("--partitions")
    p.add_argument("--manifest")
    p.add_argument("--profiles", help="cost profile document path or 'builtin'")
    p.add_argument("--sweep-config")
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sched-eval", help="spot-evaluate the progressive weighting math")
    p.add_argument("--epoch", type=float, required=True)
    p.add_argument("--total-epochs", type=int, default=200)
    p.add_argument("--max-weight", type=float, default=14.0)
    p.add_argument("--logits", help="comma-separated student logits for a one-sample loss")
    p.add_argument("--true-label", type=int, default=0)
    p.add_argument("--teacher-label", type=int, default=0)
    p.add_argument("--in-domain", action="store_true")
    p.set_defaults(func=_cmd_sched_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoinferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
