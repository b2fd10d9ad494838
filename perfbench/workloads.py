"""The benchmark's workloads.

Each workload is one synthetic trace set (edge ``deit-3h`` targets, a
near-edge generalist at top-1 0.8836, 100,000 samples, generated from
the workload seed). A run sweeps it with ``coinfer sweep --config`` and
serves it with ``coinfer serve`` over loopback, so every end-to-end
metric is measured on every workload. The two trace sets differ in what
they stress:

* ``s8-mono`` is the paper-scale sweep: 36 experts plus the near
  generalist (1.5 GB on disk), so trace load and peak RSS are a large
  share of the sweep and the server holds the largest library; six
  thresholds priced monolithically.
* ``s4-wide`` has small traces (14 experts, 0.6 GB) and 21 thresholds,
  so per-threshold work dominates the sweep: the gate, the per-sample
  histogram loop and per-expert parallel pricing. It is the only
  workload that runs the masked refine, the shuffle, tau=1.0 (everything
  offloaded) and tau=0.0 (nothing offloaded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

NUM_SAMPLES = 100_000
EDGE_MODEL = "deit-3h"
NEAR_TOP1 = 0.8836
EDGE_PROFILE = {"device": "rpi5", "model": "deit-3h"}
NEAR_PROFILE = {"device": "agx-orin", "model": "deit-6h"}
# Threshold of the client pass and the paced phase.
WIRE_TAU = 0.9
# Paced offload rates (per second) and the share of --seconds spent at each.
PACED_RATES = ((500, 0.10), (2000, 0.05))
# Unmeasured lead-in on the paced connection (rate, seconds), so that the
# measured phases see a connection past its start-up ACK behaviour.
PACED_LEAD_IN = (2000, 0.25)
# Every PACED_PAIR_EVERY-th offload is due together with the one before it.
# Without TCP_NODELAY on the server, a response written while the previous
# one is still unacknowledged waits (Nagle) for the client's delayed ACK,
# which rides on the next request; once started, that stall persists. With
# strictly even spacing it started at a random offload or not at all, so
# the r500 median was bimodal (0.3 or 2.1 ms) from run to run; occasional
# pairs, as real arrivals have, start it early and reliably.
PACED_PAIR_EVERY = 100
# Paced percentiles are taken per window of this many offloads (a p90 then
# has 20 samples beyond it) and reported as their median over windows, so
# that a burst of CPU contention on the shared host moves one window, not
# the run's figure.
PACED_WINDOW = 200


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    partitions: str  # packaged partition scheme name
    k: int
    thresholds: tuple[float, ...]
    # Untraced sweeps per run: one after each set-up but the last, the rest after
    # the wire phase. More sweeps steady ``sweep_s`` but lengthen every run.
    sweeps: int
    sweep_options: dict = field(default_factory=dict)

    def sweep_config(self, manifest: str, seed: int) -> dict:
        """The ``coinfer sweep --config`` document for this workload."""
        doc = {
            "thresholds": list(self.thresholds),
            "k": self.k,
            "partitions": f"builtin:{self.partitions}",
            "manifest": manifest,
            "profiles": "builtin",
            "edge_profile": EDGE_PROFILE,
            "near_profile": NEAR_PROFILE,
            **self.sweep_options,
        }
        if doc.get("shuffle"):
            doc["seed"] = seed
        return doc


def _wide_expert_profiles() -> dict:
    # agx-orin runs deit-3h/-4h/-6h experts for domains of 1/2/3 partitions.
    models = {1: "deit-3h", 2: "deit-4h", 3: "deit-6h"}
    return {
        "+".join(map(str, combo)): {"device": "agx-orin", "model": models[size]}
        for size in (1, 2, 3)
        for combo in combinations(range(1, 5), size)
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="s8-mono",
            why="paper-scale 36-expert library (1.5 GB): trace load and RSS dominate; "
                "6 thresholds, monolithic pricing; served over loopback",
            partitions="cifar100-s8",
            k=2,
            thresholds=(0.99, 0.9, 0.8, 0.7, 0.6, 0.5),
            sweeps=3,
            sweep_options={"aggregation": "monolithic", "batch_size": 10},
        ),
        Workload(
            name="s4-wide",
            why="small 14-expert library, 21 thresholds: per-threshold gate, histogram "
                "and per-expert pricing dominate; masked, shuffled; served over loopback",
            partitions="cifar100-s4",
            k=3,
            thresholds=tuple(round(1.0 - 0.05 * i, 2) for i in range(21)),
            # Its sweep_s spread most from run to run on a shared 2-vCPU host
            # (mostly pure-Python per-threshold work); a fourth sweep steadies it.
            sweeps=4,
            sweep_options={
                "aggregation": "parallel",
                "expert_profiles": _wide_expert_profiles(),
                "batch_size": 32,
                "mask_to_domain": True,
                "shuffle": True,
                "comm": {"rtt_ms": 2, "per_sample_ms": 0.1, "per_sample_mj": 0.5},
            },
        ),
    )
}
