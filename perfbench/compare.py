"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the run records ``run.py`` writes (``--out``). For
each workload and end-to-end metric it prints the median and quartiles
of the per-run values of each set, their spread (interquartile distance
over the median) and, given two sets, the change of the median and
whether it stays within the metric's bound. The exit code is 1 if any
spread (``setup_s`` excepted) or any worsening exceeds its bound.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> per-run values, from the end-to-end (trace 0) records."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0 and "metrics" in record:
            for name, metric in record["metrics"].items():
                out[record["workload"]][name].append(metric["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and interquartile spread over the median."""
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return mid, q1, q3, (q3 - q1) / mid


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load_set(d) for d in argv]
    failed = False
    for workload in sorted(sets[0]):
        print(f"== {workload}  runs: " + " vs ".join(
            str(len(next(iter(s[workload].values()), []))) for s in sets))
        for m in spec["end_to_end"]:
            cells, stats = [], []
            for s in sets:
                values = s[workload].get(m["name"])
                if not values:
                    cells.append("no runs")
                    continue
                mid, q1, q3, spread = summary(values)
                stats.append(mid)
                ok = m["name"] == "setup_s" or spread <= m["bound"]
                failed |= not ok
                cells.append(f"{mid:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}"
                             + ("" if ok else " OVER BOUND"))
            verdict = ""
            if len(stats) == 2:
                change = (stats[1] - stats[0]) / stats[0]
                worse = change if m["better"] == "lower" else -change
                within = worse <= m["bound"]
                failed |= not within
                verdict = f"change {change:+.3f} ({'within' if within else 'OUTSIDE'} bound)"
            print(f"  {m['name']:<22} bound {m['bound']:<5} " + " | ".join(cells) + f"  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
