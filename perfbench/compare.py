"""Compare two sets of benchmark results, or report one set's spread.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR

Each directory holds the result files ``run.py`` writes (untraced runs;
traced ones are skipped).  With two sets, every workload and end-to-end
metric of ``BENCHMARK.json`` gets one row: each side's median and
quartiles, the ratio change/parent with its base, the pairs the change
won, and a verdict:

* ``improved`` — the change wins at least 9 of every 10 pairs (the i-th
  runs of the same workload and seed on each side; ties count for
  neither side), the medians differ by more than the parent's quartile
  spread, and the change fails no larger share of its operations;
* ``unresolved`` — the parent's own spread is wider than the metric's
  bound, and not every change run beats every parent run;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — none of the above.

With one set, each row gives the median, quartiles and the spread
(quartile distance ÷ median) next to the metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metrics() -> List[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


class ResultSet:
    """The untraced runs of one directory.

    ``values[(workload, metric)][seed]`` lists that seed's runs in file
    name order (run start time), so a seed run several times keeps every
    run; ``failed[workload]`` is failed ÷ attempted over all its runs.
    """

    def __init__(self, directory: str):
        self.values: Dict[Tuple[str, str], Dict[int, List[float]]] = \
            defaultdict(lambda: defaultdict(list))
        counts: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                record = json.load(f)
            if record.get("trace"):
                continue
            workload, seed = record["workload"], record["seed"]
            for metric, entry in record["metrics"].items():
                self.values[(workload, metric)][seed].append(entry["value"])
            counts[workload][0] += record["failed"]
            counts[workload][1] += record["attempted"]
        self.failed = {workload: failed / max(attempted, 1)
                       for workload, (failed, attempted) in counts.items()}

    def flat(self, key: Tuple[str, str]) -> List[float]:
        return [value for runs in self.values[key].values() for value in runs]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: Dict[int, List[float]],
          change: Dict[int, List[float]]) -> List[Tuple[float, float]]:
    """(parent, change) runs of the same seed, the i-th run with the i-th."""
    return [pair for seed in sorted(set(parent) & set(change))
            for pair in zip(parent[seed], change[seed])]


def verdict(metric: dict, parent: List[float], change: List[float],
            paired: List[Tuple[float, float]],
            fails_no_more: bool) -> Tuple[str, int]:
    """``fails_no_more``: the change's failed share of operations is no
    greater than the parent's; without it no gain counts."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    if (fails_no_more and paired and wins * 10 >= 9 * len(paired)
            and sign * (cm - pm) > p3 - p1):
        return "improved", wins
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if spread > metric["bound"]:
        if sign > 0:
            all_better = min(change) > max(parent)
        else:
            all_better = max(change) < min(parent)
        if not all_better:
            return "unresolved", wins
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    if worse > metric["bound"]:
        return "regressed", wins
    return "unchanged", wins


def _cell(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = load_metrics()
    sets = [ResultSet(path) for path in args]
    workloads = sorted({w for results in sets for (w, _) in results.values})
    for workload in workloads:
        for metric in metrics:
            key = (workload, metric["name"])
            if any(not results.values.get(key) for results in sets):
                continue
            label = f"{workload:12s} {metric['name']:12s} {metric['unit']:6s}"
            parent = sets[0].flat(key)
            if len(sets) == 1:
                q1, q2, q3 = quartiles(parent)
                spread = (q3 - q1) / abs(q2) if q2 else 0.0
                print(f"{label} {_cell(parent)}  spread {spread:.3f} of "
                      f"median (bound {metric['bound']})")
                continue
            change = sets[1].flat(key)
            paired = pairs(sets[0].values[key], sets[1].values[key])
            fails_no_more = (sets[1].failed[workload]
                             <= sets[0].failed[workload])
            outcome, wins = verdict(metric, parent, change, paired,
                                    fails_no_more)
            pm = quartiles(parent)[1]
            cm = quartiles(change)[1]
            ratio = f"{cm / pm:.3f}" if pm else "n/a"
            print(f"{label} parent {_cell(parent)} | change {_cell(change)} "
                  f"| change/parent {ratio} (base: parent median {pm:.4g} "
                  f"{metric['unit']}) | wins {wins}/{len(paired)} | bound "
                  f"{metric['bound']} | {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
