"""Median and quartiles of benchmark runs; with two logs, the paired wins.

    python3 perfbench/summarize.py runs.log               # one side
    python3 perfbench/summarize.py parent.log change.log  # compare

A log is the concatenated stdout of ``run.py`` runs.  The report line of
each run (the line before the result) carries every metric, so the
summary covers the full report, including the metrics that only some
workloads have, and the raw seconds next to the nominal ones.  Comparing
pairs runs of the same workload and seed and counts, per metric, the
pairs the second log wins; ties count for neither.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

HIGHER_IS_BETTER = ("verify_points_per_s", "mc_samples_per_s")


def read_reports(path: str) -> list:
    reports = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("{") and '"workload"' in line:
                reports.append(json.loads(line))
    return reports


def quartiles(values: list) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0, "runs": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def summarize(reports: list) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    for rep in reports:
        sections = {"per_layer": {**rep["metrics"], **rep["jobs"]}} if rep["trace"] else {
            "end_to_end": rep["metrics"], "raw": rep["raw"]}
        for section, metrics in sections.items():
            for name, m in metrics.items():
                values[(rep["workload"], section)][name].append(m["value"])
                units[name] = m["unit"]
    out: dict = defaultdict(dict)
    for (workload, section), metrics in sorted(values.items()):
        out[workload][section] = {
            name: {**quartiles(v), "unit": units[name]} for name, v in metrics.items()
        }
    return dict(out)


def paired_wins(parent: list, change: list) -> dict:
    """Per workload and metric: pairs the change wins, of pairs compared."""
    def key(rep):
        return rep["workload"], rep["seed"]

    base = {key(r): r for r in parent if not r["trace"]}
    wins: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for rep in change:
        other = base.get(key(rep))
        if rep["trace"] or other is None:
            continue
        for name, m in rep["metrics"].items():
            a, b = other["metrics"][name]["value"], m["value"]
            better = b > a if name in HIGHER_IS_BETTER else b < a
            tally = wins[rep["workload"]][name]
            tally[0] += better
            tally[1] += 1
    return {w: {n: f"{t[0]}/{t[1]}" for n, t in m.items()} for w, m in wins.items()}


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    logs = [read_reports(path) for path in argv]
    out = {path: summarize(reports) for path, reports in zip(argv, logs)}
    if len(logs) == 2:
        out["change_wins"] = paired_wins(*logs)
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
