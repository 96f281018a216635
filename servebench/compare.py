"""Compare benchmark reports of a parent commit and a change.

    python3 servebench/compare.py --parent P1.json ... --change C1.json ...

Each report is the output of ``run.py --output`` (a full report, or one
pass of one workload). Reports are paired in the order given, so run
them alternately (parent, change, parent, ...). For every end-to-end
(metric, workload) row the bound and direction come from
``BENCHMARK.json``, and the row is labelled:

* ``regressed`` — the change's median is worse than the parent's by
  more than the bound, and either the parent's quartile spread is
  within the bound or every change run reads worse than every parent
  run;
* ``unresolved`` — otherwise, when the parent's own quartile spread is
  wider than the bound, unless every change run reads better than every
  parent run;
* ``improved`` — the change wins at least 9 of every 10 pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* ``unchanged`` — otherwise.

The exit code is 1 on any regression or when any change run failed a
larger share of its operations than the worst parent run.

    python3 servebench/compare.py --summarize R1.json ... --output S.json

writes the median, min, max and spread of every metric over the
reports (how ``results/repeatability.json`` was made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _value(entry) -> float:
    return entry["value"] if isinstance(entry, dict) else entry


def _workloads(report: Dict) -> Iterator[Tuple[str, Dict]]:
    if "workloads" in report:
        yield from report["workloads"].items()
    else:
        yield report["workload"], report


def rows(report: Dict, section: str = "end_to_end") -> Dict[Tuple[str, str], float]:
    """``(workload, metric) -> value`` of one report section."""
    return {
        (workload, metric): _value(entry)
        for workload, body in _workloads(report)
        for metric, entry in body.get(section, {}).items()
    }


def failed_fracs(report: Dict) -> Dict[str, float]:
    return {
        workload: body["details"]["failed_frac"]
        for workload, body in _workloads(report)
    }


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def label(parent: List[float], change: List[float], bound: float, lower_is_better: bool) -> Dict:
    """Classify one (metric, workload) row."""
    sign = -1.0 if lower_is_better else 1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    spread = (q3 - q1) / abs(p_med) if p_med else float("inf")
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    better_everywhere = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_everywhere = max(sign * c for c in change) < min(sign * p for p in parent)
    gap_beyond_spread = sign * (c_med - p_med) > (q3 - q1)
    claim = bool(pairs) and wins >= 0.9 * len(pairs) and gap_beyond_spread
    if worse > bound and (spread <= bound or worse_everywhere):
        verdict = "regressed"
    elif spread > bound and not better_everywhere:
        verdict = "unresolved"
    elif claim:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
        "change_median": c_med, "worse_by": worse, "spread": spread,
        "wins": wins, "pairs": len(pairs), "label": verdict,
    }


def compare(parents: List[Dict], changes: List[Dict], spec: Dict) -> Tuple[List[Dict], bool]:
    """All labelled rows, and whether the change may land."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent_rows = [rows(r) for r in parents]
    change_rows = [rows(r) for r in changes]
    keys = sorted(set().union(*parent_rows) & set().union(*change_rows))
    table = []
    ok = True
    for workload, metric in keys:
        if metric not in metrics:
            continue
        parent = [r[(workload, metric)] for r in parent_rows if (workload, metric) in r]
        change = [r[(workload, metric)] for r in change_rows if (workload, metric) in r]
        row = label(parent, change, metrics[metric]["bound"], metrics[metric]["better"] == "lower")
        table.append({"workload": workload, "metric": metric, **row})
        ok = ok and row["label"] != "regressed"
    worst_parent: Dict[str, float] = {}
    for report in parents:
        for workload, frac in failed_fracs(report).items():
            worst_parent[workload] = max(frac, worst_parent.get(workload, 0.0))
    for report in changes:
        for workload, frac in failed_fracs(report).items():
            if frac > worst_parent.get(workload, 0.0):
                table.append({"workload": workload, "metric": "failed_frac", "label": "regressed"})
                ok = False
    return table, ok


def summarize(reports: List[Dict]) -> Dict:
    """Median, min, max and quartile spread of every metric."""
    summary: Dict[str, Dict] = {}
    for section in ("end_to_end", "per_layer"):
        collected: Dict[Tuple[str, str], List[float]] = {}
        for report in reports:
            for key, value in rows(report, section).items():
                collected.setdefault(key, []).append(value)
        for (workload, metric), values in sorted(collected.items()):
            median = statistics.median(values)
            q1, q3 = _quartiles(values)
            summary.setdefault(workload, {}).setdefault(section, {})[metric] = {
                "median": median, "min": min(values), "max": max(values),
                "iqr_over_median": (q3 - q1) / abs(median) if median else 0.0,
                "runs": len(values),
            }
    return summary


def _load(paths: List[str]) -> List[Dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--summarize", nargs="+", default=[])
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    if args.summarize:
        summary = summarize(_load(args.summarize))
        text = json.dumps(summary, indent=2) + "\n"
        if args.output:
            Path(args.output).write_text(text)
        else:
            print(text, end="")
        return 0
    if not args.parent or not args.change:
        parser.error("give --parent and --change reports (or --summarize)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table, ok = compare(_load(args.parent), _load(args.change), spec)
    for row in table:
        if "parent_median" not in row:
            print(f"{row['workload']:14s} {row['metric']:16s} {row['label']}")
            continue
        print(
            f"{row['workload']:14s} {row['metric']:16s}"
            f" parent {row['parent_median']:12.4f} [{row['parent_q1']:.4f}, {row['parent_q3']:.4f}]"
            f" change {row['change_median']:12.4f} worse by {row['worse_by']:+7.2%}"
            f" wins {row['wins']}/{row['pairs']}  {row['label']}"
        )
    if args.output:
        Path(args.output).write_text(json.dumps(table, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
