#!/usr/bin/env python3
"""Compares two result sets of the repository benchmark (a report, not a gate).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the full results `run.py` saves
(`result-<workload>-seed<N>-trace0.json`). Runs pair up by workload and
seed; make them by alternating the two checkouts, parent first on odd
pairs and change first on even ones.

For every workload and end-to-end metric of BENCHMARK.json the report
gives both medians and quartiles and the pairs the change won, then a
verdict:

  gain        at least 10 pairs, the change wins 9 in 10 of them (ties
              count for neither), and the medians differ in its favour by
              more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  better      every change run beats every parent run;
  held        none of the above: no worse than the bound allows;
  refused     would be gain, better or held, but the change failed an
              output check on some seed, or failed more requests (result
              `failed`, or summed `fail_frac`) than the parent: a change
              that gets faster by failing more is not a gain.

Every run is loaded, correct or not; each row names the incorrect runs
and failed requests on both sides. It prints one row per workload; a
combined score is never formed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, seed): run} from a directory of saved results, each run
    with its `correct` flag, `failed` count and metric values."""
    runs = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        r = json.loads(path.read_text())
        runs[(r["workload"], r["seed"])] = {
            "correct": bool(r["correct"]),
            "failed": int(r["failed"]),
            "metrics": {k: v["value"] for k, v in r["metrics"].items()},
        }
    return runs


def health(runs):
    """Incorrect runs, failed requests and summed `fail_frac` of a list of runs."""
    return {
        "incorrect": sum(1 for r in runs if not r["correct"]),
        "failed": sum(r["failed"] for r in runs),
        "fail_frac": sum(r["metrics"].get("fail_frac", 0.0) for r in runs),
    }


def fails_more(parent, change):
    """Whether the change's runs are less healthy than the parent's."""
    return (change["incorrect"] > 0
            or change["failed"] > parent["failed"]
            or change["fail_frac"] > parent["fail_frac"])


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Classifies paired samples of one metric (same order, one per seed)."""
    higher = better == "higher"
    sign = 1.0 if higher else -1.0
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs >= 10 and wins * 10 >= 9 * pairs and sign * (cm - pm) > (p3 - p1):
        v = "gain"
    elif worse_by > bound:
        v = "regressed"
    elif all_better:
        v = "better"
    elif pm and (p3 - p1) / abs(pm) > bound:
        v = "unresolved"
    else:
        v = "held"
    return {"pairs": pairs, "wins": wins, "parent_median": pm, "change_median": cm,
            "parent_iqr": p3 - p1, "verdict": v}


def compare(parent_runs, change_runs, spec):
    """{workload: {"health": (parent, change), "metrics": {metric: verdict
    dict}}} over the seeds both sets ran."""
    rows = {}
    for w in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for (wl, s) in parent_runs if wl == w and (wl, s) in change_runs)
        if not seeds:
            continue
        p_health = health([parent_runs[(w, s)] for s in seeds])
        c_health = health([change_runs[(w, s)] for s in seeds])
        refuse = fails_more(p_health, c_health)
        cells = {}
        for m in spec["end_to_end"]:
            parent = [parent_runs[(w, s)]["metrics"][m["name"]] for s in seeds]
            change = [change_runs[(w, s)]["metrics"][m["name"]] for s in seeds]
            cell = verdict(parent, change, m["better"], m["bound"])
            if refuse and cell["verdict"] in ("gain", "better", "held"):
                cell["verdict"] = "refused"
            cells[m["name"]] = cell
        rows[w] = {"health": (p_health, c_health), "metrics": cells}
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[1]), load(argv[2]), spec)
    if not rows:
        print("no workload has runs of the same seed in both sets", file=sys.stderr)
        return 2
    for w, row in rows.items():
        p_health, c_health = row["health"]
        parts = [f"incorrect runs {p_health['incorrect']}->{c_health['incorrect']}, "
                 f"failed {p_health['failed']}->{c_health['failed']}"]
        for name, r in row["metrics"].items():
            delta = (r["change_median"] / r["parent_median"] - 1) * 100 if r["parent_median"] else 0.0
            parts.append(f"{name} {r['parent_median']:.6g}->{r['change_median']:.6g} "
                         f"({delta:+.1f}%, {r['wins']}/{r['pairs']} won) {r['verdict']}")
        print(f"{w:<14} " + " | ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
