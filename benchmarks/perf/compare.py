"""Compare two result files of ``run.py --out``: regression, unresolved, or neither.

    python3 benchmarks/perf/compare.py before.json after.json

Every (workload, end-to-end metric) pair is its own row with both medians,
quartiles and sample counts.  A pair *regressed* when the second median is
worse than the first by more than the metric's bound in ``BENCHMARK.json``;
it is *unresolved* when the run-to-run quartile spread of either side is
wider than that bound, so that the bound cannot be read off these runs.
Virtual-time values (``model.*``) and the per-repeat digests are compared for
exact equality.  Exits non-zero on a regression, on a model or digest
difference, or when a larger share of operations failed.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from summary import format_rows, load_declaration, number, spread


def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def _worsening(metric: Dict[str, Any], before: float, after: float) -> float:
    """How much worse ``after`` is, as a share of ``before`` (negative: better)."""
    change = (after - before) / abs(before)
    return -change if metric["better"] == "higher" else change


def compare(before: Dict[str, Any], after: Dict[str, Any], declaration: Dict[str, Any]) -> int:
    problems: List[str] = []
    for side, result in (("first", before), ("second", after)):
        if not result["environment"]["pinned"]:
            problems.append(f"the {side} result was taken unpinned and cannot be compared")
    sides = ["first (q1..q3, n)", "second (q1..q3, n)"]
    rows = [["workload", "metric", *sides, "worse by", "verdict"]]
    for workload in (w["name"] for w in declaration["workloads"]):
        a = before["workloads"].get(workload)
        b = after["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in declaration["end_to_end"]:
            sa, sb = a["metrics"][metric["name"]], b["metrics"][metric["name"]]
            if not sa["n"] or not sb["n"]:
                rows.append([workload, metric["name"], _cell(sa), _cell(sb), "-", "no samples"])
                problems.append(f"{workload} {metric['name']}: no samples")
                continue
            worse = _worsening(metric, sa["median"], sb["median"])
            if max(spread(sa), spread(sb)) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                problems.append(f"{workload} {metric['name']} worse by {worse:.1%}")
            else:
                verdict = "ok"
            rows.append([workload, metric["name"], _cell(sa), _cell(sb), f"{worse:+.1%}", verdict])
        for side, entry in (("first", a), ("second", b)):
            if len(set(entry["digests"])) != 1:
                problems.append(f"{workload}: repeats of the {side} result disagree (digests)")
        if a["seed"] == b["seed"] and a["scale"] == b["scale"]:
            # Same inputs: the modelled cluster must have behaved identically.
            if set(a["digests"]) != set(b["digests"]):
                problems.append(f"{workload}: digests differ")
            for name in sorted(n for n in a["metrics"] if n.startswith("model.")):
                va, vb = set(a["metrics"][name]["samples"]), set(b["metrics"][name]["samples"])
                if va != vb:
                    problems.append(f"{workload} {name}: {sorted(va)} vs {sorted(vb)}")
        fail_a = a["ops_failed"] / max(1, a["ops_attempted"])
        fail_b = b["ops_failed"] / max(1, b["ops_attempted"])
        if fail_b > fail_a:
            problems.append(f"{workload}: failed share rose from {fail_a:.4f} to {fail_b:.4f}")
    print(format_rows(rows))
    for problem in problems:
        print("problem:", problem)
    return 1 if problems else 0


def _cell(summary: Dict[str, Any]) -> str:
    return (
        f"{number(summary['median'])} ({number(summary['q1'])}..{number(summary['q3'])}, "
        f"{summary['n']})"
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return compare(_load(argv[0]), _load(argv[1]), load_declaration())


if __name__ == "__main__":
    raise SystemExit(main())
