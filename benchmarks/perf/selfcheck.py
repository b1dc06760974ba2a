"""Perturbation self-check: does the benchmark see a cost put where it says it looks?

From the benchmark's own files, one layer entry is made to burn a fixed
amount of CPU per call.  The check passes when

(a) that layer's traced ``self_us_per_op`` rises by about calls/op x delay,
(b) ``cpu_us_per_op`` of the workload that exercises the entry rises by about
    the same, untraced, and
(c) the workload that bypasses the entry stays inside its bounds.

No switch is added to ``src/`` for this: the worker wraps the method.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from summary import format_rows, load_declaration, metric_table, number, summarize

#: Time budget of each of the eleven worker runs.
SECONDS = 8.0

CHECKS: Tuple[Dict[str, Any], ...] = (
    {
        "perturb": {
            "module": "repro.amoeba.rpc",
            "cls": "RpcEndpoint",
            "method": "call",
            "busy_us": 300.0,
        },
        "layer_metric": "amoeba.self_us_per_op",
        "exerciser": "primary-rpc-mix",
        "bypass": "local-read-mostly",
    },
    {
        "perturb": {
            "module": "repro.sim.process",
            "cls": "SimProcess",
            "method": "hold",
            "busy_us": 50.0,
        },
        "layer_metric": "sim.self_us_per_op",
        "exerciser": "local-read-mostly",
        "bypass": "real-udp-mix",
    },
)

#: How far a measured rise may be from calls/op x delay, as a share of it.
LAYER_TOLERANCE = 0.3
END_TO_END_TOLERANCE = 0.4


def main(run_worker: Callable[[Dict[str, Any]], Dict[str, Any]], cpu: int, seed: int) -> int:
    bounds = {n: m.get("bound") for n, m in metric_table(load_declaration()).items()}
    baselines: Dict[Tuple[str, bool], Dict[str, Any]] = {}

    def run(workload: str, trace: bool, perturb: Any = None) -> Dict[str, Any]:
        request = {
            "workload": workload,
            "seed": seed,
            "seconds": SECONDS,
            "scale": 1.0,
            "trace": trace,
            "cpu": cpu,
            "trace_out": None,
            "perturb": perturb,
        }
        if perturb is not None:
            return run_worker(request)
        if (workload, trace) not in baselines:
            baselines[workload, trace] = run_worker(request)
        return baselines[workload, trace]

    def median(measured: Dict[str, Any], metric: str) -> float:
        return summarize(measured["samples"][metric])["median"]

    rows: List[List[str]] = [["check", "metric", "before", "after", "rise", "expected", ""]]
    passed = True
    for check in CHECKS:
        perturb, exerciser, bypass = check["perturb"], check["exerciser"], check["bypass"]
        entry = f"{perturb['cls']}.{perturb['method']}+{perturb['busy_us']:g}us"
        traced = run(exerciser, True, perturb)
        expected = traced["perturbed_calls_per_op"] * perturb["busy_us"]
        untraced = run(exerciser, False), run(exerciser, False, perturb)
        pairs = [
            (check["layer_metric"], run(exerciser, True), traced, LAYER_TOLERANCE),
            ("cpu_us_per_op", *untraced, END_TO_END_TOLERANCE),
        ]
        for metric, before, after, tolerance in pairs:
            was, now = median(before, metric), median(after, metric)
            ok = abs(now - was - expected) <= tolerance * expected
            passed &= ok
            verdict = "ok" if ok else "FAIL"
            label = f"{entry} {exerciser}"
            rise = number(now - was)
            rows.append([label, metric, number(was), number(now), rise, number(expected), verdict])
        before, after = run(bypass, False), run(bypass, False, perturb)
        for metric, sign in (("cpu_us_per_op", 1.0), ("ops_per_s", -1.0)):
            was, now = median(before, metric), median(after, metric)
            worse = sign * (now - was) / was
            ok = worse <= bounds[metric]
            passed &= ok
            verdict = "ok" if ok else "FAIL"
            label = f"{entry} {bypass} (bypass)"
            limit = f"<= {bounds[metric]:.0%}"
            rows.append([label, metric, number(was), number(now), f"{worse:+.1%}", limit, verdict])
    print(format_rows(rows))
    print("selfcheck", "passed" if passed else "FAILED")
    return 0 if passed else 1
