"""The host-clock benchmark: one command, one named workload, every metric.

    python3 benchmarks/perf/run.py --workload local-read-mostly
    python3 benchmarks/perf/run.py --out a.json              # all six workloads
    python3 benchmarks/perf/run.py --trace 1                 # per-layer attribution
    python3 benchmarks/perf/run.py --selfcheck               # does it measure?
    python3 benchmarks/perf/compare.py a.json b.json

This driver pins itself, and so everything it starts, to one CPU before any
thread or child exists, runs each workload in a fresh ``worker.py`` process,
and prints every metric by name with its unit, median, quartiles and sample
count.  With ``--workload`` the last line of standard output is the result
object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import selfcheck  # noqa: E402
from summary import (  # noqa: E402
    ROOT,
    format_rows,
    load_declaration,
    metric_table,
    number,
    summarize,
)

#: A worker that has not answered by then is stopped, with its children.
WORKER_TIMEOUT_S = 170.0


def pin_to_one_cpu() -> int:
    """Pin this process to the highest-numbered CPU it may use; returns it.

    The simulator runs one thread at a time, so one CPU is its natural
    allotment; left unpinned, every process hand-off may wake a thread on
    another CPU and the same run takes 0.5 s or 20 s.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: Optional[int]) -> Dict[str, Any]:
    """What a result can only be compared under."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "pinned": cpu is not None,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "loadavg_1min": os.getloadavg()[0],
        "git_commit": commit or "unknown",
    }


def run_worker(request: Dict[str, Any]) -> Dict[str, Any]:
    """Measure one workload in a fresh process; returns what the worker printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        output, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise SystemExit(f"worker for {request['workload']} timed out")
    if worker.returncode != 0 or not output.strip():
        raise SystemExit(f"worker for {request['workload']} failed ({worker.returncode})")
    return json.loads(output.strip().splitlines()[-1])


def summarize_workload(measured: Dict[str, Any], declared: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's entry in a result file: a summary per declared metric."""
    metrics = {}
    for name, metric in declared.items():
        samples = measured["samples"].get(name, [])
        metrics[name] = {"unit": metric["unit"], **summarize(samples), "samples": samples}
    unknown = set(measured["samples"]) - set(declared)
    if unknown:
        raise SystemExit(f"worker emitted undeclared metrics: {sorted(unknown)}")
    return {
        "seed": measured["seed"],
        "scale": measured["scale"],
        "ops_per_repeat": measured["ops_per_repeat"],
        "ops_attempted": measured["attempted"],
        "ops_failed": measured["failed"],
        "errors": measured["errors"],
        "digests": measured["digests"],
        "stolen_share": measured["stolen_share"],
        "metrics": metrics,
    }


def print_workload(name: str, entry: Dict[str, Any], shown: List[str]) -> None:
    print(
        f"\n{name}: {entry['ops_per_repeat']} ops/repeat, seed {entry['seed']}, "
        f"{entry['ops_failed']} of {entry['ops_attempted']} ops failed, "
        f"digests {'equal' if len(set(entry['digests'])) == 1 else 'DIFFER'}"
    )
    for error in entry["errors"]:
        print(f"  error: {error.strip().splitlines()[-1]}")
    rows = [["metric", "unit", "median", "q1", "q3", "n"]]
    for metric in shown:
        s = entry["metrics"][metric]
        if s["n"]:
            quartiles = [number(s["median"]), number(s["q1"]), number(s["q3"])]
            rows.append([metric, s["unit"], *quartiles, str(s["n"])])
    print(format_rows(rows))


def contract_line(entry: Dict[str, Any], names: List[str]) -> str:
    """The result object of one workload: a value per asked-for metric."""
    metrics = {}
    for name in names:
        summary = entry["metrics"][name]
        value = summary["median"] if summary["n"] else 0.0
        metrics[name] = {"value": value, "unit": summary["unit"]}
    correct = entry["ops_failed"] == 0 and len(set(entry["digests"])) == 1
    return json.dumps(
        {
            "correct": correct,
            "attempted": entry["ops_attempted"],
            "failed": entry["ops_failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    workload_names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(declaration["run_seconds"]),
        help="time budget of the repeats; each repeat is a fixed operation count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced pass")
    parser.add_argument("--scale", type=float, default=1.0, help="size factor (tests use 0.02)")
    parser.add_argument("--out", help="write the full result (JSON) here")
    parser.add_argument(
        "--trace-out", help="with --trace 1: write Chrome trace files into this directory"
    )
    parser.add_argument(
        "--no-pin",
        action="store_true",
        help="do not pin: only to reproduce the instability; the result is marked unpinned",
    )
    parser.add_argument("--selfcheck", action="store_true", help="run the perturbation self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: nothing to measure", file=sys.stderr)
        return 2
    cpu = None if args.no_pin else pin_to_one_cpu()
    steal_cpu = cpu if cpu is not None else max(os.sched_getaffinity(0))
    if args.selfcheck:
        return selfcheck.main(run_worker, steal_cpu, args.seed)

    declared = metric_table(declaration)
    end_to_end = [m["name"] for m in declaration["end_to_end"]]
    per_layer = [m["name"] for m in declaration["per_layer"]]
    result: Dict[str, Any] = {"environment": environment(cpu), "workloads": {}}
    for name in [args.workload] if args.workload else workload_names:
        trace_out = None
        if args.trace and args.trace_out:
            Path(args.trace_out).mkdir(parents=True, exist_ok=True)
            trace_out = str(Path(args.trace_out) / f"trace-{name}.json")
        measured = run_worker(
            {
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "scale": args.scale,
                "trace": bool(args.trace),
                "cpu": steal_cpu,
                "trace_out": trace_out,
            }
        )
        entry = result["workloads"][name] = summarize_workload(measured, declared)
        print_workload(name, entry, per_layer if args.trace else end_to_end + per_layer)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    if args.workload:
        asked_for = per_layer if args.trace else end_to_end
        print(contract_line(result["workloads"][args.workload], asked_for))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
