"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload digg-recovery --seed 0 --seconds 60 --trace 0

A closed loop with one client: operations run one after another, each in a
fresh interpreter (``child.py``) with the numeric thread pools pinned to one
thread, until the next one would overrun ``--seconds``.  Each operation is
the workload's whole pipeline; its outputs are checked, and an operation
that raises, exits non-zero or fails a check is counted as failed.

With ``--trace 0`` the end-to-end metrics are the medians over the
operations.  With ``--trace 1`` operations alternate untraced and traced;
the per-layer metrics are medians over the traced ones, and
``trace.overhead`` is the traced median wall time over the untraced one.

Human-readable lines come first, including the machine state (steal and
idle jiffies over the run, load average, CPU model); the last line of
standard output is the JSON result.  Exit code 2, without a result, when
the program's source is missing from this checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
CHILD_TIMEOUT_S = 150
EXIT_NO_PROGRAM = 3  # child.py's code for "contagion not importable"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOADS = ("digg-recovery", "twitter-cli")


class ProgramMissing(Exception):
    """The program under test cannot be imported from this checkout."""


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(section: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark()[section]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every operation
    return env


def run_child(workload: str, seed: int, traced: bool, golden: bool, index: int) -> dict:
    """Run one operation in a fresh interpreter and return its record."""
    tmp = TMP / f"{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp)]
    if traced:
        cmd.append("--trace")
    if golden:
        cmd.append("--golden")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"operation exceeded {CHILD_TIMEOUT_S} s"],
                "duration_s": time.monotonic() - spawned, "traced": traced}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    duration = time.monotonic() - spawned
    if proc.returncode == EXIT_NO_PROGRAM:
        raise ProgramMissing(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        record = None
    if record is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        record = {"ok": False, "errors": [f"child exited {proc.returncode}: {tail[0]}"]}
    record["duration_s"] = duration
    record["traced"] = traced
    if record.get("op_start") is not None:
        record["setup_s"] = record["op_start"] - spawned
    return record


def proc_stat() -> dict[str, int]:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return dict(zip(names, map(int, fields)))


def machine_state(before: dict, after: dict) -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().split()[:3]
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    delta = {k: after[k] - before[k] for k in before}
    total = sum(delta.values()) or 1
    return {
        "steal_jiffies": delta["steal"],
        "idle_jiffies": delta["idle"],
        "steal_share": delta["steal"] / total,
        "loadavg": [float(x) for x in loadavg],
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def summarize(records: list[dict], trace: bool) -> tuple[dict, dict]:
    """(metrics, extras) of one run; failed operations only count as failed."""
    good = [r for r in records if r["ok"]] or [r for r in records if r.get("wall_s")]
    untraced = [r for r in good if not r["traced"]]
    extras = {"ops": len(records), "failed": sum(not r["ok"] for r in records),
              "notes": sorted({n for r in records
                               for n in r.get("check_notes", []) + r.get("trace_notes", [])})}
    if not untraced:
        return {}, extras
    walls = [r["wall_s"] for r in untraced]
    counts = untraced[0].get("counts", {})
    extras["wall_s_range"] = [min(walls), max(walls)]
    extras["events"] = counts.get("events")
    extras["windows"] = counts.get("windows")
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "events_per_s": statistics.median(
                r.get("counts", {}).get("events", 0) / r["wall_s"] for r in untraced),
        }
        return metrics, extras
    traced = [r for r in good if r["traced"] and "layers" in r]
    if not traced:
        return {}, extras
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                 / statistics.median(walls))
    return metrics, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contagion" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'contagion'}", file=sys.stderr)
        return 2
    # The build step: byte-compile once so no operation pays for it.
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("error: the program source does not compile", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = metric_units("per_layer" if trace else "end_to_end")
    seconds = args.seconds if args.seconds is not None else benchmark()["run_seconds"]
    min_ops = 4 if trace else 3

    stat_before = proc_stat()
    start = time.monotonic()
    records: list[dict] = []
    try:
        while True:
            index = len(records)
            records.append(run_child(args.workload, args.seed, traced=trace and index % 2 == 1,
                                     golden=index == 0, index=index))
            typical = statistics.median(r["duration_s"] for r in records)
            if len(records) >= min_ops and time.monotonic() - start + typical > seconds:
                break
    except ProgramMissing as exc:
        print(f"error: program not runnable: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    machine = machine_state(stat_before, proc_stat())

    metrics, extras = summarize(records, trace)
    missing = [name for name in units if name not in metrics]
    if missing:
        for r in records:
            print(f"operation failed: {r['errors']}", file=sys.stderr)
        print(f"error: no operation produced {missing}", file=sys.stderr)
        return 1
    failed = extras["failed"]
    print(f"workload {args.workload} seed {args.seed}: {extras['ops']} operations, "
          f"{failed} failed")
    for r in records:
        for error in r["errors"]:
            print(f"  failed: {error}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    if not trace:
        print(f"  {'error_rate':28s} {failed / extras['ops']:14.6g} ratio")
        low, high = extras["wall_s_range"]
        print(f"  wall_s min/max {low:.4g}/{high:.4g} s; events {extras['events']},"
              f" windows {extras['windows']}")
    for note in extras["notes"]:
        print(f"  note: {note}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": extras["ops"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
