"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/prove.py --runs 10 --out perfbench/results/baseline.json

For each workload, runs ``run.py`` once per seed (seeds 1..runs) with
tracing off, then once on the golden seed with tracing on.  For every
end-to-end metric it reports the median and the distance between the first
and third quartiles as a share of the median (``statistics.quantiles`` with
n=4), next to the metric's bound in BENCHMARK.json.  The runs, with the
machine state each printed, are written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), "machine": machine}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, bench["run_seconds"], 0) for seed in range(1, args.runs + 1)]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = {**spread(values), "bound": bound}
            s = summary[metric]
            print(f"{name:14s} {metric:14s} median {s['median']:12.6g}  "
                  f"iqr/median {s['iqr_share']:.4f}  bound {bound}", flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{name:14s} failed operations: {failed} of "
              f"{sum(r['result']['attempted'] for r in runs)}", flush=True)
        doc["workloads"][name] = {
            "summary": summary,
            "runs": runs,
            "traced": run_once(name, 0, bench["run_seconds"], 1),
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
