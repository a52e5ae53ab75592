"""One benchmark operation in a fresh interpreter.

Started by ``run.py`` once per operation, so set-up time and peak RSS belong
to that operation alone.  Set-up is everything from interpreter start to the
timed call: imports and building the workload's inputs from the seed.  The
last line of standard output is one JSON record for the parent.

Exit codes: 0 with a record (the operation may still have failed; the record
says so), 3 when the program under test cannot be imported from this
checkout's ``src``.

To re-record the reference outputs of a workload on the golden seed::

    python3 perfbench/child.py --workload digg-recovery --seed 0 \
        --tmp .perfbench_tmp/golden --record-golden
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
EXIT_NO_PROGRAM = 3


def run_operation(operation):
    """Time one call; a raise or exit is recorded as a failure, not fatal."""
    start = time.perf_counter()
    try:
        value, error = operation(), None
    except (Exception, SystemExit) as exc:  # any failure of the program is a data point
        value, error = None, "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return value, error, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True, help="scratch directory (created)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--golden", action="store_true",
                        help="on the golden seed, compare the outputs with golden.json")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this run's reference outputs into golden.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import contagion
    except ImportError as exc:
        print(f"cannot import contagion from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not Path(contagion.__file__).resolve().is_relative_to(SRC):
        print(f"contagion resolves to {contagion.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    import spans
    import workloads

    tracer = spans.Tracer().install() if args.trace else None
    args.tmp.mkdir(parents=True, exist_ok=True)
    record = {"ok": False, "errors": [], "wall_s": None, "op_start": None}
    workload, error, _ = run_operation(
        lambda: workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    )
    if error is not None:
        record["errors"].append(f"set-up: {error}")
        print(json.dumps(record))
        return 0

    record["op_start"] = time.monotonic()
    perf_start = time.perf_counter()
    value, error, wall = run_operation(workload.run)
    perf_end = perf_start + wall
    record["wall_s"] = wall
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None:
        golden = (args.golden and args.seed == GOLDEN_SEED) or args.record_golden
        _, error, _ = run_operation(lambda: _check(workload, value, record, golden, args))
    if error is not None:
        record["errors"].append(error)
    record["ok"] = not record["errors"]
    record["check_notes"] = getattr(workload, "notes", [])
    if tracer is not None:
        record["layers"] = spans.layer_metrics(
            tracer, perf_start, perf_end, record.get("counts", {}).get("log_mb", 0.0)
        )
        record["trace_notes"] = tracer.notes
    print(json.dumps(record))
    return 0


def _check(workload, value, record: dict, golden: bool, args) -> None:
    import checks

    record["counts"] = workload.counts(value)
    record["errors"] += workload.check(value)
    if not golden:
        return
    observed = workload.observed(value)
    if args.record_golden:
        _record_golden(args.workload, args.seed, observed)
        return
    reference = checks.load_golden(GOLDEN, args.workload)
    if reference is None:
        record["errors"].append(f"no golden reference for {args.workload}")
    else:
        skip = getattr(workload, "not_applicable", set)()
        record["errors"] += checks.compare_golden(observed, reference, skip)


# Floats that a later change may move by rounding are compared with a
# tolerance; everything else (hashes, counts) must match exactly.
REL_TOL = {"p0": 1e-6, "log_v_min": 1e-6, "F(2)": 1e-9, "F(3)": 1e-9, "F(4)": 1e-9}


def _record_golden(workload: str, seed: int, observed: dict) -> None:
    if seed != GOLDEN_SEED:
        raise SystemExit(f"golden outputs are recorded on seed {GOLDEN_SEED} only")
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"seed": GOLDEN_SEED,
                                                                    "workloads": {}}
    doc["workloads"][workload] = {
        "exact": {k: v for k, v in observed.items() if k not in REL_TOL},
        "rel_tol": {k: [v, REL_TOL[k]] for k, v in observed.items() if k in REL_TOL},
    }
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
