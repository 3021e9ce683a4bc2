"""bellforge benchmark: one closed-loop client runs a workload's ops, pass after pass.

    python3 perfbench/run.py --workload quad-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, measured by alternating untraced and traced
passes. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Details are in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("quad-ladder", "mc-cp3-catalog", "cli-verify")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellforge" / "__init__.py").is_file():
        print(f"error: no bellforge sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # cap BLAS threads at the CPUs this process may use, before numpy loads
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    os.environ.pop("BELLFORGE_SEED", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))

    import bellforge
    import harness
    import tracing
    import workloads

    if Path(bellforge.__file__).resolve().parent != SRC / "bellforge":
        print(f"error: imported bellforge from {bellforge.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    commands = None
    if args.workload == "quad-ladder":
        ops, warm_up = workloads.quad_ladder(bellforge, args.seed)
    elif args.workload == "mc-cp3-catalog":
        ops, warm_up = workloads.mc_cp3_catalog(bellforge, args.seed)
    else:
        commands = workloads.CliCommands(env, OUT)
        ops, warm_up = workloads.cli_verify(commands, args.seed)
    for op in warm_up:
        op.run()

    # set-up is sampled between passes, so that it sees the same machine load
    setup_times: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    between = None if args.trace else lambda: setup_times.extend(harness.measure_setup(env))
    passes = harness.run_passes(ops, args.seconds, tracer, bellforge.BellforgeError, commands, between)

    summary = harness.op_summary([r for p in passes for r in p.results])
    if args.trace:
        values, notes = harness.per_layer(passes, summary, tracer)
        metrics = harness.select_metrics(spec["per_layer"], values, harness.known_metric_names())
        tracer.dump(str(OUT / f"spans-{args.workload}.json"))
        notes.append(f"spans: {OUT.relative_to(ROOT) / f'spans-{args.workload}.json'}")
    else:
        values, notes = harness.end_to_end(passes, summary, setup_times, in_process=commands is None)
        metrics = harness.select_metrics(spec["end_to_end"], values, set())

    env_record = harness.environment(args.seed, args.workload, cap)
    result = {
        "correct": summary["unexpected"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    record = {
        "environment": env_record,
        "trace": args.trace,
        "pass_seconds": [p.seconds for p in passes],
        "pass_traced": [p.traced for p in passes],
        "notes": notes,
        "failures": summary["failures"],
        "result": result,
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env: " + json.dumps(env_record, sort_keys=True))
    for line in notes:
        print("note: " + line)
    for line in summary["failures"]:
        print("failed op: " + line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
