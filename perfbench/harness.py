"""Measuring passes of a workload and turning them into the benchmark's metrics."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import tracing
import workloads

SETUP_SAMPLES_PER_GAP = 3
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10
MIN_PASSES = 2
COST_RUNGS = (32, 64)


@dataclass
class Pass:
    traced: bool
    seconds: float
    results: list


def measure_setup(env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter until `import bellforge` returns,
    SETUP_SAMPLES_PER_GAP times.

    The child reports perf_counter() after the import; that clock is shared by
    the processes of a machine.
    """
    code = "import time, bellforge; print(repr(time.perf_counter()))"
    times = []
    for _ in range(SETUP_SAMPLES_PER_GAP):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(proc.stdout) - start)
    return times


def run_pass(ops, tracer, refusal, commands=None) -> list:
    """One pass over the ops. A traced pass wraps the library (in this process,
    or in each child for CLI ops) and records a span around every op."""
    if tracer is None:
        return [workloads.run_op(op, refusal) for op in ops]
    results = []
    if commands is None:
        tracer.install()
    else:
        commands.tracer = tracer
    try:
        for op in ops:
            with tracer.span(f"bench.op {op.name}"):
                results.append(workloads.run_op(op, refusal))
    finally:
        tracer.uninstall()
        if commands is not None:
            commands.tracer = None
    return results


def run_passes(ops, seconds, tracer, refusal, commands=None, between=None) -> list[Pass]:
    """Closed loop: passes back to back until the next would take the passes'
    total past `seconds`. With a tracer, passes alternate untraced and traced.
    `between`, if given, runs before each pass, outside the measured time."""
    passes = []
    measured = 0.0
    while True:
        if between is not None:
            between()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
        began = time.perf_counter()
        results = run_pass(ops, tracer if traced else None, refusal, commands)
        elapsed = time.perf_counter() - began
        passes.append(Pass(traced, elapsed, results))
        measured += elapsed
        if len(passes) >= MIN_PASSES and measured + elapsed > seconds:
            return passes


def op_summary(results: list) -> dict:
    """Counts, failure share and accuracy margin over all ops of a run."""
    failed = [r for r in results if not r.ok]
    margins = [r.margin for r in results if r.ok and r.margin is not None]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "unexpected": sum(not r.expected for r in failed),
        "ops_failed_frac": len(failed) / len(results),
        "tol_margin_digits": min(margins) if margins else 0.0,
        "failures": sorted({f"{r.name}: {r.error}" + (" (known defect)" if r.expected else "") for r in failed}),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes, summary, setup_times, in_process) -> tuple[dict, list[str]]:
    op_times = [r.seconds for p in passes for r in p.results]
    pass_times = [p.seconds for p in passes]
    tail_value, percentile = tail(op_times)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_p50_s": statistics.median(pass_times),
        "op_tail_s": tail_value,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ops_passed_frac": 1.0 - summary["ops_failed_frac"],
    }
    notes = [
        f"setup_s: median of {len(setup_times)} fresh interpreters, {SETUP_SAMPLES_PER_GAP} before each pass",
        f"pass_p50_s: median of {len(pass_times)} passes",
        f"op_tail_s: p{percentile:.1f} of {len(op_times)} op latencies, {TAIL_BEYOND} beyond it",
        "peak_rss_mb: " + ("this process (RUSAGE_SELF)" if in_process else "largest child (RUSAGE_CHILDREN)"),
        f"ops_passed_frac: 1 - ops_failed_frac; ops_failed_frac = {summary['ops_failed_frac']!r} "
        f"({summary['failed']} of {summary['attempted']})",
        f"tol_margin_digits = {summary['tol_margin_digits']!r} digits (min over passed ops)",
    ]
    return values, notes


def per_pass_layers(tracer) -> dict[int, Counter]:
    """Self time and calls per traced function and per layer, and the computed
    work counts, summed within each pass."""
    totals: dict[int, Counter] = {}
    self_s = tracing.self_times(tracer.starts, tracer.ends, tracer.parents)
    for index, (name, pass_id) in enumerate(zip(tracer.names, tracer.passes)):
        agg = totals.setdefault(pass_id, Counter())
        if not name.startswith("bench."):
            agg[f"{name}.self_s"] += self_s[index]
            agg[f"{name}.calls"] += 1
            agg[f"{name.split('.')[0]}.self_s"] += self_s[index]
        agg.update(tracer.work.get(index, {}))
    return totals


def cost_exponent(rung_s: dict[int, float]) -> float:
    """Least-squares slope of log(rung time) against log(2j) over COST_RUNGS."""
    xs = [math.log(two_j) for two_j in COST_RUNGS]
    ys = [math.log(rung_s[two_j]) for two_j in COST_RUNGS]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(passes, summary, tracer) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    totals = per_pass_layers(tracer)
    layers = [totals.get(i, Counter()) for i, p in enumerate(passes) if p.traced]
    values = {key: statistics.median(agg[key] for agg in layers) for key in set().union(*layers)}
    rungs = sorted({r.rung for r in untraced[0].results if r.rung is not None})
    rung_s = {
        two_j: statistics.median(sum(r.seconds for r in p.results if r.rung == two_j) for p in untraced)
        for two_j in rungs
    }
    for two_j, seconds in rung_s.items():
        values[f"quadrature.cp1.rung.{two_j}.s"] = seconds
    values["quadrature.cp1.cost_exponent"] = cost_exponent(rung_s) if rungs else 0.0
    values["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - statistics.median(
        p.seconds for p in untraced
    )
    values["ops_failed_frac"] = summary["ops_failed_frac"]
    values["tol_margin_digits"] = summary["tol_margin_digits"]
    notes = [
        f"per-layer values: median over {len(traced)} traced passes; counts are per pass",
        f"rung times and trace.overhead_s: from {len(untraced)} untraced passes",
        "quadrature.sample_bytes: computed from the drawn array's shape, not measured",
    ]
    return values, notes


def known_metric_names() -> set[str]:
    """Every per-layer name this benchmark can produce, for checking BENCHMARK.json."""
    names = {f"{name}.{kind}" for name in tracing.traced_names() for kind in ("self_s", "calls")}
    names |= {f"{layer}.self_s" for layer in tracing.LAYERS}
    names |= {"quadrature.nodes", "quadrature.samples", "quadrature.sample_bytes"}
    names |= {f"quadrature.cp1.rung.{two_j}.s" for two_j in workloads.LADDER}
    names |= {"quadrature.cp1.cost_exponent", "trace.overhead_s", "ops_failed_frac", "tol_margin_digits"}
    return names


def select_metrics(declared: list[dict], values: dict[str, float], known: set[str]) -> dict:
    """The declared metrics, by name and unit. A traced function or count a
    workload never reaches reads 0; a name the benchmark cannot produce is an error."""
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in values and name not in known:
            raise KeyError(f"BENCHMARK.json names {name!r}, which this benchmark does not produce")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
    return metrics


def environment(seed: int, workload: str, cap: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_cap": cap,
        "platform": platform.platform(),
        "load": "one closed-loop client",
    }


