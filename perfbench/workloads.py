"""The benchmark's workloads, their references and the result checker.

An op is one call whose result is checked against its closed form or
tolerance. Each op returns a list of checks (residual, tolerance); tolerance
None means the residual must be exactly 0 (an exact count). The references
below are computed here with numpy, not taken from the library under test.

Why these workloads:

- quad-ladder: deterministic quadrature, in-process. The Python node loops of
  integrate_cp1/integrate_cp2 and per-node coherent_cp1 do almost all the
  work; Monte Carlo does none. Cost grows about as j^4 up the ladder.
- mc-cp3-catalog: the 16 maps of CP^3 at 1,000,000 samples each, in-process,
  all from one seed. PCG64 draws, row normalization and twist plus contraction
  do almost all the work; quadrature nodes do none.
- cli-verify: bellforge commands, each in a fresh process. Many small calls,
  Monte Carlo draws of 400 to 10,000 rows, reporting and the import paid by
  every command dominate.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import tracing

QUAD_TOL = 1e-10
MC_TOL = 5e-3
JSON_TOL = 1e-12
MARGIN_CAP = 16.0

LADDER = (1, 2, 4, 8, 16, 32, 64)
MOMENTS_PER_RUNG = 3
# moment_cp1 returns NaN here for k >= 81; the stride keeps two such k per pass
PROBE_TWO_J = 96
PROBE_KS = tuple(range(0, PROBE_TWO_J + 1, 8))
NAN_MOMENTS = "moment_cp1 is NaN for 2j >= 84 and large k (ROADMAP item 5)"
MC_SAMPLES = 1_000_000
CLI_TIMEOUT_S = 120
FLAT_IDS = tuple(f"cp1:{t}" for t in range(1, 5)) + tuple(
    f"cp2:{letter}{digit}" for letter in "abc" for digit in range(1, 4)
)


@dataclass
class Op:
    name: str
    run: Callable[[], list]
    rung: int | None = None
    defect: str | None = None  # known defect this op exposes: its failures count, but are expected


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    margin: float | None  # min over checks of log10(tolerance / residual), capped; None unless ok
    error: str | None
    expected: bool  # failed the way the op's known defect predicts
    rung: int | None


def judge(checks: list) -> tuple[str | None, float | None]:
    """(failure reason or None, margin in digits) for one op's checks.

    Each residual is judged on its own, so a NaN cannot hide behind a finite
    value the way it does under max(0.0, nan) == 0.0.
    """
    if not checks:
        return "no checks", None
    margins = []
    for residual, tolerance in checks:
        if not math.isfinite(residual):
            return "non-finite residual", None
        if tolerance is None:
            if residual != 0:
                return f"mismatch {residual!r}", None
            continue
        if residual > tolerance:
            return f"residual {residual!r} > {tolerance!r}", None
        margins.append(MARGIN_CAP if residual == 0 else min(MARGIN_CAP, math.log10(tolerance / residual)))
    return None, min(margins) if margins else None


def run_op(op: Op, refusal: type[BaseException]) -> OpResult:
    """Run and check one op. `refusal` is the library's error type for refused input."""
    start = time.perf_counter()
    try:
        checks, error = op.run(), None
    except Exception as exc:  # a raised op is a failed op; the pass goes on
        checks, error = [], exc
    seconds = time.perf_counter() - start
    if error is not None:
        reason, margin = f"{type(error).__name__}: {error}", None
        predicted = isinstance(error, refusal)
    else:
        reason, margin = judge(checks)
        predicted = reason == "non-finite residual"
    return OpResult(
        name=op.name,
        seconds=seconds,
        ok=reason is None,
        margin=margin,
        error=reason,
        expected=reason is not None and op.defect is not None and predicted,
        rung=op.rung,
    )


# -- references -------------------------------------------------------------


def cp1_reference(two_j: int, tag: int) -> np.ndarray:
    dim = two_j + 1
    k = np.arange(dim)
    amps = np.zeros((dim, dim), dtype=complex)
    partner = k if tag in (1, 2) else two_j - k
    amps[k, partner] = (-1.0) ** k if tag in (2, 4) else 1.0
    return amps.reshape(-1) / math.sqrt(dim)


def generalized_reference(n: int, p: int, q: int) -> np.ndarray:
    k = np.arange(n)
    amps = np.zeros((n, n), dtype=complex)
    amps[k, (k + q) % n] = np.exp(2j * np.pi * p * k / n)
    return amps.reshape(-1) / math.sqrt(n)


def reference(flat, two_j: int | None) -> np.ndarray:
    if flat.space == "cp1":
        return cp1_reference(two_j, flat.tag)
    return generalized_reference(flat.n + 1, flat.p, flat.q)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


# -- in-process workloads -----------------------------------------------------


def _fivel(bf, flat, spec, two_j, tolerance):
    state, _ = bf.fivel_bell(flat, spec, two_j=two_j)
    return [(_distance(state.amplitudes, reference(flat, two_j)), tolerance)]


def _unity(bf, two_j):
    return [(bf.resolution_of_unity_cp1(two_j), QUAD_TOL)]


def _measure(bf, two_j):
    return [(abs(bf.total_measure_cp1(two_j) - (two_j + 1)), QUAD_TOL)]


def _moment(bf, two_j, k):
    return [(abs(bf.moment_cp1(two_j, k) - 1.0 / math.comb(two_j, k)), QUAD_TOL)]


def quad_ladder(bf, seed: int) -> tuple[list[Op], list[Op]]:
    """(ops, warm-up ops). The seed picks the moment orders k on each rung."""
    rng = random.Random(seed)
    ops = []
    for two_j in LADDER:
        for flat in bf.cp1_catalog():
            ops.append(Op(f"fivel_bell {flat} 2j={two_j}", partial(_fivel, bf, flat, None, two_j, QUAD_TOL), two_j))
        ops.append(Op(f"resolution_of_unity_cp1 2j={two_j}", partial(_unity, bf, two_j), two_j))
        ops.append(Op(f"total_measure_cp1 2j={two_j}", partial(_measure, bf, two_j), two_j))
        for k in sorted(rng.sample(range(two_j + 1), min(MOMENTS_PER_RUNG, two_j + 1))):
            ops.append(Op(f"moment_cp1 2j={two_j} k={k}", partial(_moment, bf, two_j, k), two_j))
    for k in PROBE_KS:
        ops.append(Op(f"moment_cp1 2j={PROBE_TWO_J} k={k}", partial(_moment, bf, PROBE_TWO_J, k), defect=NAN_MOMENTS))
    for flat in bf.cpn_catalog(2):
        ops.append(Op(f"fivel_bell {flat}", partial(_fivel, bf, flat, None, None, QUAD_TOL)))
    warm_up = [op for op in ops if op.rung in (1, 2)] + ops[-1:]
    return ops, warm_up


def mc_cp3_catalog(bf, seed: int) -> tuple[list[Op], list[Op]]:
    """(ops, warm-up ops). Every map draws the same stream, fixed by the seed."""
    spec = bf.MCSpec(samples=MC_SAMPLES, seed=seed)
    ops = [
        Op(f"fivel_bell {flat} mc", partial(_fivel, bf, flat, spec, None, MC_TOL))
        for flat in bf.cpn_catalog(3)
    ]
    # a full-size op: the allocator settles only after the first 1M-row arrays
    return ops, ops[:1]


# -- cli-verify ----------------------------------------------------------------

_CHECK_LINE = re.compile(r"^check (\S+): value=(\S+) (<=|==) (\S+) (PASS|FAIL)$")


def report_checks(stdout: str) -> list:
    """Checks printed by a verify command, read NaN-aware; needs `result: PASS`."""
    checks = []
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            value, relation, bound = float(match[2]), match[3], float(match[4])
            checks.append((abs(value - bound), None) if relation == "==" else (value, bound))
    if not any(line.startswith("result: PASS (") for line in stdout.splitlines()):
        raise RuntimeError("no `result: PASS` line")
    return checks


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in pairs])


def state_checks(expected: np.ndarray, stdout: str) -> list:
    """`bell make` prints its report, then the state document."""
    document = json.loads(stdout[stdout.index("\n{") + 1 :])
    amps = _complex(document["amplitudes"])
    return [(float(np.max(np.abs(amps - expected))), JSON_TOL)]


def matrix_checks(expected: np.ndarray, stdout: str) -> list:
    document = json.loads(stdout)
    entries = np.array([_complex(row) for row in document["entries"]])
    return [(float(np.max(np.abs(entries - expected))), JSON_TOL)]


class CliCommands:
    """Runs bellforge commands in fresh processes, one at a time.

    With `tracer` set, the child installs its own tracer before calling
    cli.main and writes its spans to a file; they are adopted under the span
    open in this process. Report.emit binds sys.stdout when cli is imported,
    so the output can only be captured from outside the process.
    """

    def __init__(self, env: dict, out_dir: Path):
        self.env = env
        self.out_dir = out_dir
        self.tracer = None
        self.first_stdout: dict[tuple, bytes] = {}

    def run(self, argv: list[str], check: Callable[[str], list]) -> list:
        if self.tracer is None:
            command = [sys.executable, "-m", "bellforge", *argv]
        else:
            spans_path = self.out_dir / f"child-spans-{os.getpid()}.json"
            command = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans_path), *argv]
        proc = subprocess.run(command, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        if self.tracer is not None:
            self.tracer.adopt(tracing.load(spans_path))
            spans_path.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
        if self.first_stdout.setdefault(tuple(argv), proc.stdout) != proc.stdout:
            raise RuntimeError("stdout differs from the first pass")
        return check(proc.stdout.decode())


def cli_verify(commands: CliCommands, seed: int) -> tuple[list[Op], list[Op]]:
    """(ops, warm-up ops). The seed is passed as --seed and picks the antimap
    flat map, the `bell make` state and the `export` order."""
    rng = random.Random(seed)
    seeded = ["--seed", str(seed)]
    flat = rng.choice(FLAT_IDS)
    tag, two_j, n = rng.randint(1, 4), rng.randint(1, 6), rng.randint(2, 8)
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))

    def op(name, argv, check=report_checks):
        return Op(name, partial(commands.run, argv, check))

    ops = [
        op("verify all", ["verify", "all", *seeded]),
        op("verify consistency cp1:4", ["verify", "consistency", "--flat", "cp1:4", "--two-j", "3", "--points", "10000", *seeded]),
        op("verify consistency cp2:b3", ["verify", "consistency", "--flat", "cp2:b3", "--points", "10000", *seeded]),
        op(f"verify antimap {flat}", ["verify", "antimap", "--flat", flat, "--pairs", "1000", *seeded]),
        op("verify unity", ["verify", "unity", *seeded]),
        op(
            f"bell make cp1:{tag} 2j={two_j}",
            ["bell", "make", "--space", "cp1", "--two-j", str(two_j), "--flat", f"cp1:{tag}"],
            partial(state_checks, cp1_reference(two_j, tag)),
        ),
        op(f"export clock {n}", ["export", "--what", "clock", "--n", str(n)], partial(matrix_checks, clock)),
    ]
    return ops, ops[-1:]
