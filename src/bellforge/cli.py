"""Command-line interface.

Subcommands:

  bell make        write a closed-form state as JSON
  bell integrate   evaluate the coherent-state integral and compare
  verify ...       run verification checks (unity, measure, antimap,
                   consistency, moments, fourier, rank, schmidt, all)
  export           dump walsh/clock/shift matrices as JSON

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or config error.
Stdout and every file written are byte-identical for identical flags and seed;
the wall-time line goes to stderr and is excluded from that contract.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import analysis, bell, fourier
from .errors import BellforgeError, DomainError, check_array_bytes
from .flatmaps import (
    FlatMapId,
    cp1_catalog,
    cpn_catalog,
    projector_consistency,
    verify_antimap,
)
from .coherent import coherent_states
from .quadrature import MCSpec, QuadratureSpecCP1, QuadratureSpecCP2, moments_cp1, sample_fubini_study

DEFAULT_SEED = 0
QUAD_TOL = 1e-10
MC_TOL = 5e-3
ANTIMAP_TOL = 1e-12
CONSISTENCY_TOL = 1e-12
FOURIER_TOL = 1e-13
SCHMIDT_TOL = 1e-10
ENTROPY_TOL = 1e-9


class Check(NamedTuple):
    """One named check: residual <= tolerance, or exact equality for ranks."""

    name: str
    value: object
    tolerance: object
    mode: str = "le"

    @property
    def ok(self) -> bool:
        if self.mode == "eq":
            return self.value == self.tolerance
        return self.value <= self.tolerance


class Report:
    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.checks: list[Check] = []
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def emit(self) -> None:
        """Print the report to sys.stdout as it is at the call, so a caller can redirect it."""
        print(f"command: {self.command}")
        cfg = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.config.items()))
        print(f"config: {cfg}")
        for line in self.notes:
            print(line)
        for c in self.checks:
            rel = "==" if c.mode == "eq" else "<="
            status = "PASS" if c.ok else "FAIL"
            print(f"check {c.name}: value={_fmt(c.value)} {rel} {_fmt(c.tolerance)} {status}")
        if self.checks:
            passed = sum(c.ok for c in self.checks)
            verdict = "PASS" if self.ok else "FAIL"
            print(f"result: {verdict} ({passed}/{len(self.checks)})")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["check", "value", "tolerance", "status"])
            for c in self.checks:
                writer.writerow(
                    [c.name, _fmt(c.value), _fmt(c.tolerance), "PASS" if c.ok else "FAIL"]
                )

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolve_seed(args) -> int:
    """--seed, else BELLFORGE_SEED, else 0; anything but a nonnegative integer is a usage error."""
    text = os.environ.get("BELLFORGE_SEED", DEFAULT_SEED) if args.seed is None else args.seed
    try:
        seed = int(text)
    except ValueError:
        raise DomainError(f"BELLFORGE_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    return seed


def _state_document(state: bell.BipartiteState) -> dict:
    return {
        "kind": "bipartite",
        "dim_a": state.dim_a,
        "dim_b": state.dim_b,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def _matrix_document(matrix: np.ndarray) -> dict:
    return {
        "kind": "matrix",
        "dim": matrix.shape[0],
        "entries": [
            [[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix, complex)
        ],
    }


def _write_json(document: dict, path: str | None) -> None:
    text = json.dumps(document, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text + "\n")


def _resolve_flat(space="cp1", flat=None, two_j=None, n=None, p=0, q=0):
    """Return (flat id, two_j or None, state dimension) from the values of
    --space/--flat/--two-j/--n/--p/--q."""
    text = flat
    if text:
        flat = FlatMapId.parse(text)
        accepted = {"cp1": ("cp1", 0), "cp2": ("cpn", 2), "cpn": ("cpn", flat.n)}[space]
        if (flat.space, flat.n) != accepted:
            raise DomainError(f"--flat {text} does not belong to {space}")
    elif space == "cpn":
        if n is None:
            raise DomainError("--space cpn needs --n (and --p/--q or --flat)")
        flat = FlatMapId.cpn(n - 1, p, q)
    else:
        raise DomainError("--flat is required for cp1/cp2")
    if flat.space == "cp1":
        two_j = two_j if two_j is not None else 1
        return flat, two_j, two_j + 1
    if space == "cpn" and n is not None and flat.n != n - 1:
        raise DomainError(f"--n {n} (dimension) conflicts with --flat {text}")
    return flat, None, flat.n + 1


def _closed_form_label(flat: FlatMapId, two_j: int | None) -> str:
    if flat.space == "cp1":
        sign = "(-1)^k " if flat.tag in (2, 4) else ""
        partner = "k" if flat.tag in (1, 2) else "2j-k"
        return f"sum_k {sign}|k>|{partner}> / sqrt(2j+1), 2j = {two_j}"
    d = flat.n + 1
    return (
        f"sum_k omega^({flat.p}k) |k>|k+{flat.q} mod {d}> / sqrt({d}), "
        f"omega = exp(2 pi i/{d})"
    )


def _refuse_foreign_nodes(nodes: dict, accepted, rule: str) -> None:
    """A node count given for a rule that does not read it is a usage error."""
    foreign = [key for key, value in nodes.items() if value is not None and key not in accepted]
    if foreign:
        raise DomainError(f"--{foreign[0].replace('_', '-')} does not apply to {rule}")


def _quadrature_spec(space, two_j, **nodes):
    """The default rule for `space` ("cp1", else CP^n), with each node count
    that is given (not None) replacing its default."""
    base = QuadratureSpecCP1.for_spin(two_j) if space == "cp1" else QuadratureSpecCP2()
    _refuse_foreign_nodes(nodes, base.__dataclass_fields__, f"the {space} rule")
    return dataclasses.replace(base, **{k: v for k, v in nodes.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_bell_make(args) -> int:
    flat, two_j, _ = _resolve_flat(args.space, args.flat, args.two_j, args.n, args.p, args.q)
    state = bell.bell_target(flat, two_j=two_j)
    config = {"space": args.space, "flat": str(flat)}
    if two_j is not None:
        config["two_j"] = two_j
    report = Report("bell make", config)
    report.notes.append(f"closed form: {_closed_form_label(flat, two_j)}")
    document = _state_document(state)
    if args.output:
        _write_json(document, args.output)
        report.notes.append(f"wrote: {args.output}")
        report.emit()
    else:
        report.emit()
        _write_json(document, None)
    return 0


def _bell_integral(tol, notes, spec=None, output=None, **flags):
    """The integral for one catalog map against its closed form, as `bell
    integrate` checks it; the integrated state is written to `output` if given."""
    flat, two_j, _ = _resolve_flat(**flags)
    state, norm_residual = bell.fivel_bell(flat, spec, two_j=two_j)
    distance = analysis.state_distance(state, bell.bell_target(flat, two_j=two_j))
    notes.append(f"closed form: {_closed_form_label(flat, two_j)}")
    if output:
        _write_json(_state_document(state), output)
        notes.append(f"wrote: {output}")
    return [Check("state-distance", distance, tol), Check("norm-residual", norm_residual, tol)]


def _cmd_bell_integrate(args) -> int:
    flags = {key: vars(args)[key] for key in _BELL_FLAGS}
    flat, two_j, _ = _resolve_flat(**flags)
    nodes = {key: vars(args)[key] for key in _NODES}
    if args.mc_samples is not None:
        _refuse_foreign_nodes(nodes, (), "Monte Carlo (--mc-samples)")
        seed = _resolve_seed(args)
        spec = MCSpec(samples=args.mc_samples, seed=seed)
        config_spec = {"mc_samples": args.mc_samples, "seed": seed}
        tolerance = args.tolerance if args.tolerance is not None else MC_TOL
    else:
        spec = _quadrature_spec(flat.space, two_j, **nodes)
        config_spec = {k: getattr(spec, k) for k in spec.__dataclass_fields__}
        tolerance = args.tolerance if args.tolerance is not None else QUAD_TOL

    config = {"space": args.space, "flat": str(flat), **config_spec}
    if two_j is not None:
        config["two_j"] = two_j
    report = Report("bell integrate", config)
    report.checks.extend(_bell_integral(tolerance, report.notes, spec, args.output, **flags))
    report.emit()
    if args.csv:
        report.write_csv(args.csv)
    return report.exit_code()


# ---------------------------------------------------------------------------
# verify checks, declared in _VERIFY


def _worst(residuals):
    """The largest residual, or NaN if any is NaN: max() keeps a NaN only when it comes first."""
    return max(residuals, key=lambda value: (math.isnan(value), value))


def _sample_rows(flat: str | None, count: int, seed: int) -> tuple[FlatMapId, np.ndarray]:
    if flat is None:
        raise DomainError("--flat is required")
    flat = FlatMapId.parse(flat)
    manifold_n = 1 if flat.space == "cp1" else flat.n
    return flat, sample_fubini_study(manifold_n, MCSpec(samples=count, seed=seed))


def _unity(tol, notes, space="cp1", two_j=1, **nodes):
    spec = _quadrature_spec(space, two_j, **nodes)
    if space == "cp1":
        value = analysis.resolution_of_unity_cp1(two_j, spec)
        return [Check(f"unity-cp1-two_j-{two_j}", value, tol)]
    if space == "cp2":
        return [Check("unity-cp2", analysis.resolution_of_unity_cp2(spec), tol)]
    raise DomainError("verify unity supports --space cp1 or cp2")


def _measure(tol, notes, space="cp1", two_j=1):
    if space == "cp1":
        value, expected = analysis.total_measure_cp1(two_j), two_j + 1
        name = f"measure-cp1-two_j-{two_j}"
    elif space == "cp2":
        value, expected, name = analysis.total_measure_cp2(), 3, "measure-cp2"
    else:
        raise DomainError("verify measure supports --space cp1 or cp2")
    notes.append(f"total measure: {_fmt(value)} (expected {expected})")
    return [Check(name, abs(value - expected), tol)]


def _antimap(tol, notes, seed, flat=None, two_j=1, pairs=1000):
    flat, rows = _sample_rows(flat, 2 * pairs, seed)
    value = verify_antimap(flat, list(zip(rows[:pairs], rows[pairs:])), two_j=two_j)
    return [Check(f"antimap-{flat}", value, tol)]


def _consistency(tol, notes, seed, flat=None, two_j=1, points=1000):
    flat, rows = _sample_rows(flat, points, seed)
    states = coherent_states(flat.space, rows, two_j)
    return [Check(f"state-vs-projector-{flat}", projector_consistency(flat, states), tol)]


def _moments(tol, notes, two_j=1):
    moments = moments_cp1(two_j)
    residuals = (abs(m - 1.0 / math.comb(two_j, k)) for k, m in enumerate(moments))
    return [Check(f"moments-two_j-{two_j}", _worst(residuals), tol)]


def _fourier(tol, notes, n=3):
    shift = Check(f"shift-diagonalization-{n}", fourier.verify_shift_diagonalization(n), tol)
    w = fourier.walsh_hadamard(n)
    unitarity = float(np.linalg.norm(w @ w.conj().T - np.eye(n)))
    return [shift, Check(f"fourier-unitarity-{n}", unitarity, 1e-12)]


def _rank(tol, notes, family="spin1", two_j=1, n=2):
    """Expected ranks follow from orthogonality. The four cp1 tags give one
    state at 2j = 0; at 2j = 2 they span 3, since tag 1 minus tag 2 and tag 3
    minus tag 4 are both 2|1>|1>/sqrt(3)."""
    if family in ("spin1", "cp1"):
        spin = 2 if family == "spin1" else two_j
        states = [bell.closed_form_bell_cp1(spin, t) for t in (1, 2, 3, 4)]
        expected = {0: 1, 2: 3}.get(spin, 4)
    else:  # cp2 is the generalized family at n = 3
        n = 3 if family == "cp2" else n
        check_array_bytes(16 * n**4, f"the {n * n} generalized Bell states at n = {n}")
        states = [bell.generalized_bell(n, p, q) for p in range(n) for q in range(n)]
        expected = n * n
    notes.append(f"family: {family} ({len(states)} states)")
    return [Check(f"rank-{family}", analysis.rank_of_family(states), expected, mode="eq")]


def _schmidt(tol, notes, **flags):
    flat, two_j, dim = _resolve_flat(**flags)
    state = bell.bell_target(flat, two_j=two_j)
    data = analysis.schmidt(state)
    uniform = 1.0 / math.sqrt(dim)
    notes.append(f"closed form: {_closed_form_label(flat, two_j)}")
    return [
        Check(f"schmidt-flatness-{flat}", float(np.max(np.abs(data.singular_values - uniform))), tol),
        Check(f"entropy-{flat}", abs(data.entropy - math.log(dim)), ENTROPY_TOL),
        Check(f"norm-{flat}", abs(state.norm() - 1.0), tol),
    ]


def _all(tol, notes, seed):
    """Rows of (label, entry, cases), each case a set of flag values; a row
    reports the worst value of its entry's first check over its cases."""
    v = _VERIFY
    catalog = [dict(flat=str(f), two_j=j, seed=seed) for j in (1, 2) for f in cp1_catalog()]
    catalog += [dict(flat=str(f), seed=seed) for f in cpn_catalog(2)]
    targets = [dict(space="cp1", flat=f"cp1:{t}", two_j=j) for t in (1, 2, 3, 4) for j in (1, 2, 4)]
    targets += [dict(space="cp2", flat=str(f)) for f in cpn_catalog(2)]
    rows = [
        *[(f"unity-cp1-two_j-{j}", v["unity"], [dict(two_j=j)]) for j in (1, 2, 5)],
        ("unity-cp2", v["unity"], [dict(space="cp2")]),
        ("measure-cp1-two_j-3", v["measure"], [dict(two_j=3)]),
        ("measure-cp2", v["measure"], [dict(space="cp2")]),
        ("moments-two_j-0..6", v["moments"], [dict(two_j=j) for j in range(7)]),
        ("antimap-catalog", v["antimap"], [dict(c, pairs=200) for c in catalog]),
        ("state-vs-projector-catalog", v["consistency"], [dict(c, points=200) for c in catalog]),
        *[(f"shift-diagonalization-{n}", v["fourier"], [dict(n=n)]) for n in (2, 3, 8)],
        ("rank-spin1", v["rank"], [{}]),
        ("bell-integral-vs-closed-form", ((), False, _bell_integral, QUAD_TOL), targets),
        ("schmidt-flatness-catalog", v["schmidt"], targets),
    ]
    checks = []
    for label, (_, _, run, default_tol), cases in rows:
        firsts = [run(default_tol, [], **case)[0] for case in cases]
        worst = _worst(c.value for c in firsts)
        checks.append(Check(label, worst, firsts[0].tolerance, firsts[0].mode))
    return checks


# One entry per `verify` subcommand: (flags, seeded, run, default tol). The
# flags are also the config keys, and a seeded entry adds the resolved seed to
# both. run(tol, notes, **flag values) returns the checks; tol is --tolerance,
# else the default, and bounds each check that has no fixed bound of its own.
_NODES = ("radial_nodes", "angular_nodes", "simplex_nodes")
_VERIFY = {
    "unity": (("space", "two_j", *_NODES, "tolerance"), False, _unity, QUAD_TOL),
    "measure": (("space", "two_j", "tolerance"), False, _measure, QUAD_TOL),
    "antimap": (("flat", "two_j", "pairs", "tolerance"), True, _antimap, ANTIMAP_TOL),
    "consistency": (("flat", "two_j", "points", "tolerance"), True, _consistency, CONSISTENCY_TOL),
    "moments": (("two_j", "tolerance"), False, _moments, QUAD_TOL),
    "fourier": (("n", "tolerance"), False, _fourier, FOURIER_TOL),
    "rank": (("family", "two_j", "n"), False, _rank, None),
    "schmidt": (("space", "flat", "two_j", "n", "p", "q", "tolerance"), False, _schmidt, SCHMIDT_TOL),
    "all": ((), True, _all, None),
}


def _cmd_verify(args) -> int:
    names, seeded, run, default_tol = _VERIFY[args.what]
    config = {key: vars(args)[key] for key in names if vars(args)[key] is not None}
    if seeded:
        config["seed"] = _resolve_seed(args)
    report = Report(f"verify {args.what}", config)
    flags = dict(config)
    tol = flags.pop("tolerance", default_tol)
    report.checks.extend(run(tol, report.notes, **flags))
    report.emit()
    if args.csv:
        report.write_csv(args.csv)
    return report.exit_code()


def _cmd_export(args) -> int:
    builders = {"walsh": fourier.walsh_hadamard, "clock": fourier.clock, "shift": fourier.shift}
    matrix = builders[args.what](args.n)
    _write_json(_matrix_document(matrix), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# every flag of `bell` and `verify`; each subcommand takes the ones it names
_FLAGS = {
    "space": dict(choices=("cp1", "cp2", "cpn"), default="cp1"),
    "two_j": dict(type=int),
    "flat": dict(help="catalog id, e.g. cp1:3, cp2:b2, cpn:3:1:2"),
    "n": dict(type=int, help="dimension of each tensor factor"),
    "p": dict(type=int, default=0),
    "q": dict(type=int, default=0),
    "pairs": dict(type=int, default=1000),
    "points": dict(type=int, default=1000),
    "family": dict(choices=("spin1", "cp1", "cp2", "gen"), default="spin1"),
    "radial_nodes": dict(type=int),
    "angular_nodes": dict(type=int),
    "simplex_nodes": dict(type=int),
    "mc_samples": dict(type=int),
    "tolerance": dict(type=float),
    "seed": dict(type=int, help="falls back to BELLFORGE_SEED, then 0"),
    "output": dict(),
    "csv": dict(),
}
_BELL_FLAGS = ("space", "two_j", "flat", "n", "p", "q")


def _add_flags(sub, names, **overrides) -> None:
    for name in names:
        options = {**_FLAGS[name], **overrides.get(name, {})}
        sub.add_argument("--" + name.replace("_", "-"), dest=name, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Coherent-state integrals on complex projective spaces "
        "and the maximally entangled states they produce.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bell_cmd = commands.add_parser("bell", help="construct states")
    bell_sub = bell_cmd.add_subparsers(dest="what", required=True)

    make = bell_sub.add_parser("make", help="write a closed-form state")
    _add_flags(make, (*_BELL_FLAGS, "output"), space={"required": True})
    make.set_defaults(func=_cmd_bell_make)

    integrate = bell_sub.add_parser("integrate", help="evaluate the integral numerically")
    integrate_flags = (*_BELL_FLAGS, *_NODES, "mc_samples", "seed", "tolerance", "output", "csv")
    _add_flags(integrate, integrate_flags, space={"required": True})
    integrate.set_defaults(func=_cmd_bell_integrate)

    verify = commands.add_parser("verify", help="run verification checks")
    verify.set_defaults(func=_cmd_verify)
    verify_sub = verify.add_subparsers(dest="what", required=True)
    for name, (flags, *_) in _VERIFY.items():
        _add_flags(verify_sub.add_parser(name), (*flags, "seed", "csv"))

    export = commands.add_parser("export", help="dump a named matrix as JSON")
    export.add_argument("--what", choices=("walsh", "clock", "shift"), required=True)
    export.add_argument("--n", type=int, required=True)
    export.add_argument("--output", default=None)
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except BellforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - start
        print(f"wall-time: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
