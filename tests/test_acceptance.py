"""End-to-end acceptance checks.

Each test covers one contract criterion at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see
them). Monte Carlo checks use fixed seeds and are fully reproducible.
"""

import functools
import math

import numpy as np

from bellforge import (
    FlatMapId,
    MCSpec,
    bell_target,
    clock,
    closed_form_bell_cp1,
    closed_form_bell_cp2,
    fivel_bell,
    generalized_bell,
    moment_cp1,
    projector_consistency,
    rank_of_family,
    resolution_of_unity_cp1,
    resolution_of_unity_cp2,
    sample_fubini_study,
    schmidt,
    shift,
    state_distance,
    total_measure_cp1,
    total_measure_cp2,
    unitary_transport_identity,
    verify_antimap,
    verify_shift_diagonalization,
    walsh_hadamard,
)
from bellforge.coherent import level_one_states_from_homogeneous, spin_states_from_homogeneous
from bellforge.flatmaps import cp1_catalog, cpn_catalog, global_unitary

MC_SAMPLES = 1_000_000
MC_SEED = 20260809
PAIR_SEED = 7

# ids exercised by the catalog-wide criteria: the four sphere maps at three
# spins, the nine maps of CP^2 and the sixteen of CP^3
CATALOG = (
    [(f, 1) for f in cp1_catalog()]
    + [(f, 2) for f in cp1_catalog()]
    + [(f, 5) for f in cp1_catalog()]
    + [(f, None) for f in cpn_catalog(2)]
    + [(f, None) for f in cpn_catalog(3)]
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d}: {label} ({detail})")
    assert ok, f"criterion {num} failed: {label} ({detail})"


@functools.lru_cache(maxsize=None)
def _quadrature_cp1(two_j: int, tag: int):
    return fivel_bell(FlatMapId.cp1(tag), two_j=two_j)


@functools.lru_cache(maxsize=None)
def _quadrature_cp2(p: int, q: int):
    return fivel_bell(FlatMapId.cpn(2, p, q))


def _states_for(flat, two_j, rows):
    if flat.space == "cp1":
        return spin_states_from_homogeneous(two_j, rows)
    return level_one_states_from_homogeneous(rows)


def test_criterion_01_qubit_bell_pairs():
    s2 = 1.0 / math.sqrt(2.0)
    printed = {
        1: [s2, 0.0, 0.0, s2],
        2: [s2, 0.0, 0.0, -s2],
        3: [0.0, s2, s2, 0.0],
        4: [0.0, s2, -s2, 0.0],
    }
    worst = 0.0
    for tag, want in printed.items():
        state, _ = _quadrature_cp1(1, tag)
        worst = max(worst, float(np.max(np.abs(state.amplitudes - np.array(want)))))
    _report(1, "integral recovers the four qubit pairs", worst <= 1e-10, f"worst={worst:.3e}")


def test_criterion_02_spin_family_reproduction():
    worst = 0.0
    for two_j in range(1, 11):
        for tag in (1, 2, 3, 4):
            state, _ = _quadrature_cp1(two_j, tag)
            worst = max(worst, state_distance(state, closed_form_bell_cp1(two_j, tag)))
    _report(2, "spin families 2j = 1..10 match closed forms", worst <= 1e-10, f"worst={worst:.3e}")


def test_criterion_03_cp2_family_reproduction():
    worst_quad = 0.0
    worst_mc = 0.0
    for p in range(3):
        for q in range(3):
            closed = closed_form_bell_cp2(p, q)
            state, _ = _quadrature_cp2(p, q)
            worst_quad = max(worst_quad, state_distance(state, closed))
            mc_state, _ = fivel_bell(
                FlatMapId.cpn(2, p, q), MCSpec(samples=MC_SAMPLES, seed=MC_SEED)
            )
            worst_mc = max(worst_mc, state_distance(mc_state, closed))
    ok = worst_quad <= 1e-10 and worst_mc <= 5e-3
    _report(
        3,
        "nine CP^2 states by quadrature and Monte Carlo",
        ok,
        f"quad={worst_quad:.3e}, mc={worst_mc:.3e}",
    )


def test_criterion_04_resolution_of_unity_and_mass():
    worst_unity = max(resolution_of_unity_cp1(two_j) for two_j in range(0, 11))
    worst_unity = max(worst_unity, resolution_of_unity_cp2())
    worst_mass = max(
        abs(total_measure_cp1(two_j) - (two_j + 1)) for two_j in range(0, 11)
    )
    worst_mass = max(worst_mass, abs(total_measure_cp2() - 3.0))
    ok = worst_unity <= 1e-10 and worst_mass <= 1e-10
    _report(
        4,
        "resolution of unity and total mass",
        ok,
        f"unity={worst_unity:.3e}, mass={worst_mass:.3e}",
    )


def test_criterion_05_moment_integrals():
    worst = max(
        abs(moment_cp1(two_j, k) - 1.0 / math.comb(two_j, k))
        for two_j in range(0, 11)
        for k in range(two_j + 1)
    )
    _report(5, "moments equal inverse binomials, 2j <= 10", worst <= 1e-10, f"worst={worst:.3e}")


def test_criterion_06_overlap_reversal_identity():
    worst = 0.0
    for flat, two_j in CATALOG:
        n = 1 if flat.space == "cp1" else flat.n
        rows = sample_fubini_study(n, MCSpec(samples=2000, seed=PAIR_SEED))
        pairs = list(zip(rows[:1000], rows[1000:]))
        worst = max(worst, verify_antimap(flat, pairs, two_j=two_j or 1))
    _report(6, "overlap reversal on 1000 pairs per id", worst <= 1e-12, f"worst={worst:.3e}")


def test_criterion_07_state_projector_consistency():
    residuals = []
    for flat, two_j in CATALOG:
        n = 1 if flat.space == "cp1" else flat.n
        rows = sample_fubini_study(n, MCSpec(samples=1000, seed=PAIR_SEED))
        residuals.append(projector_consistency(flat, _states_for(flat, two_j, rows)))
    ok = all(r <= 1e-12 for r in residuals)
    _report(7, "state and projector twists agree on 1000 points per id", ok, f"worst={max(residuals):.3e}")


def test_criterion_08_spin_one_rank_deficiency():
    rank = rank_of_family([closed_form_bell_cp1(2, t) for t in (1, 2, 3, 4)], tol=1e-8)
    _report(8, "four spin-1 closed forms span rank 3", rank == 3, f"rank={rank}")


def test_criterion_09_maximal_entanglement():
    worst_flat = 0.0
    worst_entropy = 0.0
    worst_norm = 0.0
    catalog = [(two_j, tag) for two_j in range(1, 11) for tag in (1, 2, 3, 4)]
    for two_j, tag in catalog:
        closed = closed_form_bell_cp1(two_j, tag)
        _, residual = _quadrature_cp1(two_j, tag)
        data = schmidt(closed)
        dim = closed.dim_a
        worst_flat = max(worst_flat, float(np.max(np.abs(data.singular_values - dim**-0.5))))
        worst_entropy = max(worst_entropy, abs(data.entropy - math.log(dim)))
        worst_norm = max(worst_norm, residual)
    for p in range(3):
        for q in range(3):
            closed = closed_form_bell_cp2(p, q)
            _, residual = _quadrature_cp2(p, q)
            data = schmidt(closed)
            worst_flat = max(worst_flat, float(np.max(np.abs(data.singular_values - 3**-0.5))))
            worst_entropy = max(worst_entropy, abs(data.entropy - math.log(3.0)))
            worst_norm = max(worst_norm, residual)
    ok = worst_flat <= 1e-10 and worst_entropy <= 1e-9 and worst_norm <= 1e-10
    _report(
        9,
        "catalog states are maximally entangled with unit norm",
        ok,
        f"schmidt={worst_flat:.3e}, entropy={worst_entropy:.3e}, norm={worst_norm:.3e}",
    )


def test_criterion_10_fourier_identities():
    worst_diag = max(verify_shift_diagonalization(n) for n in range(2, 17))
    w = np.exp(2j * np.pi / 3.0)
    printed = [
        (walsh_hadamard(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)),
        (walsh_hadamard(3), np.array([[1, 1, 1], [1, w**2, w], [1, w, w**2]]) / math.sqrt(3.0)),
        (clock(3), np.diag([1.0, w, w**2])),
        (shift(3), np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)),
    ]
    worst_printed = max(float(np.max(np.abs(got - want))) for got, want in printed)
    ok = worst_diag <= 1e-13 and worst_printed <= 1e-14
    _report(
        10,
        "shift diagonalization n <= 16 and printed matrices",
        ok,
        f"diag={worst_diag:.3e}, printed={worst_printed:.3e}",
    )


def test_criterion_11_dimension_four_family_oracle():
    worst_mc = 0.0
    for p in range(4):
        for q in range(4):
            state, _ = fivel_bell(
                FlatMapId.cpn(3, p, q), MCSpec(samples=MC_SAMPLES, seed=MC_SEED)
            )
            worst_mc = max(worst_mc, state_distance(state, generalized_bell(4, p, q)))
    worst_transport = max(
        unitary_transport_identity(FlatMapId.cp1(tag), two_j=1) for tag in (1, 2, 3, 4)
    )
    worst_transport = max(
        worst_transport, max(unitary_transport_identity(f) for f in cpn_catalog(2))
    )
    ok = worst_mc <= 5e-3 and worst_transport <= 1e-10
    _report(
        11,
        "dimension-4 family against the Monte Carlo and transport oracles",
        ok,
        f"mc={worst_mc:.3e}, transport={worst_transport:.3e}",
    )
