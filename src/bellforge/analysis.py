"""Verification instruments: resolution of unity, total mass, Schmidt spectra,
family rank and state distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import BipartiteState, _contract, _cp1_integral, _points
from .errors import DimensionMismatchError, EmptyFamilyError
from .quadrature import MCSpec, QuadratureSpecCP1, QuadratureSpecCP2, integrate_cp1, integrate_cp2


@dataclass(frozen=True, eq=False)
class SchmidtData:
    singular_values: np.ndarray  # nonincreasing, squares sum to 1 for unit input
    entropy: float  # -sum s^2 log s^2, natural log


def schmidt(state: BipartiteState) -> SchmidtData:
    """Schmidt spectrum and entanglement entropy of a bipartite pure state."""
    values = np.linalg.svd(state.matrix(), compute_uv=False)
    squares = values**2
    positive = squares[squares > 0.0]
    entropy = float(-np.sum(positive * np.log(positive)))
    return SchmidtData(singular_values=values, entropy=entropy)


def rank_of_family(states: list[BipartiteState], tol: float = 1e-8) -> int:
    """Numerical rank of the span of the amplitude vectors."""
    if not states:
        raise EmptyFamilyError("need at least one state")
    sizes = {s.amplitudes.size for s in states}
    if len(sizes) != 1:
        raise DimensionMismatchError(f"mixed amplitude sizes {sorted(sizes)}")
    stacked = np.stack([s.amplitudes for s in states])
    singular = np.linalg.svd(stacked, compute_uv=False)
    if singular[0] == 0.0:
        return 0
    return int(np.sum(singular > tol * singular[0]))


def state_distance(a: BipartiteState, b: BipartiteState) -> float:
    """Euclidean distance of amplitude vectors; no global-phase quotient."""
    if (a.dim_a, a.dim_b) != (b.dim_a, b.dim_b):
        raise DimensionMismatchError(
            f"shapes differ: {(a.dim_a, a.dim_b)} vs {(b.dim_a, b.dim_b)}"
        )
    return float(np.linalg.norm(a.amplitudes - b.amplitudes))


def resolution_of_unity_cp1(two_j: int, spec: QuadratureSpecCP1 | None = None) -> float:
    """Frobenius deviation of the coherent-family frame operator from identity;
    refused before the first node when a node lies outside the range of
    coherent_cp1."""
    spec = spec or QuadratureSpecCP1.for_spin(two_j)
    buf = np.empty((two_j + 1, two_j + 1), dtype=complex)  # every node's outer product, reused
    frame = _cp1_integral(two_j, spec, lambda psi: np.outer(psi, psi.conj(), out=buf))
    return float(np.linalg.norm(frame - np.eye(two_j + 1)))


def resolution_of_unity_cp2(spec: QuadratureSpecCP2 | None = None) -> float:
    return resolution_of_unity_mc(2, spec or QuadratureSpecCP2())


def resolution_of_unity_mc(n: int, spec: MCSpec | QuadratureSpecCP2) -> float:
    """Frame-operator deviation on CP^n (level-one states) over the Monte
    Carlo draw of an MCSpec, or over the rule of a QuadratureSpecCP2."""
    frame = _contract(*_points("cpn", n + 1, spec))
    return float(np.linalg.norm(frame - np.eye(n + 1)))


def total_measure_cp1(two_j: int, spec: QuadratureSpecCP1 | None = None) -> float:
    return float(integrate_cp1(lambda z: 1.0, two_j, spec).real)


def total_measure_cp2(spec: QuadratureSpecCP2 | None = None) -> float:
    return float(integrate_cp2(lambda z1, z2: 1.0, spec).real)
