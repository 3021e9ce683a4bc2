"""Coherent-state families and their invariant measures.

Spin-j states on CP^1 (dim 2j+1) and level-one states on CP^n (dim n+1):

    |z>      = sum_k sqrt(C(2j,k)) z^k / (1+|z|^2)^j  |k>,       z in C
    |(z_i)>  = (1, z_1, ..., z_n) / sqrt(1 + sum |z_i|^2)

with measure densities against the Lebesgue area elements

    cp1:  (2j+1)/pi  * 1/(1+|z|^2)^2
    cpn:  (n+1) n!/pi^n * 1/(1 + sum |z_i|^2)^(n+1)

The cpn normalization extends the n = 1, 2 values so that the total mass is
always dim V; the quadrature tests confirm it numerically for higher n.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .projective import ChartPoint, chart_vector


def binomial_row(n: int) -> np.ndarray:
    """C(n, 0..n) as floats (exact integers, rounded once on conversion).

    The middle binomials leave float range from n = 1030 on.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    try:
        return np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    except OverflowError:
        raise DomainError(f"C({n}, k) exceeds float range; n must be at most 1029") from None


@functools.lru_cache(maxsize=32)
def _sqrt_binomials(two_j: int) -> np.ndarray:
    """sqrt(C(2j, 0..2j)), read-only and kept for the 32 most recent spins."""
    row = np.sqrt(binomial_row(two_j))
    row.flags.writeable = False
    return row


def su2_generators(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ladder and weight matrices (J+, J-, J3) in the basis |k>, k = 0..2j.

    J+|k> = sqrt((2j-k)(k+1)) |k+1>,  J-|k> = sqrt(k(2j-k+1)) |k-1>,
    J3|k> = (-j+k) |k>.
    """
    if two_j < 0:
        raise DomainError("two_j must be nonnegative")
    dim = two_j + 1
    k = np.arange(dim - 1)
    j_plus = np.zeros((dim, dim))
    j_plus[k + 1, k] = np.sqrt((two_j - k) * (k + 1.0))
    j_minus = j_plus.T.copy()
    j_3 = np.diag(np.arange(dim) - two_j / 2.0)
    return j_plus, j_minus, j_3


def coherent_cp1(two_j: int, z: complex) -> np.ndarray:
    """Spin-j coherent state at the chart coordinate z; refused where
    (1+|z|^2)^j leaves float range."""
    if two_j < 0:
        raise DomainError("two_j must be nonnegative")
    z = complex(z)
    try:
        norm = (1.0 + abs(z) ** 2) ** (two_j / 2.0)
    except OverflowError:
        raise DomainError(f"(1+|z|^2)^j leaves float range at 2j = {two_j}") from None
    k = np.arange(two_j + 1)
    return _sqrt_binomials(two_j) * z**k / norm


def coherent_cpn(n: int, c: ChartPoint) -> np.ndarray:
    """Level-one coherent state on CP^n; identical to the chart unit vector."""
    if c.n != n:
        raise DimensionMismatchError(f"chart point lives on CP^{c.n}, not CP^{n}")
    return chart_vector(c)


def measure_density_cp1(two_j: int, z: complex) -> float:
    return (two_j + 1) / math.pi / (1.0 + abs(complex(z)) ** 2) ** 2


def measure_density_cpn(n: int, c: ChartPoint) -> float:
    if c.n != n:
        raise DimensionMismatchError(f"chart point lives on CP^{c.n}, not CP^{n}")
    if c.chart_index != 0:
        raise DomainError("density is expressed in chart 0 coordinates")
    s = 1.0 + float(np.sum(np.abs(c.local) ** 2))
    return (n + 1) * math.factorial(n) / math.pi**n / s ** (n + 1)


def spin_states_from_homogeneous(two_j: int, zetas: np.ndarray) -> np.ndarray:
    """Spin-j states for rows (zeta_0, zeta_1) of homogeneous CP^1 coordinates.

    Row k-amplitude: sqrt(C(2j,k)) zeta_0^(2j-k) zeta_1^k / |zeta|^(2j).
    Same projective point as coherent_cp1 at z = zeta_1/zeta_0, with the global
    phase fixed differently; use only where a global phase cancels.
    """
    z = np.asarray(zetas, dtype=complex).reshape(-1, 2)
    k = np.arange(two_j + 1)
    amps = _sqrt_binomials(two_j)[None, :] * z[:, [0]] ** (two_j - k) * z[:, [1]] ** k
    norms = np.sum(np.abs(z) ** 2, axis=1) ** (two_j / 2.0)
    return amps / norms[:, None]


def level_one_states_from_homogeneous(zetas: np.ndarray) -> np.ndarray:
    """Normalized rows of homogeneous CP^n coordinates (level-one states)."""
    z = np.asarray(zetas, dtype=complex)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def coherent_states(space: str, rows, two_j: int = 1) -> np.ndarray:
    """One coherent state per row of homogeneous coordinates: spin-j states
    (2j = two_j) for space "cp1", level-one states for "cpn"."""
    if space == "cp1":
        return spin_states_from_homogeneous(two_j, rows)
    return level_one_states_from_homogeneous(rows)
