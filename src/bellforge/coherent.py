"""Coherent-state families.

Spin-j states on CP^1 (dim 2j+1) and level-one states on CP^n (dim n+1):

    |z>      = sum_k sqrt(C(2j,k)) z^k / (1+|z|^2)^j  |k>,       z in C
    |(z_i)>  = (1, z_1, ..., z_n) / sqrt(1 + sum |z_i|^2)

The invariant measures they are integrated against are given in `quadrature`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError


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


def coherent_cp1(two_j: int, z: complex) -> np.ndarray:
    """Spin-j coherent state at the chart coordinate z; refused where
    (1+|z|^2)^j leaves float range."""
    if two_j < 0:
        raise DomainError("two_j must be nonnegative")
    z = complex(z)
    norm = _spin_norm(two_j, z)
    k = np.arange(two_j + 1)
    return _sqrt_binomials(two_j) * z**k / norm


def _spin_norm(two_j: int, z: complex) -> float:
    """(1+|z|^2)^j, refused where it leaves float range."""
    try:
        return (1.0 + abs(z) ** 2) ** (two_j / 2.0)
    except OverflowError:
        raise DomainError(f"(1+|z|^2)^j leaves float range at 2j = {two_j}") from None


def check_spin_range(two_j: int, points) -> None:
    """Refuse with DomainError, before any state is built, when coherent_cp1
    would refuse one of the chart points z."""
    for z in points:
        _spin_norm(two_j, complex(z))


def spin_states_from_homogeneous(two_j: int, zetas: np.ndarray) -> np.ndarray:
    """Spin-j states for rows (zeta_0, zeta_1) of homogeneous CP^1 coordinates.

    Row k-amplitude: sqrt(C(2j,k)) zeta_0^(2j-k) zeta_1^k / |zeta|^(2j).
    Same projective point as coherent_cp1 at z = zeta_1/zeta_0, with the global
    phase fixed differently; use only where a global phase cancels.

    A row whose powers leave float range, such as (1e-30, 1e-30j) at 2j = 12,
    is evaluated again from its coordinates scaled by an exact power of two;
    other rows are left untouched. Rows that are all zero or not finite, and
    states that stay out of range even so, are refused with DomainError.
    """
    z = np.asarray(zetas, dtype=complex).reshape(-1, 2)
    if not (np.isfinite(z).all() and z.any(axis=1).all()):
        raise DomainError("homogeneous coordinates must be finite and not all zero")
    states = _spin_rows(two_j, z)
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        rows = z[bad]
        # 2^-e with e the exponent of the largest real or imaginary part
        _, e = np.frexp(np.maximum(abs(rows.real), abs(rows.imag)).max(axis=1))
        scaled = np.ldexp(rows.real, -e[:, None]) + 1j * np.ldexp(rows.imag, -e[:, None])
        states[bad] = _spin_rows(two_j, scaled)
        if not np.isfinite(states[bad]).all():
            raise DomainError(f"a spin state leaves float range at 2j = {two_j}")
    return states


def _spin_rows(two_j: int, z: np.ndarray) -> np.ndarray:
    """The states of spin_states_from_homogeneous, not finite where a power leaves float range."""
    k = np.arange(two_j + 1)
    with np.errstate(all="ignore"):
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
