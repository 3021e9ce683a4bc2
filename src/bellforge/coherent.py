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

from .errors import DomainError, check_array_bytes


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
    so that its state is not finite or is zero, is evaluated again from the
    unit row at the same point and phase; other rows are left untouched.
    Every finite nonzero row then has a finite state for each 2j that
    binomial_row accepts. Rows that are all zero or not finite, and states
    past MAX_ARRAY_BYTES, are refused with DomainError.
    """
    z = np.asarray(zetas, dtype=complex).reshape(-1, 2)
    check_array_bytes(16 * len(z) * (two_j + 1), f"{len(z)} spin states at 2j = {two_j}")
    _check_points(z)
    states = _spin_rows(two_j, z)
    bad = ~(np.isfinite(states).all(axis=1) & states.any(axis=1))
    if bad.any():
        states[bad] = _spin_rows(two_j, _unit_rows(z[bad]))
    return states


def _check_points(z: np.ndarray) -> None:
    """Refuse rows of homogeneous coordinates that are not finite or all zero."""
    if not (np.isfinite(z).all() and z.any(axis=1).all()):
        raise DomainError("homogeneous coordinates must be finite and not all zero")


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Finite nonzero rows divided by their norms, which are taken from the
    rows scaled by exact powers of two so that they neither overflow nor
    underflow."""
    # scaled so that the largest real or imaginary part, whose exponent
    # cannot overflow, lies in [0.5, 1)
    _, e = np.frexp(np.maximum(abs(z.real), abs(z.imag)).max(axis=1))
    z = np.ldexp(z.real, -e[:, None]) + 1j * np.ldexp(z.imag, -e[:, None])
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _spin_rows(two_j: int, z: np.ndarray) -> np.ndarray:
    """The states of spin_states_from_homogeneous, not finite or zero where a power leaves float range."""
    k = np.arange(two_j + 1)
    with np.errstate(all="ignore"):
        amps = _sqrt_binomials(two_j)[None, :] * z[:, [0]] ** (two_j - k) * z[:, [1]] ** k
        norms = np.sum(np.abs(z) ** 2, axis=1) ** (two_j / 2.0)
        return amps / norms[:, None]


def level_one_states_from_homogeneous(zetas: np.ndarray) -> np.ndarray:
    """Normalized rows of homogeneous CP^n coordinates (level-one states).

    A row whose norm leaves float range or loses precision, such as
    (1e200, 0, 0) or (1e-160, 3e-161, 0), is normalized from the row scaled
    by an exact power of two; rows that are all zero or
    not finite are refused with DomainError.
    """
    z = np.asarray(zetas, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    # a norm below 2^-511 comes from a subnormal, inexact sum of squares
    bad = ~(np.isfinite(norms[:, 0]) & (norms[:, 0] >= 2.0**-511))
    if bad.any():
        _check_points(z[bad])
        z = z.copy()
        z[bad] = _unit_rows(z[bad])
        norms[bad] = 1.0
    return z / norms


def coherent_states(space: str, rows, two_j: int = 1) -> np.ndarray:
    """One coherent state per row of homogeneous coordinates: spin-j states
    (2j = two_j) for space "cp1", level-one states for "cpn"."""
    if space == "cp1":
        return spin_states_from_homogeneous(two_j, rows)
    return level_one_states_from_homogeneous(rows)
