"""Points of CP^N: homogeneous coordinates and rank-1 projectors.

A projective point is stored as an unnormalized coordinate vector; two points
are the same iff their rank-1 projectors coincide, which sidesteps any scale
or phase convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

PROJECTOR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HomogeneousPoint:
    """A point [zeta_0 : ... : zeta_N] of CP^N, unnormalized."""

    coords: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coords, dtype=complex)
        if v.ndim != 1:
            raise ValueError("expected a one-dimensional coordinate array")
        if v.size < 2 or not np.any(np.abs(v) > 0.0):
            raise ValueError("need at least two coordinates, not all zero")
        object.__setattr__(self, "coords", v)

    @property
    def n(self) -> int:
        return self.coords.size - 1

    def unit_vector(self) -> np.ndarray:
        return self.coords / np.linalg.norm(self.coords)

    def projector(self) -> np.ndarray:
        v = self.unit_vector()
        return np.outer(v, v.conj())

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPoint):
            return NotImplemented
        if self.coords.size != other.coords.size:
            return False
        return projector_distance(self.projector(), other.projector()) <= PROJECTOR_TOL

    __hash__ = None  # tolerance-based equality


def projector_of(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a unit vector."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def projector_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Frobenius distance between two projectors."""
    p = np.asarray(p)
    q = np.asarray(q)
    if p.shape != q.shape:
        raise DimensionMismatchError(f"projector shapes differ: {p.shape} vs {q.shape}")
    return float(np.linalg.norm(p - q))
