"""Points of CP^N and their rank-1 projectors.

A point is a row of homogeneous coordinates, unnormalized. Two rows are the
same point iff the rank-1 projectors of their unit vectors coincide, which
sidesteps any scale or phase convention.
"""

from __future__ import annotations

import numpy as np


def projector_of(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a unit vector."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())
