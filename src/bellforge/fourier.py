"""Clock and shift matrices and the Fourier matrix that links them."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_array_bytes


def _check_order(n: int) -> None:
    if n < 2:
        raise DomainError(f"order must be at least 2, got {n}")
    check_array_bytes(16 * n * n, f"a complex matrix of order {n}")


def walsh_hadamard(n: int) -> np.ndarray:
    """Unitary n x n Fourier matrix W[j, k] = omega^(-jk)/sqrt(n), omega = exp(2 pi i/n).

    n = 2 gives the Hadamard matrix (1/sqrt(2)) [[1, 1], [1, -1]].
    """
    _check_order(n)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


def clock(n: int) -> np.ndarray:
    """diag(1, omega, ..., omega^(n-1)) with omega = exp(2 pi i/n)."""
    _check_order(n)
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def shift(n: int) -> np.ndarray:
    """Cyclic permutation matrix sending e_k to e_(k+1 mod n)."""
    _check_order(n)
    s = np.zeros((n, n), dtype=complex)
    s[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return s


def verify_shift_diagonalization(n: int) -> float:
    """Frobenius residual of shift(n) = W clock(n) W^(-1)."""
    w = walsh_hadamard(n)
    return float(np.linalg.norm(shift(n) - w @ clock(n) @ np.linalg.inv(w)))
