"""Anti-holomorphic twist maps on CP^1 and CP^n.

Every map in the catalog acts on states as conjugation followed by a monomial
unitary, |Z^b> = U conj(|Z>), and on projectors as P -> U conj(P) U^dagger.
This realization is chart-free and satisfies the overlap-reversal identity
<Z^b|W^b> = <W|Z> exactly, for any unitary U. `global_unitary` builds U from
one target index and one phase per basis vector, U|k> = phase_k |target_k>.

Catalog:

  cp1 tags (chart coordinate z on the sphere, any spin j):
    1: z -> conj(z)        U = identity
    2: z -> -conj(z)       U = diag((-1)^k)
    3: z -> 1/conj(z)      U = index reversal |k> -> |2j-k>
    4: z -> -1/conj(z)     U = reversal . diag((-1)^k)
    so U|k> = (1 or (-1)^k) |k or 2j-k>.

  cpn pairs (p, q), 0 <= p, q <= n, on the (n+1)-dimensional space:
    U = shift^q clock^p, with clock = diag(omega^k), omega = exp(2 pi i/(n+1)):
    U|k> = omega^(pk) |k+q mod n+1>.
    For n = 2 the pairs are labelled a1..c3: letter = q (a, b, c), digit = p+1.

On points the map is flat_state applied to fundamental homogeneous
coordinates, rows of 2 for a cp1 tag and of n+1 on CP^n: [zeta] -> [U conj(zeta)].
The homogeneous form needs no chart, so a chart boundary such as z = 0 under
z -> 1/conj(z) is no special case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent import coherent_states
from .errors import DimensionMismatchError, EmptyFamilyError, UnknownFlatMapError, check_array_bytes

_CP2_LETTERS = "abc"


@dataclass(frozen=True)
class FlatMapId:
    """Identifier of one catalog map: space "cp1" with a tag, or "cpn" with (n, p, q)."""

    space: str
    tag: int = 0
    n: int = 0
    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.space == "cp1":
            if self.tag not in (1, 2, 3, 4):
                raise UnknownFlatMapError(f"cp1 tag must be 1..4, got {self.tag}")
        elif self.space == "cpn":
            if self.n < 1:
                raise UnknownFlatMapError(f"cpn needs n >= 1, got {self.n}")
            if not (0 <= self.p <= self.n and 0 <= self.q <= self.n):
                raise UnknownFlatMapError(
                    f"cpn pair ({self.p}, {self.q}) out of range 0..{self.n}"
                )
        else:
            raise UnknownFlatMapError(f"unknown space {self.space!r}")

    @classmethod
    def cp1(cls, tag: int) -> "FlatMapId":
        return cls(space="cp1", tag=tag)

    @classmethod
    def cpn(cls, n: int, p: int, q: int) -> "FlatMapId":
        return cls(space="cpn", n=n, p=p, q=q)

    @classmethod
    def parse(cls, text: str) -> "FlatMapId":
        """Parse "cp1:1".."cp1:4", "cp2:a1".."cp2:c3" or "cpn:<n>:<p>:<q>"."""
        parts = text.strip().split(":")
        try:
            if parts[0] == "cp1" and len(parts) == 2:
                return cls.cp1(int(parts[1]))
            if parts[0] == "cp2" and len(parts) == 2 and len(parts[1]) == 2:
                letter, digit = parts[1][0], parts[1][1]
                return cls.cpn(2, p=int(digit) - 1, q=_CP2_LETTERS.index(letter))
            if parts[0] == "cpn" and len(parts) == 4:
                return cls.cpn(int(parts[1]), int(parts[2]), int(parts[3]))
        except (ValueError, UnknownFlatMapError) as exc:
            raise UnknownFlatMapError(f"bad flat-map id {text!r}") from exc
        raise UnknownFlatMapError(f"bad flat-map id {text!r}")

    def __str__(self) -> str:
        if self.space == "cp1":
            return f"cp1:{self.tag}"
        if self.n == 2:
            return f"cp2:{_CP2_LETTERS[self.q]}{self.p + 1}"
        return f"cpn:{self.n}:{self.p}:{self.q}"


def cp1_catalog() -> list[FlatMapId]:
    return [FlatMapId.cp1(t) for t in (1, 2, 3, 4)]


def cpn_catalog(n: int) -> list[FlatMapId]:
    return [FlatMapId.cpn(n, p, q) for q in range(n + 1) for p in range(n + 1)]


def global_unitary(flat: FlatMapId, dim: int) -> np.ndarray:
    """Monomial unitary U realizing the map on a dim-dimensional space, built
    as U|k> = phase_k |target_k> with every other entry +0; refused past
    MAX_ARRAY_BYTES.

    cp1 tags act on any spin space (dim = 2j+1); cpn pairs require dim = n+1.
    """
    if flat.space == "cp1" and dim < 1:
        raise DimensionMismatchError("dim must be positive")
    if flat.space == "cpn" and dim != flat.n + 1:
        raise DimensionMismatchError(f"cpn map of CP^{flat.n} needs dim {flat.n + 1}, got {dim}")
    check_array_bytes(16 * dim * dim, f"the {dim} x {dim} unitary of {flat}")
    k = np.arange(dim)
    if flat.space == "cp1":
        target = k if flat.tag in (1, 2) else dim - 1 - k
        phase = (-1.0) ** k if flat.tag in (2, 4) else 1.0
    else:
        target = (k + flat.q) % dim
        phase = np.exp(2j * np.pi / dim) ** (flat.p * k)
    u = np.zeros((dim, dim), dtype=complex)
    u[target, k] = phase
    return u


def flat_state(flat: FlatMapId, psi: np.ndarray) -> np.ndarray:
    """U conj(psi): the twisted partner of a state."""
    psi = np.asarray(psi, dtype=complex)
    if flat.space == "cpn" and psi.size != flat.n + 1:
        raise DimensionMismatchError(
            f"state has dim {psi.size}, map lives on CP^{flat.n} (dim {flat.n + 1})"
        )
    return global_unitary(flat, psi.size) @ psi.conj()


def flat_projector(flat: FlatMapId, projector: np.ndarray) -> np.ndarray:
    """U conj(P) U^dagger: the map in the projector model of CP^N."""
    p = np.asarray(projector, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {p.shape}")
    u = global_unitary(flat, p.shape[0])
    return u @ p.conj() @ u.conj().T


# bytes of one (rows, d, d) complex temporary in projector_consistency
_CHUNK_BYTES = 1 << 16


def _chunk_rows(dim: int) -> int:
    """State rows per chunk: max(1, 4096 // dim^2) for the 64 KiB budget."""
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


def projector_consistency(flat: FlatMapId, states) -> float:
    """max over states v of ||P(U conj v) - U conj(P(v)) U^dagger||_F: the twist
    of a state and the twist of its projector must agree.

    states is a (rows, d) array or a list of d-dimensional rows. They are
    checked in chunks of max(1, 4096 // d^2) rows, so each (rows, d, d)
    temporary stays within 64 KiB and memory is flat in the number of states.
    The projector side goes through U conj(P) U^dagger, not through the
    twisted state. The running maximum is taken with np.maximum, which keeps
    a NaN where max() would drop one that is not first.
    """
    try:
        rows = np.asarray(states, dtype=complex)
    except ValueError:
        raise DimensionMismatchError("state rows must all have the same dimension") from None
    if rows.ndim > 0 and len(rows) == 0:
        raise EmptyFamilyError("need at least one state")
    if rows.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array of state rows, got shape {rows.shape}")
    u = global_unitary(flat, rows.shape[1])
    u_dagger = u.conj().T
    chunk = _chunk_rows(rows.shape[1])
    worst = 0.0
    for start in range(0, len(rows), chunk):
        v = rows[start : start + chunk]
        # U conj(v) per row, as one matrix-vector product each: bit for bit
        # flat_state, which v.conj() @ u.T is not for complex U
        w = (u @ v.conj()[:, :, None])[:, :, 0]
        lhs = w[:, :, None] * w.conj()[:, None, :]
        projectors = v[:, :, None] * v.conj()[:, None, :]
        rhs = u @ projectors.conj() @ u_dagger
        worst = np.maximum(worst, np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))))
    return float(worst)


def verify_antimap(flat: FlatMapId, pairs, two_j: int = 1) -> float:
    """max over pairs of |<Z^b|W^b> - <W|Z>|.

    Pairs are (row, row) tuples of homogeneous coordinates. For cp1 the
    overlap is taken in the spin-j space.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyFamilyError("need at least one pair")
    za = coherent_states(flat.space, np.stack([a for a, _ in pairs]), two_j)
    zb = coherent_states(flat.space, np.stack([b for _, b in pairs]), two_j)
    u = global_unitary(flat, za.shape[1])
    fa = za.conj() @ u.T
    fb = zb.conj() @ u.T
    twisted = np.sum(fa.conj() * fb, axis=1)  # <Za^b | Zb^b>
    reversed_ = np.sum(zb.conj() * za, axis=1)  # <Zb | Za>
    return float(np.max(np.abs(twisted - reversed_)))
