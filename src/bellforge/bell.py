"""Maximally entangled bipartite states built by integrating coherent-state
tensor products against the invariant measure.

The central object is

    |B> = (1/sqrt(dim V)) Integral d mu(Z) |Z> (x) |Z^b>

where Z^b is a catalog twist of Z. Because |Z^b> = U conj(|Z>) and the
coherent family resolves the identity, the integral collapses to the closed
form (1/sqrt(d)) (I (x) U) sum_k |k>|k>; the numerical integrators reproduce
it to quadrature accuracy, which is what the verification suite checks.
`bell_target` reads that closed form off the columns of U;
`closed_form_bell_cp1`, `closed_form_bell_cp2` and `generalized_bell` check
their arguments and return it for a named map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherent import check_spin_range, coherent_cp1, coherent_states
from .errors import DimensionMismatchError, DomainError
from .flatmaps import FlatMapId, global_unitary
from .quadrature import (
    MCSpec,
    QuadratureSpecCP1,
    QuadratureSpecCP2,
    _block_rows,
    _draw,
    cp1_outermost_points,
    cpn_rule,
    integrate_cp1,
)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Unit vector in V_a (x) V_b, amplitudes flat with index a*dim_b + b."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.dim_a * self.dim_b:
            raise DimensionMismatchError(
                f"expected {self.dim_a * self.dim_b} amplitudes, got {amps.size}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def matrix(self) -> np.ndarray:
        """Amplitude matrix M[a, b], the object the Schmidt decomposition acts on."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def closed_form_bell_cp1(two_j: int, tag: int) -> BipartiteState:
    """The four spin-j families, bell_target of the cp1 tag:

    1: sum_k |k>|k>            2: sum_k (-1)^k |k>|k>
    3: sum_k |k>|2j-k>         4: sum_k (-1)^k |k>|2j-k>
    all divided by sqrt(2j+1).
    """
    if tag not in (1, 2, 3, 4):
        raise DomainError(f"tag must be 1..4, got {tag}")
    if two_j < 0:
        raise DomainError("two_j must be nonnegative")
    return bell_target(FlatMapId.cp1(tag), two_j=two_j)


def generalized_bell(n: int, p: int, q: int) -> BipartiteState:
    """(1/sqrt(n)) sum_k omega^(pk) |k> (x) |k+q mod n>, omega = exp(2 pi i/n):
    bell_target of the cpn pair (p, q) on CP^(n-1), and |0>|0> for n = 1.

    An orthonormal basis of maximally entangled states for every n; for n = 2
    and n = 3 it coincides with the cp1 spin-1/2 and cp2 closed forms.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if not (0 <= p < n and 0 <= q < n):
        raise DomainError(f"need 0 <= p, q < {n}, got ({p}, {q})")
    if n == 1:  # CP^0 has no catalog map
        return BipartiteState(1, 1, [1.0])
    return bell_target(FlatMapId.cpn(n - 1, p, q))


def closed_form_bell_cp2(p: int, q: int) -> BipartiteState:
    """The nine cp2 states, indexed by the pair (p, q) of the flat-map catalog."""
    if not (0 <= p <= 2 and 0 <= q <= 2):
        raise DomainError(f"need 0 <= p, q <= 2, got ({p}, {q})")
    return generalized_bell(3, p, q)


def _dim_for(flat: FlatMapId, two_j: int | None) -> int:
    """State dimension for a catalog id."""
    if flat.space == "cp1":
        if two_j is None:
            raise DomainError("cp1 integrals need two_j")
        if two_j < 0:
            raise DomainError("two_j must be nonnegative")
        return two_j + 1
    return flat.n + 1


# ((space, dim, spec), states) of the most recent Monte Carlo draw
_last_draw = None


def _points(space: str, dim: int, spec: QuadratureSpecCP2 | MCSpec):
    """(states, weights) of points whose weights have total mass dim: the
    level-one states of the rule on CP^(dim-1) with its per-row weights,
    built afresh on each call, or the coherent states at the sample rows of
    an MCSpec with the one weight dim/samples, spin (dim-1)/2 states on CP^1
    for space "cp1" and level-one states on CP^(dim-1) for "cpn".

    The states of the most recent draw stay in one module-level entry, read
    only, so every map of a catalog run over one spec pays for one draw and
    one normalization. The draw is evaluated block by block into that one
    (samples, dim) array. The entry is released before the next different
    draw, so one caller never holds two draws at once.
    """
    if not isinstance(spec, MCSpec):
        rows, weights = cpn_rule(dim - 1, spec)
        return coherent_states("cpn", rows), weights
    global _last_draw
    key = (space, dim, spec)
    entry = _last_draw  # read once: another thread may replace the entry meanwhile
    if entry is not None and entry[0] == key:
        return entry[1], dim / spec.samples
    _last_draw = entry = None
    n = 1 if space == "cp1" else dim - 1
    states = _draw(n, spec, dim, lambda rows: coherent_states(space, rows, dim - 1))
    states.flags.writeable = False
    _last_draw = (key, states)
    return states, dim / spec.samples


def _contract(states: np.ndarray, weights, u: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k |Z_k> (x) U conj|Z_k> as a d x d matrix, one state Z_k per
    row, or the frame operator sum_k w_k |Z_k><Z_k| when u is None (U = I);
    weights is one weight per row or a single weight.

    The sum is taken in real arithmetic over the float64 view of the states,
    2d interleaved (re, im) columns per row; states that are not C-ordered
    are copied once to take that view. twist is the 2d x 2d real matrix
    of z -> conj(z) U^T, the conjugation carried by its signs. Each block of
    rows makes right = block @ twist in one buffer made once per call, scaled
    in place by per-row weights, and adds block^T @ right to the 2d x 2d
    total g, so no temporary grows with the number of rows. The d x d result
    is read off g's four (re, im) quarters; a single weight scales it once.
    """
    rows, dim = states.shape
    t = np.eye(dim) if u is None else u.T
    twist = np.empty((2 * dim, 2 * dim))
    twist[0::2, 0::2], twist[1::2, 1::2] = t.real, -t.real
    twist[0::2, 1::2] = twist[1::2, 0::2] = t.imag
    flat = np.ascontiguousarray(states, dtype=complex).view(np.float64)
    step = min(rows, _block_rows(dim))
    buffer = np.empty((step, 2 * dim))
    per_row = np.ndim(weights) == 1
    g = np.zeros((2 * dim, 2 * dim))
    for start in range(0, rows, step):
        block = flat[start : start + step]
        right = np.matmul(block, twist, out=buffer[: len(block)])
        if per_row:
            right *= weights[start : start + len(block), None]
        g += block.T @ right
    total = (g[0::2, 0::2] - g[1::2, 1::2]) + 1j * (g[0::2, 1::2] + g[1::2, 0::2])
    return total if per_row else total * weights


def _cp1_integral(two_j: int, spec: QuadratureSpecCP1, term):
    """Integral of term(|z>) against the spin-j measure, with |z> =
    coherent_cp1(two_j, z) at each node of spec; refused before the first
    node when one lies outside the range of coherent_cp1."""
    check_spin_range(two_j, cp1_outermost_points(spec))
    return integrate_cp1(lambda z: term(coherent_cp1(two_j, z)), two_j, spec)


def fivel_bell(
    flat: FlatMapId,
    spec: QuadratureSpecCP1 | QuadratureSpecCP2 | MCSpec | None = None,
    *,
    two_j: int | None = None,
) -> tuple[BipartiteState, float]:
    """Numerically evaluate the coherent-state integral for one catalog map.

    A cp1 tag takes a QuadratureSpecCP1, integrated node by node and refused
    before the first node when one lies outside the range of coherent_cp1; a
    cpn id of any n takes the QuadratureSpecCP2 rule of cpn_rule. Either takes
    an MCSpec, and consecutive Monte Carlo calls with one spec share one draw.
    Off cp1 quadrature the integral is _contract over the points of _points,
    taken in blocks of rows.
    Returns the state and the norm residual abs(norm - 1).
    """
    dim = _dim_for(flat, two_j)
    rule = QuadratureSpecCP1 if flat.space == "cp1" else QuadratureSpecCP2
    if spec is None:
        spec = QuadratureSpecCP1.for_spin(two_j) if flat.space == "cp1" else QuadratureSpecCP2()
    if not isinstance(spec, (rule, MCSpec)):
        kind = type(spec).__name__
        raise DomainError(f"{flat} takes a {rule.__name__} or an MCSpec, not a {kind}")
    u = global_unitary(flat, dim)
    if isinstance(spec, QuadratureSpecCP1):
        # |Z> (x) |Z^b> at each node, written into one buffer the loop only reads
        buf = np.empty((dim, dim), dtype=complex)
        amps = _cp1_integral(two_j, spec, lambda psi: np.outer(psi, u @ psi.conj(), out=buf).reshape(-1))
        amps = amps / np.sqrt(dim)
    else:
        # sum of weight |Z>(x)|Z^b> over the points, of total mass dim V
        amps = _contract(*_points(flat.space, dim, spec), u).reshape(-1) / np.sqrt(dim)
    state = BipartiteState(dim, dim, amps)
    return state, abs(state.norm() - 1.0)


def bell_target(flat: FlatMapId, *, two_j: int | None = None) -> BipartiteState:
    """(1/sqrt(d)) (I (x) U) sum_k |k>|k>: what the integral must produce, and
    the closed form every command prints. Amplitude k*d + i is U[i, k], so the
    state is U's columns one after another."""
    dim = _dim_for(flat, two_j)
    return BipartiteState(dim, dim, global_unitary(flat, dim).T.reshape(-1) / np.sqrt(dim))


def unitary_transport_identity(
    flat: FlatMapId,
    spec: QuadratureSpecCP1 | QuadratureSpecCP2 | MCSpec | None = None,
    *,
    two_j: int | None = None,
) -> float:
    """Distance between the numerically integrated state and bell_target."""
    numeric, _ = fivel_bell(flat, spec, two_j=two_j)
    target = bell_target(flat, two_j=two_j)
    return float(np.linalg.norm(numeric.amplitudes - target.amplitudes))
