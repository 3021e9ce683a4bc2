"""Maximally entangled bipartite states built by integrating coherent-state
tensor products against the invariant measure.

The central object is

    |B> = (1/sqrt(dim V)) Integral d mu(Z) |Z> (x) |Z^b>

where Z^b is a catalog twist of Z. Because |Z^b> = U conj(|Z>) and the
coherent family resolves the identity, the integral collapses to the closed
form (1/sqrt(d)) (I (x) U) sum_k |k>|k>; the numerical integrators reproduce
it to quadrature accuracy, which is what the verification suite checks.
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
    cp1_outermost_points,
    cpn_rule,
    integrate_cp1,
    sample_fubini_study,
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
    """The four spin-j families:

    1: sum_k |k>|k>            2: sum_k (-1)^k |k>|k>
    3: sum_k |k>|2j-k>         4: sum_k (-1)^k |k>|2j-k>
    all divided by sqrt(2j+1).
    """
    if tag not in (1, 2, 3, 4):
        raise DomainError(f"tag must be 1..4, got {tag}")
    if two_j < 0:
        raise DomainError("two_j must be nonnegative")
    dim = two_j + 1
    amps = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        partner = k if tag in (1, 2) else two_j - k
        sign = (-1.0) ** k if tag in (2, 4) else 1.0
        amps[k * dim + partner] = sign
    return BipartiteState(dim, dim, amps / np.sqrt(dim))


def generalized_bell(n: int, p: int, q: int) -> BipartiteState:
    """(1/sqrt(n)) sum_k omega^(pk) |k> (x) |k+q mod n>, omega = exp(2 pi i/n).

    An orthonormal basis of maximally entangled states for every n; for n = 2
    and n = 3 it coincides with the cp1 spin-1/2 and cp2 closed forms.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if not (0 <= p < n and 0 <= q < n):
        raise DomainError(f"need 0 <= p, q < {n}, got ({p}, {q})")
    omega = np.exp(2j * np.pi / n)
    amps = np.zeros(n * n, dtype=complex)
    for k in range(n):
        amps[k * n + (k + q) % n] = omega ** (p * k)
    return BipartiteState(n, n, amps / np.sqrt(n))


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


# ((space, dim, spec), read-only states) of the most recent Monte Carlo draw
_last_draw = None


def _mc_states(space: str, dim: int, spec: MCSpec) -> np.ndarray:
    """Coherent states at the sample rows of spec, one row per sample: spin
    (dim-1)/2 states on CP^1 for space "cp1", level-one states on CP^(dim-1)
    for "cpn".

    The states of the most recent draw stay in one module-level entry, so
    every map of a catalog run over one spec pays for one draw and one
    normalization. The entry is read-only and is released before the next
    different draw, so one caller never holds two draws at once.
    """
    global _last_draw
    key = (space, dim, spec)
    entry = _last_draw  # read once: another thread may replace the entry meanwhile
    if entry is not None and entry[0] == key:
        return entry[1]
    _last_draw = entry = None
    n = 1 if space == "cp1" else dim - 1
    states = coherent_states(space, sample_fubini_study(n, spec), dim - 1)
    states.flags.writeable = False
    _last_draw = (key, states)
    return states


def _weighted_states(space: str, dim: int, spec: QuadratureSpecCP2 | MCSpec):
    """(states, weights) whose weighted sums integrate with total mass dim:
    the Monte Carlo draw at weight dim/samples, or the rule on CP^(dim-1)."""
    if isinstance(spec, MCSpec):
        return _mc_states(space, dim, spec), dim / spec.samples
    rows, weights = cpn_rule(dim - 1, spec)
    return coherent_states("cpn", rows), weights


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
        check_spin_range(two_j, cp1_outermost_points(spec))

        def integrand(z):
            psi = coherent_cp1(two_j, z)
            return np.outer(psi, u @ psi.conj()).reshape(-1)  # |Z> (x) |Z^b>

        amps = integrate_cp1(integrand, two_j, spec) / np.sqrt(dim)
    else:
        states, weights = _weighted_states(flat.space, dim, spec)
        twisted = states.conj() @ u.T
        # sum of weight |Z>(x)|Z^b> over the points, of total mass dim V
        amps = (weights * states.T @ twisted).reshape(-1) / np.sqrt(dim)
    state = BipartiteState(dim, dim, amps)
    return state, abs(state.norm() - 1.0)


def bell_target(flat: FlatMapId, *, two_j: int | None = None) -> BipartiteState:
    """(1/sqrt(d)) (I (x) U) sum_k |k>|k>: what the integral must produce."""
    dim = _dim_for(flat, two_j)
    u = global_unitary(flat, dim)
    amps = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        amps[k * dim : (k + 1) * dim] = u[:, k]
    return BipartiteState(dim, dim, amps / np.sqrt(dim))


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
