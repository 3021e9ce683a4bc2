"""Integration against the invariant measures of CP^n, plus seeded Monte
Carlo sampling of CP^n for cross-checks.

Deterministic rules flatten the density exactly with t_i = |zeta_i|^2/|zeta|^2,

  d mu = dim V n!/(2 pi)^n dt_1 .. dt_n d theta_1 .. d theta_n   (dim V = 2j+1 or n+1)

on simplex x torus. The simplex factor is the collapsed Gauss-Legendre rule
t_k = x_k (1 - t_1 - .. - t_(k-1)) (Stroud 1971; Grundmann & Moller 1978), exact
for degree <= 2m-1 per axis after the map's Jacobian; uniform angular grids of
K points annihilate every mode e^(i m theta) with 0 < |m| < K exactly.
`cpn_rule` returns the rule as rows and weights; `integrate_cp1` and
`integrate_cp2` stream it through a callback in a fixed order, so results are
reproducible bit for bit.

Monte Carlo sampling draws unnormalized homogeneous coordinates as standard
complex Gaussians, zeta = sqrt(-log(1-u1)) exp(2 pi i u2), the polar Box-Muller
form, from a PCG64 stream fixed entirely by the seed; the induced projective
distribution is the normalized invariant measure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi
MAX_RULE_ROWS = 1 << 20  # the largest rule cpn_rule builds: 80 MiB of rows on CP^4


@dataclass(frozen=True)
class QuadratureSpecCP1:
    radial_nodes: int
    angular_nodes: int

    def __post_init__(self):
        if self.radial_nodes < 1 or self.angular_nodes < 1:
            raise DomainError("node counts must be positive")

    @classmethod
    def for_spin(cls, two_j: int) -> "QuadratureSpecCP1":
        """Smallest safe rule for degree-2j integrands: 2j+2 radial, 4j+3 angular."""
        if two_j < 0:
            raise DomainError("two_j must be nonnegative")
        return cls(radial_nodes=two_j + 2, angular_nodes=2 * two_j + 3)


@dataclass(frozen=True)
class QuadratureSpecCP2:
    simplex_nodes: int = 4
    angular_nodes: int = 7

    def __post_init__(self):
        if self.simplex_nodes < 1 or self.angular_nodes < 1:
            raise DomainError("node counts must be positive")


@dataclass(frozen=True)
class MCSpec:
    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be positive")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


def gauss_legendre_01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _simplex_points(n: int, m: int):
    """([t_0, .., t_n], weight) of the collapsed rule, m nodes per axis, as Python floats."""
    x, w = (a.tolist() for a in gauss_legendre_01(m))
    for index in itertools.product(range(m), repeat=n):
        t, rest, jacobian = [], 1.0, 1.0
        for i in index:
            jacobian *= rest
            t.append(x[i] * rest)
            rest -= t[-1]
        yield [rest, *t], math.prod(w[i] for i in index) * jacobian


def _torus_points(n: int, k: int):
    """The k^n phase tuples (e^(i theta_1), .., e^(i theta_n)), last fastest."""
    return itertools.product(np.exp(1j * (TWO_PI * np.arange(k) / k)).tolist(), repeat=n)


def _chart_points(n: int, simplex_points, angular_nodes: int):
    """([z_1, .., z_n], raw weight) for each simplex point times each torus
    point, in that order, at z_i = sqrt(t_i/t_0) e^(i theta_i)."""
    for t, weight in simplex_points:
        radii = [math.sqrt(ti / t[0]) for ti in t[1:]]
        for angles in _torus_points(n, angular_nodes):
            yield [r * a for r, a in zip(radii, angles)], weight


def _integrate(f, n: int, simplex_nodes: int, angular_nodes: int, mass: float):
    """The rule on CP^n for total mass `mass`, with f called at each chart
    point in turn."""
    total = None
    for z, weight in _chart_points(n, _simplex_points(n, simplex_nodes), angular_nodes):
        value = np.asarray(f(*z), dtype=complex) * weight
        total = value if total is None else total + value
    total = total * (mass / angular_nodes**n)
    return total.item() if total.ndim == 0 else total


def integrate_cp1(f, two_j: int, spec: QuadratureSpecCP1 | None = None):
    """Integral of f(z) against the spin-j measure on CP^1.

    Exact (to roundoff) whenever f, written in (u, theta), is a polynomial of
    degree <= 2*radial_nodes - 1 in u times trigonometric degree
    < angular_nodes. f may return scalars, vectors or matrices.
    """
    if two_j < 0:
        raise DomainError("two_j must be nonnegative")
    if spec is None:
        spec = QuadratureSpecCP1.for_spin(two_j)
    return _integrate(f, 1, spec.radial_nodes, spec.angular_nodes, two_j + 1)


def cp1_outermost_points(spec: QuadratureSpecCP1) -> list[complex]:
    """The chart points z at the last radial node of spec, where integrate_cp1
    reaches its largest |z|, exactly as it passes them to f."""
    outermost = list(_simplex_points(1, spec.radial_nodes))[-1:]
    return [z for (z,), _ in _chart_points(1, outermost, spec.angular_nodes)]


def integrate_cp2(f, spec: QuadratureSpecCP2 | None = None):
    """Integral of f(z1, z2) against the level-one measure on CP^2.

    Exact for integrands polynomial in (t1, t2) of total degree
    <= 2*simplex_nodes - 2, with angular modes below angular_nodes per angle.
    """
    if spec is None:
        spec = QuadratureSpecCP2()
    return _integrate(f, 2, spec.simplex_nodes, spec.angular_nodes, 6)


def cpn_rule(n: int, spec: QuadratureSpecCP2) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows (sqrt t_0, sqrt t_1 e^(i theta_1), .., sqrt t_n e^(i theta_n))
    of the rule on CP^n, in the order integrate_cp2 visits them, and weights
    summing to the level-one mass n+1; refused past MAX_RULE_ROWS rows."""
    if n < 1:
        raise DomainError("n must be at least 1")
    m, k = spec.simplex_nodes, spec.angular_nodes
    if (m * k) ** n > MAX_RULE_ROWS:
        raise DomainError(f"the rule on CP^{n} has {(m * k) ** n} rows, more than {MAX_RULE_ROWS}")
    t, weights = map(np.array, zip(*_simplex_points(n, m)))
    angles = np.array([(1.0, *a) for a in _torus_points(n, k)])
    rows = (np.sqrt(t)[:, None, :] * angles[None, :, :]).reshape(-1, n + 1)
    return rows, np.repeat(weights * ((n + 1) * math.factorial(n) / k**n), k**n)


def moment_cp1(two_j: int, k: int, spec: QuadratureSpecCP1 | None = None) -> float:
    """Quadrature of |z|^(2k) / (1+|z|^2)^(2j); equals 1/C(2j, k).

    Evaluated as (|z|^2 s)^k s^(2j-k) with s = 1/(1+|z|^2): both factors lie
    in [0, 1], so no power overflows at large 2j.
    """
    if not 0 <= k <= two_j:
        raise DomainError(f"need 0 <= k <= 2j, got k={k}, 2j={two_j}")

    def integrand(z):
        s = 1.0 / (1.0 + abs(z) ** 2)
        return (abs(z) ** 2 * s) ** k * s ** (two_j - k)

    return float(integrate_cp1(integrand, two_j, spec).real)


def sample_fubini_study(n: int, spec: MCSpec) -> np.ndarray:
    """(samples, n+1) array of homogeneous coordinate rows, projectively
    distributed by the normalized invariant measure of CP^n.

    (dim V / samples) * sum f(row) estimates the integral of f for a
    representation of total mass dim V. Identical seed, identical stream.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    u = rng.random((spec.samples, n + 1, 2))
    return np.sqrt(-np.log1p(-u[..., 0])) * np.exp(TWO_PI * 1j * u[..., 1])
