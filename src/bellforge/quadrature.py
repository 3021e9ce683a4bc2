"""Integration against the invariant measures of CP^1 and CP^2, plus seeded
Monte Carlo sampling of CP^n for cross-checks.

Deterministic rules use measure-adapted substitutions that flatten the
densities exactly:

  cp1:  u = |z|^2/(1+|z|^2)            d mu = (2j+1)/(2 pi) du d theta
  cp2:  t_i = |z_i|^2/(1+|z1|^2+|z2|^2) d mu = 3/(2 pi^2) dt1 dt2 d theta1 d theta2

on [0,1] x circle and simplex x torus respectively. Gauss-Legendre handles the
radial/simplex factors (exact for polynomial degree <= 2m-1 per axis, with the
simplex reached through the map t1 = x, t2 = y(1-x)); uniform angular grids of
K points annihilate every mode e^(i m theta) with 0 < |m| < K exactly. Node
evaluation is serial in a fixed order, so results are reproducible bit for bit.

Monte Carlo sampling draws unnormalized homogeneous coordinates as standard
complex Gaussians, zeta = sqrt(-log(1-u1)) exp(2 pi i u2), the polar Box-Muller
form, from a PCG64 stream fixed entirely by the seed; the induced projective
distribution is the normalized invariant measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi


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


def _accumulate(total, value, weight):
    value = np.asarray(value, dtype=complex) * weight
    return value if total is None else total + value


def _finish(total, scale):
    total = total * scale
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
    u_nodes, u_weights = gauss_legendre_01(spec.radial_nodes)
    thetas = TWO_PI * np.arange(spec.angular_nodes) / spec.angular_nodes
    total = None
    for u, wu in zip(u_nodes, u_weights):
        r = np.sqrt(u / (1.0 - u))
        for theta in thetas:
            total = _accumulate(total, f(r * np.exp(1j * theta)), wu)
    return _finish(total, (two_j + 1) / spec.angular_nodes)


def integrate_cp2(f, spec: QuadratureSpecCP2 | None = None):
    """Integral of f(z1, z2) against the level-one measure on CP^2.

    Exact for integrands polynomial in (t1, t2) of total degree
    <= 2*simplex_nodes - 2, with angular modes below angular_nodes per angle.
    """
    if spec is None:
        spec = QuadratureSpecCP2()
    nodes, weights = gauss_legendre_01(spec.simplex_nodes)
    thetas = TWO_PI * np.arange(spec.angular_nodes) / spec.angular_nodes
    phases = np.exp(1j * thetas)
    total = None
    for x, wx in zip(nodes, weights):
        for y, wy in zip(nodes, weights):
            t1 = x
            t2 = y * (1.0 - x)
            rest = 1.0 - t1 - t2
            r1 = np.sqrt(t1 / rest)
            r2 = np.sqrt(t2 / rest)
            w = wx * wy * (1.0 - x)  # simplex-map Jacobian
            for pa in phases:
                z1 = r1 * pa
                for pb in phases:
                    total = _accumulate(total, f(z1, r2 * pb), w)
    return _finish(total, 6.0 / spec.angular_nodes**2)


def moment_cp1(two_j: int, k: int, spec: QuadratureSpecCP1 | None = None) -> float:
    """Quadrature of |z|^(2k) / (1+|z|^2)^(2j); equals 1/C(2j, k)."""
    if not 0 <= k <= two_j:
        raise DomainError(f"need 0 <= k <= 2j, got k={k}, 2j={two_j}")
    value = integrate_cp1(
        lambda z: abs(z) ** (2 * k) / (1.0 + abs(z) ** 2) ** two_j, two_j, spec
    )
    return float(value.real)


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
