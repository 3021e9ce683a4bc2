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
reproducible bit for bit. That loop builds the angular phases once per rule
and accumulates in place, allocating no array of its own per node (see
`_integrate`). Every rule is refused before any table is built when it has
more than MAX_RULE_ROWS nodes or more than MAX_GAUSS_ORDER Gauss-Legendre
nodes per simplex axis.

Monte Carlo sampling draws unnormalized homogeneous coordinates as standard
complex Gaussians, zeta = sqrt(-log(1-u1)) exp(2 pi i u2), the polar Box-Muller
form, from a PCG64 stream fixed entirely by the seed; the induced projective
distribution is the normalized invariant measure. The stream is drawn and
evaluated in blocks of about _BLOCK_BYTES, into one preallocated array, with
the rows of one draw of all the samples (see `_draw`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_array_bytes

TWO_PI = 2.0 * np.pi
MAX_RULE_ROWS = 1 << 20  # the largest rule: 80 MiB of rows on CP^4 in cpn_rule
MAX_GAUSS_ORDER = 1024  # leggauss builds an m x m companion matrix: 8 MiB at m = 1024
# one block buffer of a draw or a contraction: 4096 rows of 4 complex entries (CP^3)
_BLOCK_BYTES = 1 << 18


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


def _check_rule(n: int, simplex_nodes: int, angular_nodes: int) -> None:
    """Refuse, before any table is built, a rule on CP^n of more than
    MAX_RULE_ROWS nodes or with more than MAX_GAUSS_ORDER nodes per simplex axis."""
    m, k = simplex_nodes, angular_nodes
    if (m * k) ** n > MAX_RULE_ROWS:
        raise DomainError(f"the rule on CP^{n} has ({m} x {k})^{n} nodes, more than {MAX_RULE_ROWS}")
    if m > MAX_GAUSS_ORDER:
        raise DomainError(f"{m} Gauss-Legendre nodes per axis, more than {MAX_GAUSS_ORDER}")


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


def _torus_points(k: int) -> list[complex]:
    """The k phases e^(i theta) of the uniform angular grid, as Python complex numbers."""
    return np.exp(1j * (TWO_PI * np.arange(k) / k)).tolist()


def _chart_points(simplex_points, angular_nodes: int):
    """(z_1, .., z_n) and raw weight for each simplex point times each torus
    point (last angle fastest), in that order, at z_i = sqrt(t_i/t_0) e^(i theta_i)."""
    phases = _torus_points(angular_nodes)
    for t, weight in simplex_points:
        axes = [[math.sqrt(ti / t[0]) * a for a in phases] for ti in t[1:]]
        for z in itertools.product(*axes):
            yield z, weight


_SCALARS = (int, float, complex, np.number)


def _integrate(f, n: int, simplex_nodes: int, angular_nodes: int, mass: float):
    """The rule on CP^n for total mass `mass`, with f called at each chart
    point in turn.

    Each value is multiplied by its weight and added to the total in node
    order, with the IEEE operations of total = total + value * weight: a
    scalar value as a Python complex number, an array value into one scratch
    buffer and then into one accumulator, in place. The array f returns is
    only read; scalar and array values mixed broadcast as numpy does.
    """
    _check_rule(n, simplex_nodes, angular_nodes)
    total = scratch = None
    for z, weight in _chart_points(_simplex_points(n, simplex_nodes), angular_nodes):
        value = f(*z)
        if isinstance(value, _SCALARS):
            value = complex(value) * weight
        else:
            value = np.asarray(value, dtype=complex)
            if scratch is None or scratch.shape != value.shape:
                scratch = np.empty_like(value)
            value = np.multiply(value, weight, out=scratch)
        if total is None:
            total = value.copy() if value is scratch else value
        elif value is scratch and isinstance(total, np.ndarray) and total.shape == value.shape:
            np.add(total, value, out=total)
        else:
            total = total + value
    total = total * (mass / angular_nodes**n)
    return total if isinstance(total, np.ndarray) and total.ndim else complex(total)


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
    _check_rule(1, spec.radial_nodes, spec.angular_nodes)
    outermost = list(_simplex_points(1, spec.radial_nodes))[-1:]
    return [z for (z,), _ in _chart_points(outermost, spec.angular_nodes)]


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
    summing to the level-one mass n+1; refused past MAX_RULE_ROWS rows or
    MAX_GAUSS_ORDER nodes per simplex axis."""
    if n < 1:
        raise DomainError("n must be at least 1")
    m, k = spec.simplex_nodes, spec.angular_nodes
    _check_rule(n, m, k)
    check_array_bytes(16 * (n + 1) * (m * k) ** n, f"the rows of the rule on CP^{n}")
    t, weights = map(np.array, zip(*_simplex_points(n, m)))
    angles = np.array([(1.0, *a) for a in itertools.product(_torus_points(k), repeat=n)])
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


def moments_cp1(two_j: int, spec: QuadratureSpecCP1 | None = None) -> list[float]:
    """[moment_cp1(two_j, k, spec) for k = 0..2j], bit for bit, from one pass
    over the nodes: each k is evaluated with the same Python-float powers."""

    def integrand(z):
        s = 1.0 / (1.0 + abs(z) ** 2)
        return [(abs(z) ** 2 * s) ** k * s ** (two_j - k) for k in range(two_j + 1)]

    return [float(m.real) for m in integrate_cp1(integrand, two_j, spec)]


def sample_fubini_study(n: int, spec: MCSpec) -> np.ndarray:
    """(samples, n+1) array of homogeneous coordinate rows, projectively
    distributed by the normalized invariant measure of CP^n.

    (dim V / samples) * sum f(row) estimates the integral of f for a
    representation of total mass dim V. Identical seed, identical stream.
    Refused past MAX_ARRAY_BYTES of draws.
    """
    return _draw(n, spec, n + 1, lambda rows: rows)


def _block_rows(width: int) -> int:
    """Rows of one block of `width` complex entries: _BLOCK_BYTES, at least one row."""
    return max(1, _BLOCK_BYTES // (16 * width))


def _draw(n: int, spec: MCSpec, width: int, evaluate) -> np.ndarray:
    """(samples, width) array of evaluate(rows) over the draw of
    sample_fubini_study, taken in blocks of rows.

    PCG64 fills one uniform buffer per block, so the stream, and every row,
    is that of one draw of all the samples; refused past MAX_ARRAY_BYTES
    before the first block is drawn.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    check_array_bytes(16 * spec.samples * width, f"{spec.samples} samples of {width} entries on CP^{n}")
    out = np.empty((spec.samples, width), dtype=complex)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    step = min(spec.samples, _block_rows(max(width, n + 1)))
    uniforms = np.empty((step, n + 1, 2))
    for start in range(0, spec.samples, step):
        u = rng.random(out=uniforms[: spec.samples - start])
        rows = np.sqrt(-np.log1p(-u[..., 0])) * np.exp(TWO_PI * 1j * u[..., 1])
        out[start : start + len(u)] = evaluate(rows)
    return out
