"""The deterministic quadrature node loop, pinned bit for bit: a golden hash
of its outputs, and the integrand contract of integrate_cp1/integrate_cp2
checked against a plain reference loop."""

import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from bellforge import (
    QuadratureSpecCP1,
    QuadratureSpecCP2,
    cpn_rule,
    fivel_bell,
    integrate_cp1,
    integrate_cp2,
    moments_cp1,
    resolution_of_unity_cp1,
    total_measure_cp1,
    total_measure_cp2,
)
from bellforge.flatmaps import cp1_catalog
from bellforge.quadrature import TWO_PI, gauss_legendre_01

# sha256 of quadrature_digest_bytes(), recorded before the node loop
# accumulated in place, with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64. The
# bytes depend on libm and, through the small matrix-vector products of the
# cp1 twist, on the BLAS build; a different build may change the last bits.
# Then the hash has to be recorded again, once the contract tests below show
# the node loop equal to reference_integrate on that build.
QUAD_GOLDEN_SHA256 = "85dd0523b4386a4590cf6e5586cb098a719cde71a65f3838d3cf4e90e1a0cd8d"

SPEC_CP1 = QuadratureSpecCP1(radial_nodes=6, angular_nodes=7)
SPEC_CP2 = QuadratureSpecCP2(simplex_nodes=3, angular_nodes=5)


def cp1_vector(z):
    s = 1.0 / (1.0 + abs(z) ** 2)
    return np.array([s, z * s, z**2 * s**2, abs(z) ** 2 * s])


def cp1_matrix(z):
    v = cp1_vector(z)
    return np.outer(v, v.conj())


def cp2_vector(z1, z2):
    psi = np.array([1.0, z1, z2]) / math.sqrt(1.0 + abs(z1) ** 2 + abs(z2) ** 2)
    return psi * psi[1] * psi[2].conjugate()


def cp2_matrix(z1, z2):
    psi = np.array([1.0, z1, z2]) / math.sqrt(1.0 + abs(z1) ** 2 + abs(z2) ** 2)
    return np.outer(psi, psi.conj()) * psi[1] ** 2


def quadrature_digest_bytes() -> bytes:
    """Amplitudes and norm residuals of the four cp1 tags at 2j = 0, 1, 2, 5,
    12 and 33; resolution of unity, total measure and moments on CP^1; total
    measure on CP^2; vector and matrix integrands on CP^1 and CP^2; and the
    rows and weights of two cpn rules."""
    chunks = []

    def doubles(*values):
        chunks.append(struct.pack(f"<{len(values)}d", *values))

    def array(a):
        chunks.append(np.ascontiguousarray(a, dtype=complex).tobytes())

    for two_j in (0, 1, 2, 5, 12, 33):
        for flat in cp1_catalog():
            state, residual = fivel_bell(flat, two_j=two_j)
            array(state.amplitudes)
            doubles(residual)
    doubles(*(resolution_of_unity_cp1(two_j) for two_j in (1, 5, 17)))
    doubles(*(total_measure_cp1(two_j) for two_j in (0, 3, 17)))
    doubles(total_measure_cp1(4, SPEC_CP1), *moments_cp1(10), *moments_cp1(96))
    doubles(total_measure_cp2(), total_measure_cp2(SPEC_CP2))
    for f in (cp1_vector, cp1_matrix):
        array(integrate_cp1(f, 3))
        array(integrate_cp1(f, 2, SPEC_CP1))
    for f in (cp2_vector, cp2_matrix):
        array(integrate_cp2(f))
        array(integrate_cp2(f, SPEC_CP2))
    for n, spec in ((2, QuadratureSpecCP2()), (3, SPEC_CP2)):
        rows, weights = cpn_rule(n, spec)
        array(rows)
        doubles(*weights)
    return b"".join(chunks)


def test_deterministic_quadrature_matches_golden_hash():
    assert hashlib.sha256(quadrature_digest_bytes()).hexdigest() == QUAD_GOLDEN_SHA256


# --- the integrand contract ------------------------------------------------------


def reference_integrate(f, n, simplex_nodes, angular_nodes, mass):
    """The rule on CP^n as a plain loop, the way the node loop stood before it
    accumulated in place: value = asarray(f(*z)) * weight, then total = total
    + value, for each simplex point (last axis fastest) times each torus point
    (last angle fastest)."""
    x, w = (a.tolist() for a in gauss_legendre_01(simplex_nodes))
    phases = np.exp(1j * (TWO_PI * np.arange(angular_nodes) / angular_nodes)).tolist()
    total = None
    for index in itertools.product(range(simplex_nodes), repeat=n):
        t, rest, jacobian = [], 1.0, 1.0
        for i in index:
            jacobian *= rest
            t.append(x[i] * rest)
            rest -= t[-1]
        weight = math.prod(w[i] for i in index) * jacobian
        radii = [math.sqrt(ti / rest) for ti in t]
        for angles in itertools.product(phases, repeat=n):
            value = np.asarray(f(*[r * a for r, a in zip(radii, angles)]), dtype=complex) * weight
            total = value if total is None else total + value
    total = total * (mass / angular_nodes**n)
    return total.item() if total.ndim == 0 else total


def assert_same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    else:
        assert struct.pack("<2d", got.real, got.imag) == struct.pack("<2d", want.real, want.imag)


def _buffer_integrand():
    buffer = np.empty(3, dtype=complex)

    def f(z):
        buffer[:] = 1.0, z, abs(z) ** 2
        return buffer

    return f


CP1_INTEGRANDS = {
    "int": lambda z: int(10.0 * abs(z)),
    "float": lambda z: abs(z) ** 2 / (1.0 + abs(z) ** 2),
    "complex": lambda z: z / (1.0 + abs(z) ** 2),
    "np.float64": lambda z: np.float64(abs(z)) ** 3,
    "0-d array": lambda z: np.array(0.5 * z),
    "list": lambda z: [1.0, z, abs(z)],
    "vector": cp1_vector,
    "matrix": cp1_matrix,
    "scalar, then array": lambda z: cp1_vector(z) if abs(z) > 1.0 else abs(z),
    "array, then scalar": lambda z: abs(z) if abs(z) > 1.0 else cp1_vector(z),
    "vector, then matrix": lambda z: cp1_matrix(z) if abs(z) > 1.0 else cp1_vector(z),
    "one reused buffer": _buffer_integrand(),
}


@pytest.mark.parametrize("name", CP1_INTEGRANDS)
@pytest.mark.parametrize("two_j, spec", [(3, None), (2, SPEC_CP1)], ids=["default", "6x7"])
def test_integrate_cp1_equals_the_reference_loop_bit_for_bit(name, two_j, spec):
    f = CP1_INTEGRANDS[name]
    rule = spec or QuadratureSpecCP1.for_spin(two_j)
    want = reference_integrate(f, 1, rule.radial_nodes, rule.angular_nodes, two_j + 1)
    assert_same_bits(integrate_cp1(f, two_j, spec), want)


@pytest.mark.parametrize(
    "f",
    [lambda z1, z2: z1 * z2.conjugate(), lambda z1, z2: float(abs(z1)), cp2_vector, cp2_matrix],
    ids=["complex", "float", "vector", "matrix"],
)
@pytest.mark.parametrize("spec", [None, SPEC_CP2], ids=["default", "3x5"])
def test_integrate_cp2_equals_the_reference_loop_bit_for_bit(f, spec):
    rule = spec or QuadratureSpecCP2()
    want = reference_integrate(f, 2, rule.simplex_nodes, rule.angular_nodes, 6)
    assert_same_bits(integrate_cp2(f, spec), want)


@pytest.mark.parametrize("n", [1, 2])
def test_the_integrand_sees_the_chart_points_of_the_reference_loop(n):
    seen, wanted = [], []
    if n == 1:
        integrate_cp1(lambda *z: seen.append(z) or 0.0, 2, SPEC_CP1)
        reference_integrate(lambda *z: wanted.append(z) or 0.0, 1, 6, 7, 3)
    else:
        integrate_cp2(lambda *z: seen.append(z) or 0.0, SPEC_CP2)
        reference_integrate(lambda *z: wanted.append(z) or 0.0, 2, 3, 5, 6)
    assert all(type(z) is complex for point in seen for z in point)
    assert np.array(seen).tobytes() == np.array(wanted).tobytes()


def test_a_read_only_array_returned_at_every_node_is_left_as_it_is():
    shared = np.array([[1.0, 2.0j], [-0.0, 3.5]])
    shared.flags.writeable = False
    before = shared.copy()
    got = integrate_cp1(lambda z: shared, 4)
    assert_same_bits(got, reference_integrate(lambda z: shared, 1, 6, 11, 5))
    assert shared.tobytes() == before.tobytes()
    assert got is not shared and not np.shares_memory(got, shared)
