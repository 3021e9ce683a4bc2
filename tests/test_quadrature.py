import math

import numpy as np
import pytest

from bellforge import (
    DomainError,
    MCSpec,
    QuadratureSpecCP1,
    QuadratureSpecCP2,
    cpn_rule,
    gauss_legendre_01,
    integrate_cp1,
    integrate_cp2,
    moment_cp1,
    moments_cp1,
    sample_fubini_study,
    total_measure_cp1,
)
from bellforge.coherent import check_spin_range, coherent_cp1
from bellforge.quadrature import MAX_GAUSS_ORDER, cp1_outermost_points


def test_gauss_legendre_01_exactness():
    nodes, weights = gauss_legendre_01(2)
    # two nodes integrate cubics exactly on [0, 1]
    assert abs(np.sum(weights * nodes**3) - 0.25) < 1e-15


def test_cp1_rule_exact_on_monomials():
    # u^a e^(im theta) integrates to (2j+1)/(a+1) for m = 0 and 0 otherwise
    for two_j in (0, 1, 4, 10):
        spec = QuadratureSpecCP1.for_spin(two_j)
        for a in range(0, 2 * spec.radial_nodes - 1, 3):
            for m in (0, 1, 2, two_j, spec.angular_nodes - 1):
                if m >= spec.angular_nodes:
                    continue

                def f(z, a=a, m=m):
                    u = abs(z) ** 2 / (1.0 + abs(z) ** 2)
                    phase = (z / abs(z)) ** m if m else 1.0
                    return u**a * phase

                got = integrate_cp1(f, two_j, spec)
                want = (two_j + 1) / (a + 1.0) if m == 0 else 0.0
                assert abs(got - want) < 1e-12, (two_j, a, m)


def test_cp1_total_mass():
    for two_j in range(0, 11):
        assert abs(integrate_cp1(lambda z: 1.0, two_j) - (two_j + 1)) < 1e-12


def test_cp1_elementary_integrals_spin_half():
    # with the two-dimensional measure, both 1/(1+|z|^2) and |z|^2/(1+|z|^2)
    # integrate to 1, and odd angular integrands vanish
    assert abs(integrate_cp1(lambda z: 1.0 / (1.0 + abs(z) ** 2), 1) - 1.0) < 1e-12
    assert abs(integrate_cp1(lambda z: abs(z) ** 2 / (1.0 + abs(z) ** 2), 1) - 1.0) < 1e-12
    assert abs(integrate_cp1(lambda z: z / (1.0 + abs(z) ** 2), 1)) < 1e-13


def test_cp1_first_moment_spin_one():
    # |z|^2/(1+|z|^2)^2 against the spin-1 measure equals 1/C(2,1) = 1/2
    value = integrate_cp1(lambda z: abs(z) ** 2 / (1.0 + abs(z) ** 2) ** 2, 2)
    assert abs(value - 0.5) < 1e-12


def test_cp1_matrix_valued_integrand():
    def f(z):
        u = abs(z) ** 2 / (1.0 + abs(z) ** 2)
        return np.array([[1.0, u], [u, u**2]])

    got = integrate_cp1(f, 1, QuadratureSpecCP1(radial_nodes=4, angular_nodes=5))
    want = 2.0 * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert np.max(np.abs(got - want)) < 1e-13


def test_cp2_total_mass():
    assert abs(integrate_cp2(lambda z1, z2: 1.0) - 3.0) < 1e-12


def test_cp2_elementary_integrals():
    s = lambda z1, z2: 1.0 + abs(z1) ** 2 + abs(z2) ** 2
    assert abs(integrate_cp2(lambda z1, z2: 1.0 / s(z1, z2)) - 1.0) < 1e-12
    assert abs(integrate_cp2(lambda z1, z2: abs(z1) ** 2 / s(z1, z2)) - 1.0) < 1e-12
    assert abs(integrate_cp2(lambda z1, z2: abs(z2) ** 2 / s(z1, z2)) - 1.0) < 1e-12
    assert abs(integrate_cp2(lambda z1, z2: z1 * np.conj(z2) / s(z1, z2))) < 1e-13


def test_cp2_rule_against_monte_carlo():
    # the simplex-map Jacobian must agree with a plain Monte Carlo estimate
    # for a batch of random polynomial integrands in (t1, t2)
    rng = np.random.default_rng(31)
    rows = sample_fubini_study(2, MCSpec(samples=1_000_000, seed=77))
    norm2 = np.sum(np.abs(rows) ** 2, axis=1)
    t1 = np.abs(rows[:, 1]) ** 2 / norm2
    t2 = np.abs(rows[:, 2]) ** 2 / norm2
    exponents = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2), (3, 1)]
    for _ in range(20):
        coeffs = rng.standard_normal(len(exponents))

        def poly(a, b):
            return sum(c * a**i * b**j for c, (i, j) in zip(coeffs, exponents))

        def f(z1, z2):
            s = 1.0 + abs(z1) ** 2 + abs(z2) ** 2
            return poly(abs(z1) ** 2 / s, abs(z2) ** 2 / s)

        exact = integrate_cp2(f, QuadratureSpecCP2(simplex_nodes=5, angular_nodes=3)).real
        values = 3.0 * poly(t1, t2)
        estimate = float(np.mean(values))
        stderr = float(np.std(values) / math.sqrt(values.size))
        assert abs(exact - estimate) <= 5.0 * stderr


def test_cpn_rule_at_n_2_is_the_rule_of_integrate_cp2():
    spec = QuadratureSpecCP2(simplex_nodes=3, angular_nodes=4)
    rows, weights = cpn_rule(2, spec)
    assert rows.shape == (9 * 16, 3) and weights.shape == (9 * 16,)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-15)

    def f(z1, z2):
        psi = np.array([1.0, z1, z2]) / math.sqrt(1.0 + abs(z1) ** 2 + abs(z2) ** 2)
        return np.outer(psi, psi.conj()) * psi[1] ** 2

    streamed = integrate_cp2(f, spec)
    # rows[k, 0] is real and positive, so each row is the chart state itself
    at_rows = [np.outer(r, r.conj()) * r[1] ** 2 for r in rows]
    assert np.max(np.abs(np.tensordot(weights, at_rows, axes=1) - streamed)) < 1e-14


@pytest.mark.parametrize("n", [1, 3, 4])
def test_cpn_rule_has_the_total_mass_and_moments_of_cpn(n):
    # t_i = |row_i|^2 is uniform on the simplex under the normalized measure:
    # E[t_0^2 t_n] = n! 2! 1! / (n+3)!, a polynomial the 4-node rule integrates exactly
    rows, weights = cpn_rule(n, QuadratureSpecCP2(simplex_nodes=4, angular_nodes=1))
    assert abs(weights.sum() - (n + 1)) < 1e-12
    t = np.abs(rows) ** 2
    moment = weights @ (t[:, 0] ** 2 * t[:, n]) / (n + 1)
    assert abs(moment - 2.0 * math.factorial(n) / math.factorial(n + 3)) < 1e-15


def test_cpn_rule_refuses_more_than_2_to_the_20_rows():
    rows, _ = cpn_rule(2, QuadratureSpecCP2(simplex_nodes=32, angular_nodes=32))
    assert len(rows) == 2**20
    too_big = [(2, QuadratureSpecCP2(simplex_nodes=33, angular_nodes=32)), (5, QuadratureSpecCP2())]
    too_big.append((10**12, QuadratureSpecCP2(1, 1)))  # one row, past MAX_ARRAY_BYTES
    for n, spec in [*too_big, (0, QuadratureSpecCP2())]:
        with pytest.raises(DomainError):
            cpn_rule(n, spec)


class TableBuilt(Exception):
    """Raised in place of building a Gauss-Legendre table: the rule was accepted."""


@pytest.fixture
def accepted(monkeypatch):
    """Make an accepted rule raise TableBuilt instead of building its tables."""

    def build(m):
        raise TableBuilt(m)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", build)
    return TableBuilt


def test_default_cp1_rules_are_refused_from_2j_723_on(accepted):
    # 724 x 1447 nodes fit in MAX_RULE_ROWS; 725 x 1449 do not
    with pytest.raises(accepted):
        total_measure_cp1(722)
    for two_j in (723, 100_000):
        with pytest.raises(DomainError):
            total_measure_cp1(two_j)
        with pytest.raises(DomainError):
            cp1_outermost_points(QuadratureSpecCP1.for_spin(two_j))


def test_rules_of_more_gauss_legendre_nodes_than_the_bound_are_refused(accepted):
    largest, too_many = (QuadratureSpecCP1(m, 1) for m in (MAX_GAUSS_ORDER, MAX_GAUSS_ORDER + 1))
    with pytest.raises(accepted):
        integrate_cp1(lambda z: 1.0, 0, largest)
    with pytest.raises(accepted):
        cp1_outermost_points(largest)
    with pytest.raises(accepted):
        cpn_rule(1, QuadratureSpecCP2(MAX_GAUSS_ORDER, 1))
    for call in (
        lambda: integrate_cp1(lambda z: 1.0, 0, too_many),
        lambda: cp1_outermost_points(too_many),
        lambda: cpn_rule(1, QuadratureSpecCP2(MAX_GAUSS_ORDER + 1, 1)),
        # 1025^2 nodes on CP^2, past MAX_RULE_ROWS
        lambda: integrate_cp2(lambda z1, z2: 1.0, QuadratureSpecCP2(1, 1025)),
    ):
        with pytest.raises(DomainError):
            call()


def test_the_largest_default_rules_in_use_are_accepted(accepted):
    # 2j = 160, the largest spin `verify moments` is checked at, and the
    # 2j = 96 moment probe
    for two_j in (160, 96):
        with pytest.raises(accepted):
            moments_cp1(two_j)


@pytest.mark.parametrize("two_j", range(0, 11))
def test_moments_match_inverse_binomials(two_j):
    for k in range(two_j + 1):
        assert abs(moment_cp1(two_j, k) - 1.0 / math.comb(two_j, k)) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("two_j, ks", [(96, (81, 88, 96)), (160, (0, 80, 150, 160))])
def test_moments_stay_finite_at_large_spin(two_j, ks):
    # |z|^(2k) / (1+|z|^2)^(2j) written directly overflows to inf/inf from 2j = 84
    for k in ks:
        assert abs(moment_cp1(two_j, k) - 1.0 / math.comb(two_j, k)) <= 1e-10


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        moment_cp1(2, 3)
    with pytest.raises(DomainError):
        moment_cp1(2, -1)


@pytest.mark.parametrize("two_j", [0, 6, 10])
def test_moments_in_one_pass_equal_moment_cp1_bit_for_bit(two_j):
    assert moments_cp1(two_j) == [moment_cp1(two_j, k) for k in range(two_j + 1)]
    spec = QuadratureSpecCP1(radial_nodes=3, angular_nodes=5)
    assert moments_cp1(two_j, spec) == [moment_cp1(two_j, k, spec) for k in range(two_j + 1)]


def test_moments_in_one_pass_refuse_a_negative_spin():
    with pytest.raises(DomainError):
        moments_cp1(-1)


@pytest.mark.parametrize("radial_nodes", [3, 30, 149, 150])
def test_the_outermost_radial_node_decides_the_spin_range(radial_nodes):
    spec = QuadratureSpecCP1(radial_nodes, 5)
    points = []
    integrate_cp1(lambda z: points.append(z) or 0.0, 0, spec)
    outermost = cp1_outermost_points(spec)
    assert outermost == points[-5:]

    def refused(call):
        try:
            call()
        except DomainError:
            return True
        return False

    first = next(j2 for j2 in range(1030) if refused(lambda: check_spin_range(j2, outermost)))
    # coherent_cp1 refuses a point of the rule exactly from that spin on
    assert not refused(lambda: [coherent_cp1(first - 1, z) for z in points])
    assert refused(lambda: [coherent_cp1(first, z) for z in points])


def test_the_default_cp1_rule_is_in_range_up_to_2j_147():
    check_spin_range(147, cp1_outermost_points(QuadratureSpecCP1.for_spin(147)))
    with pytest.raises(DomainError):
        check_spin_range(148, cp1_outermost_points(QuadratureSpecCP1.for_spin(148)))


def test_sampling_is_deterministic():
    a = sample_fubini_study(2, MCSpec(samples=100, seed=123))
    b = sample_fubini_study(2, MCSpec(samples=100, seed=123))
    c = sample_fubini_study(2, MCSpec(samples=100, seed=124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_constant_integrand_is_exact():
    rows = sample_fubini_study(1, MCSpec(samples=1000, seed=5))
    estimate = 2.0 / rows.shape[0] * np.sum(np.ones(rows.shape[0]))
    assert estimate == 2.0


def test_sampling_estimates_frame_diagonal():
    rows = sample_fubini_study(2, MCSpec(samples=1_000_000, seed=6))
    states = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    estimate = 3.0 * float(np.mean(np.abs(states[:, 0]) ** 2))
    assert abs(estimate - 1.0) < 5e-3


@pytest.mark.parametrize("n", [3, 4])
def test_sampling_matches_dirichlet_moments(n):
    # in t_i = |zeta_i|^2/|zeta|^2 coordinates the normalized measure is
    # uniform on the simplex, so moments are Dirichlet integrals:
    # E[t1^a t2^b] = n! a! b! / (a+b+n)!
    rows = sample_fubini_study(n, MCSpec(samples=400_000, seed=17))
    norm2 = np.sum(np.abs(rows) ** 2, axis=1)
    t1 = np.abs(rows[:, 1]) ** 2 / norm2
    t2 = np.abs(rows[:, 2]) ** 2 / norm2
    for a, b in [(1, 0), (2, 0), (1, 1), (3, 1)]:
        expected = (
            math.factorial(n) * math.factorial(a) * math.factorial(b)
            / math.factorial(a + b + n)
        )
        values = t1**a * t2**b
        stderr = float(np.std(values) / math.sqrt(values.size))
        assert abs(float(np.mean(values)) - expected) <= 5.0 * stderr


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpecCP1(radial_nodes=0, angular_nodes=3)
    with pytest.raises(DomainError):
        QuadratureSpecCP2(simplex_nodes=2, angular_nodes=0)
    with pytest.raises(DomainError):
        MCSpec(samples=0)
    with pytest.raises(DomainError):
        MCSpec(samples=1, seed=-1)


def test_negative_spin_is_a_domain_error():
    with pytest.raises(DomainError):
        QuadratureSpecCP1.for_spin(-1)
    with pytest.raises(DomainError):
        integrate_cp1(lambda z: 1.0, -1)
    with pytest.raises(DomainError):
        integrate_cp1(lambda z: 1.0, -1, QuadratureSpecCP1(radial_nodes=2, angular_nodes=3))
    with pytest.raises(DomainError):
        total_measure_cp1(-1)
