import math

import numpy as np
import pytest

from bellforge import (
    ChartPoint,
    DomainError,
    chart_vector,
    coherent_cp1,
    coherent_cpn,
    integrate_cp1,
    measure_density_cp1,
    measure_density_cpn,
    su2_generators,
)
from bellforge.coherent import (
    _sqrt_binomials,
    binomial_row,
    coherent_states,
    level_one_states_from_homogeneous,
    spin_states_from_homogeneous,
)


def test_su2_weight_matrix_spin_half():
    _, _, j3 = su2_generators(1)
    assert np.allclose(j3, np.diag([-0.5, 0.5]), atol=1e-15)


def test_su2_raising_coefficient_spin_half():
    jp, _, _ = su2_generators(1)
    # sqrt((j-m)(j+m+1)) at j=1/2, m=-1/2 is 1
    assert np.allclose(jp, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_su2_trivial_representation():
    jp, jm, j3 = su2_generators(0)
    for m in (jp, jm, j3):
        assert m.shape == (1, 1)
        assert np.allclose(m, 0.0)


@pytest.mark.parametrize("two_j", range(0, 21))
def test_su2_commutators(two_j):
    jp, jm, j3 = su2_generators(two_j)
    assert np.max(np.abs(j3 @ jp - jp @ j3 - jp)) < 1e-12
    assert np.max(np.abs(j3 @ jm - jm @ j3 + jm)) < 1e-12
    assert np.max(np.abs(jp @ jm - jm @ jp - 2.0 * j3)) < 1e-12


def test_coherent_cp1_lowest_weight():
    assert np.allclose(coherent_cp1(1, 0.0), [1.0, 0.0], atol=1e-15)


def test_coherent_cp1_equal_weight():
    assert np.allclose(coherent_cp1(1, 1.0), np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)


def test_coherent_cp1_spin_one_at_i():
    # direct evaluation: (1, sqrt(2) i, i^2) / (1 + 1)
    expected = 0.5 * np.array([1.0, np.sqrt(2.0) * 1j, -1.0])
    assert np.allclose(coherent_cp1(2, 1.0j), expected, atol=1e-15)


def test_coherent_cp1_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(100):
        two_j = int(rng.integers(0, 13))
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 10.0
        assert abs(np.linalg.norm(coherent_cp1(two_j, z)) - 1.0) < 1e-12


def test_coherent_cp1_matches_chart_vector_at_spin_half():
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        assert np.allclose(
            coherent_cp1(1, z), chart_vector(ChartPoint(0, [z])), atol=1e-12
        )


def test_coherent_cpn_examples():
    assert np.allclose(coherent_cpn(2, ChartPoint(0, [0.0, 0.0])), [1, 0, 0], atol=1e-15)
    assert np.allclose(
        coherent_cpn(2, ChartPoint(0, [1.0, 1.0])), np.ones(3) / np.sqrt(3.0), atol=1e-15
    )
    assert np.allclose(
        coherent_cpn(3, ChartPoint(0, [1.0, 1.0, 1.0])), 0.5 * np.ones(4), atol=1e-15
    )


def test_measure_density_cp1_values():
    assert abs(measure_density_cp1(1, 0.0) - 2.0 / math.pi) < 1e-15
    assert abs(measure_density_cp1(0, 0.0) - 1.0 / math.pi) < 1e-15
    assert abs(measure_density_cp1(1, 1.0) - 1.0 / (2.0 * math.pi)) < 1e-15


def test_measure_density_cpn_values():
    assert abs(measure_density_cpn(2, ChartPoint(0, [0.0, 0.0])) - 6.0 / math.pi**2) < 1e-15
    assert (
        abs(measure_density_cpn(2, ChartPoint(0, [1.0, 1.0])) - 2.0 / (9.0 * math.pi**2))
        < 1e-15
    )


def test_measure_density_cpn_matches_cp1_fundamental():
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        assert abs(
            measure_density_cpn(1, ChartPoint(0, [z])) - measure_density_cp1(1, z)
        ) < 1e-15


def test_measure_density_cpn_requires_chart_zero():
    with pytest.raises(DomainError):
        measure_density_cpn(2, ChartPoint(1, [1.0, 1.0]))


def test_measure_invariant_under_inversion():
    # test integrands are polynomials in t = |z|^2/(1+|z|^2); under z -> 1/z
    # the variable flips to 1-t, and the integrals must agree
    rng = np.random.default_rng(9)
    for two_j in (1, 3, 6):
        coeffs = rng.standard_normal(4)

        def poly(t):
            return coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * t**3

        def t_of(z):
            return abs(z) ** 2 / (1.0 + abs(z) ** 2)

        direct = integrate_cp1(lambda z: poly(t_of(z)), two_j)
        inverted = integrate_cp1(lambda z: poly(t_of(1.0 / z)), two_j)
        assert abs(direct - inverted) < 1e-10


def test_binomial_row_exact():
    assert np.array_equal(binomial_row(6), [1, 6, 15, 20, 15, 6, 1])


def test_binomial_row_outside_float_range_is_a_domain_error():
    assert np.array_equal(binomial_row(1029), [float(math.comb(1029, k)) for k in range(1030)])
    with pytest.raises(DomainError):
        binomial_row(1030)
    with pytest.raises(DomainError):
        spin_states_from_homogeneous(1100, np.array([[1.0, 1.0j]]))


def test_coherent_cp1_reads_one_cached_binomial_row_per_spin():
    _sqrt_binomials.cache_clear()
    z = 0.3 - 1.7j
    states = [coherent_cp1(7, z) for _ in range(5)]
    info = _sqrt_binomials.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    assert not _sqrt_binomials(7).flags.writeable
    k = np.arange(8)
    direct = np.sqrt(binomial_row(7)) * z**k / (1.0 + abs(z) ** 2) ** 3.5
    for state in states:
        assert np.array_equal(state, direct)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coherent_cp1_refuses_points_past_float_range():
    # (1+|z|^2)^80 is finite up to |z| = 84.4 and overflows beyond
    assert np.isfinite(coherent_cp1(160, 80.0)).all()
    for z in (90.0, 135.2j, 1e200):
        with pytest.raises(DomainError):
            coherent_cp1(160, z)


def test_coherent_states_are_spin_states_for_cp1_and_level_one_states_for_cpn():
    rng = np.random.default_rng(14)
    rows = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    assert np.array_equal(coherent_states("cp1", rows, 3), spin_states_from_homogeneous(3, rows))
    assert np.array_equal(coherent_states("cpn", rows, 3), level_one_states_from_homogeneous(rows))


def test_spin_states_from_homogeneous_matches_chart_form():
    rng = np.random.default_rng(10)
    for two_j in (1, 2, 7):
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rows = np.stack([np.ones(5), z], axis=1)
        batch = spin_states_from_homogeneous(two_j, rows)
        for row_state, zi in zip(batch, z):
            assert np.allclose(row_state, coherent_cp1(two_j, zi), atol=1e-12)


def test_spin_states_scale_invariant_projector():
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    scales = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    a = spin_states_from_homogeneous(3, rows)
    b = spin_states_from_homogeneous(3, rows * scales[:, None])
    for va, vb in zip(a, b):
        assert np.linalg.norm(np.outer(va, va.conj()) - np.outer(vb, vb.conj())) < 1e-12


def test_level_one_states_are_normalized_rows():
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    states = level_one_states_from_homogeneous(rows)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    assert np.allclose(states[0], rows[0] / np.linalg.norm(rows[0]), atol=1e-12)
