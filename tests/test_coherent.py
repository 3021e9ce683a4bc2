import math

import numpy as np
import pytest

from bellforge import DomainError, MCSpec, coherent_cp1, integrate_cp1, sample_fubini_study
from bellforge.coherent import (
    _sqrt_binomials,
    binomial_row,
    coherent_states,
    level_one_states_from_homogeneous,
    spin_states_from_homogeneous,
)


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


def test_coherent_cp1_at_spin_half_is_the_normalized_pair_one_z():
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        expected = np.array([1.0, z]) / np.sqrt(1.0 + abs(z) ** 2)
        assert np.allclose(coherent_cp1(1, z), expected, atol=1e-12)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("two_j", [3, 12, 120])
def test_spin_states_of_rows_past_float_range_are_finite(two_j):
    rows = sample_fubini_study(1, MCSpec(samples=50, seed=8))
    k = np.arange(two_j + 1)
    amps = np.sqrt(binomial_row(two_j)) * rows[:, [0]] ** (two_j - k) * rows[:, [1]] ** k
    expected = amps / (np.sum(np.abs(rows) ** 2, axis=1) ** (two_j / 2.0))[:, None]
    scales = (1e-30, 1e30, 1e-200, 1e200)
    mixed = np.concatenate([rows] + [rows[:5] * c for c in scales])
    states = spin_states_from_homogeneous(two_j, mixed)
    # rows inside float range keep the bits of the direct formula, which
    # rescaling them would change at 2j = 120
    assert np.array_equal(states[:50], expected)
    # a positive scale keeps the point and its phase
    assert np.max(np.abs(states[50:] - np.concatenate([expected[:5]] * len(scales)))) < 1e-12


@pytest.mark.parametrize("two_j", [0, 12])
@pytest.mark.parametrize("row", [[0.0, 0.0], [np.nan, 1.0], [1.0, np.inf]], ids=["zero", "nan", "inf"])
def test_spin_states_refuse_rows_that_are_not_points(two_j, row):
    with pytest.raises(DomainError):
        spin_states_from_homogeneous(two_j, [[1.0, 0.5], row])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spin_states_reach_a_point_near_the_top_of_the_spin_range():
    # largest real and imaginary parts in [0.5, 1) would leave sum |zeta|^2
    # near 4, and 4^j overflows from 2j = 1024
    state = spin_states_from_homogeneous(1029, [[0.999 + 0.999j, 0.999 + 0.999j]])[0]
    assert np.isfinite(state).all()
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert abs(abs(np.vdot(coherent_cp1(1029, 1.0), state)) - 1.0) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("two_j", [0, 1, 12, 1029])
@pytest.mark.parametrize(
    "row",
    [[1.7e308 + 1.7e308j, 1.7e308], [0.5, 0.0], [5e-324, 0.0], [1e-320, 1e300]],
    ids=["huge", "half", "subnormal", "mixed"],
)
def test_spin_states_of_finite_nonzero_rows_are_unit_vectors(two_j, row):
    # a state whose norm overflowed came out zero, and one whose norm was
    # subnormal came out infinite
    state = spin_states_from_homogeneous(two_j, [row])[0]
    assert np.isfinite(state).all()
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_level_one_states_of_rows_past_float_range_are_unit_vectors():
    # the norm of the fourth row was off by 4e-5 from a subnormal sum of squares
    huge = 1.7e308
    rows = np.array(
        [[1e200, 0, 0], [1e-200, 1e-200j, 0], [huge * (1 + 1j), huge, huge], [1e-160, 3e-161, 0], [1, 2, 3]]
    )
    states = level_one_states_from_homogeneous(rows)
    half = 0.5**0.5
    expected = [[1, 0, 0], [half, half * 1j, 0], [0.5 + 0.5j, 0.5, 0.5], [1 / 1.09**0.5, 0.3 / 1.09**0.5, 0]]
    assert np.max(np.abs(states[:4] - expected)) < 1e-15
    # rows inside float range keep the bits of the direct formula
    assert np.array_equal(states[4], rows[4] / np.linalg.norm(rows[4]))


@pytest.mark.parametrize(
    "row", [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1.0, np.inf, 0.0]], ids=["zero", "nan", "inf"]
)
def test_level_one_states_refuse_rows_that_are_not_points(row):
    with pytest.raises(DomainError):
        level_one_states_from_homogeneous([[1.0, 0.5, 0.0], row])
