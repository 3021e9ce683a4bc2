import math

import numpy as np
import pytest

from bellforge import (
    DimensionMismatchError,
    EmptyFamilyError,
    FlatMapId,
    HomogeneousPoint,
    UnknownFlatMapError,
    coherent_cp1,
    flat_point,
    flat_projector,
    flat_state,
    global_unitary,
    projector_consistency,
    projector_distance,
    projector_of,
    verify_antimap,
)
from bellforge.coherent import level_one_states_from_homogeneous, spin_states_from_homogeneous
from bellforge.flatmaps import _chunk_rows, cp1_catalog, cpn_catalog
from bellforge.quadrature import MCSpec, sample_fubini_study

W = np.exp(2j * np.pi / 3.0)


def all_catalog_ids():
    return [(f, 1) for f in cp1_catalog()] + [(f, 3) for f in cp1_catalog()] + [
        (f, None) for f in cpn_catalog(2)
    ] + [(f, None) for f in cpn_catalog(3)]


# --- identifiers -----------------------------------------------------------


def test_parse_round_trip():
    for text in ["cp1:1", "cp1:4", "cp2:a1", "cp2:b2", "cp2:c3", "cpn:3:1:2"]:
        assert str(FlatMapId.parse(text)) == text


def test_cp2_letter_mapping():
    flat = FlatMapId.parse("cp2:b2")
    assert (flat.n, flat.p, flat.q) == (2, 1, 1)
    flat = FlatMapId.parse("cp2:c1")
    assert (flat.p, flat.q) == (0, 2)


@pytest.mark.parametrize("bad", ["cp1:5", "cp1:0", "cp9:1", "cp2:d1", "cpn:2:3:0", "cpn:2:1", "x"])
def test_parse_rejects_bad_ids(bad):
    with pytest.raises(UnknownFlatMapError):
        FlatMapId.parse(bad)


# --- global unitaries ------------------------------------------------------


def test_unitary_cp1_tag2_is_sigma3():
    assert np.allclose(global_unitary(FlatMapId.cp1(2), 2), np.diag([1.0, -1.0]), atol=1e-15)


def test_unitary_cp1_tag4_spin_half():
    assert np.allclose(
        global_unitary(FlatMapId.cp1(4), 2), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15
    )


def test_unitary_cp2_pair_11_is_shift_times_clock():
    expected = np.array([[0, 0, W**2], [1, 0, 0], [0, W, 0]])
    assert np.max(np.abs(global_unitary(FlatMapId.cpn(2, 1, 1), 3) - expected)) < 1e-14


def test_unitary_cp2_pair_00_is_identity():
    assert np.allclose(global_unitary(FlatMapId.cpn(2, 0, 0), 3), np.eye(3), atol=1e-15)


def test_unitaries_are_monomial_and_unitary():
    for flat, two_j in all_catalog_ids():
        dim = (two_j + 1) if flat.space == "cp1" else flat.n + 1
        u = global_unitary(flat, dim)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12
        assert np.all(np.isclose(np.abs(u), 0.0) | np.isclose(np.abs(u), 1.0))
        assert np.allclose(np.sum(np.abs(u) > 0.5, axis=0), 1)


def test_unitary_cpn_dimension_check():
    with pytest.raises(DimensionMismatchError):
        global_unitary(FlatMapId.cpn(2, 1, 1), 4)


# --- twisted states: the four sphere maps ----------------------------------


def _spin_half_partner(tag, z):
    # chart images of z under conj, -conj, 1/conj, -1/conj, with the phase
    # convention induced by |z^b> = U conj(|z>)
    s = math.sqrt(1.0 + abs(z) ** 2)
    zb = np.conj(z)
    return {
        1: np.array([1.0, zb]) / s,
        2: np.array([1.0, -zb]) / s,
        3: np.array([zb, 1.0]) / s,
        4: np.array([-zb, 1.0]) / s,
    }[tag]


def test_flat_state_spin_half_formulas():
    rng = np.random.default_rng(21)
    for _ in range(25):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        psi = coherent_cp1(1, z)
        for tag in (1, 2, 3, 4):
            got = flat_state(FlatMapId.cp1(tag), psi)
            assert np.max(np.abs(got - _spin_half_partner(tag, z))) < 1e-12


def _spin_j_partner(tag, two_j, z):
    # amplitudes sqrt(C(2j,k)) (+-1)^k conj(z)^k on |k> or |2j-k>
    amps = np.zeros(two_j + 1, dtype=complex)
    for k in range(two_j + 1):
        coeff = math.sqrt(math.comb(two_j, k)) * np.conj(z) ** k
        if tag in (2, 4):
            coeff *= (-1.0) ** k
        amps[k if tag in (1, 2) else two_j - k] += coeff
    return amps / (1.0 + abs(z) ** 2) ** (two_j / 2.0)


def test_flat_state_spin_j_formulas():
    rng = np.random.default_rng(22)
    for two_j in range(0, 11):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        psi = coherent_cp1(two_j, z)
        for tag in (1, 2, 3, 4):
            got = flat_state(FlatMapId.cp1(tag), psi)
            assert np.max(np.abs(got - _spin_j_partner(tag, two_j, z))) < 1e-12


# --- twisted states: the nine cp2 maps -------------------------------------

CP2_PARTNERS = {
    (0, 0): lambda a, b: (1.0, a, b),
    (1, 0): lambda a, b: (1.0, W * a, W**2 * b),
    (2, 0): lambda a, b: (1.0, W**2 * a, W * b),
    (0, 1): lambda a, b: (b, 1.0, a),
    (1, 1): lambda a, b: (W**2 * b, 1.0, W * a),
    (2, 1): lambda a, b: (W * b, 1.0, W**2 * a),
    (0, 2): lambda a, b: (a, b, 1.0),
    (1, 2): lambda a, b: (W * a, W**2 * b, 1.0),
    (2, 2): lambda a, b: (W**2 * a, W * b, 1.0),
}


def test_flat_state_cp2_formulas():
    rng = np.random.default_rng(23)
    for _ in range(10):
        z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = math.sqrt(1.0 + abs(z1) ** 2 + abs(z2) ** 2)
        psi = np.array([1.0, z1, z2]) / s
        for (p, q), partner in CP2_PARTNERS.items():
            got = flat_state(FlatMapId.cpn(2, p, q), psi)
            want = np.array(partner(np.conj(z1), np.conj(z2))) / s
            assert np.max(np.abs(got - want)) < 1e-12, (p, q)


def test_flat_state_dimension_check():
    with pytest.raises(DimensionMismatchError):
        flat_state(FlatMapId.cpn(2, 0, 0), np.ones(4) / 2.0)


# --- point maps -------------------------------------------------------------


def test_flat_point_inversion_on_chart():
    image = flat_point(FlatMapId.cp1(3), HomogeneousPoint([1.0, 2.0]))
    assert image == HomogeneousPoint([2.0, 1.0])  # z = 2 -> 1/2


def test_flat_point_chart_boundary():
    image = flat_point(FlatMapId.cp1(3), HomogeneousPoint([1.0, 0.0]))
    assert image == HomogeneousPoint([0.0, 1.0])


def test_flat_point_cp2_chart_formula():
    z1, z2 = 0.4 + 0.9j, -1.1 + 0.3j
    image = flat_point(FlatMapId.cpn(2, 0, 1), HomogeneousPoint([1.0, z1, z2]))
    local = image.coords[1:] / image.coords[0]
    expected = [1.0 / np.conj(z2), np.conj(z1) / np.conj(z2)]
    assert np.max(np.abs(local - expected)) < 1e-12


def test_flat_point_involution_or_shift_square():
    rng = np.random.default_rng(24)
    for flat, _ in all_catalog_ids():
        dim = 2 if flat.space == "cp1" else flat.n + 1
        coords = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        point = HomogeneousPoint(coords)
        twice = flat_point(flat, flat_point(flat, point))
        u = global_unitary(flat, dim)
        composition = u @ u.conj()  # the point map of applying the twist twice
        assert twice == HomogeneousPoint(composition @ coords)
        if flat.space == "cp1" or flat.q == 0:
            # composition is proportional to the identity: a true involution
            assert twice == point


# --- projector action -------------------------------------------------------


def test_flat_projector_tag1_is_conjugation():
    rng = np.random.default_rng(25)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    p = projector_of(v / np.linalg.norm(v))
    assert np.max(np.abs(flat_projector(FlatMapId.cp1(1), p) - p.conj())) < 1e-15


def test_flat_projector_cp2_identity_pair_is_conjugation():
    rng = np.random.default_rng(26)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = projector_of(v / np.linalg.norm(v))
    assert np.max(np.abs(flat_projector(FlatMapId.cpn(2, 0, 0), p) - p.conj())) < 1e-15


def test_flat_projector_clock_pair_matches_state_formula():
    z1, z2 = 0.7 - 0.2j, 0.1 + 1.3j
    s = math.sqrt(1.0 + abs(z1) ** 2 + abs(z2) ** 2)
    psi = np.array([1.0, z1, z2]) / s
    twisted = np.array([1.0, W * np.conj(z1), W**2 * np.conj(z2)]) / s
    got = flat_projector(FlatMapId.cpn(2, 1, 0), projector_of(psi))
    assert np.max(np.abs(got - projector_of(twisted))) < 1e-12


def test_state_and_projector_actions_agree():
    rng = np.random.default_rng(27)
    for flat, two_j in all_catalog_ids():
        n = 1 if flat.space == "cp1" else flat.n
        rows = sample_fubini_study(n, MCSpec(samples=50, seed=int(rng.integers(1 << 30))))
        if flat.space == "cp1":
            from bellforge.coherent import spin_states_from_homogeneous

            states = spin_states_from_homogeneous(two_j, rows)
        else:
            states = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        for v in states:
            lhs = projector_of(flat_state(flat, v))
            rhs = flat_projector(flat, projector_of(v))
            assert projector_distance(lhs, rhs) < 1e-12


def test_projector_consistency_is_the_worst_point_and_keeps_nan():
    flat = FlatMapId.parse("cp2:b3")
    rows = sample_fubini_study(2, MCSpec(samples=20, seed=3))
    states = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    per_point = [
        np.linalg.norm(projector_of(flat_state(flat, v)) - flat_projector(flat, projector_of(v)))
        for v in states
    ]
    assert projector_consistency(flat, states) == max(per_point)
    nan_state = np.full(3, np.nan, dtype=complex)
    assert math.isnan(projector_consistency(flat, [nan_state, *states]))
    assert math.isnan(projector_consistency(flat, [*states, nan_state]))


def _consistency_states(flat, two_j, samples, seed):
    n = 1 if flat.space == "cp1" else flat.n
    rows = sample_fubini_study(n, MCSpec(samples=samples, seed=seed))
    if flat.space == "cp1":
        return spin_states_from_homogeneous(two_j, rows)
    return level_one_states_from_homogeneous(rows)


def _per_point_consistency(flat, states):
    worst = 0.0
    for v in states:
        lhs = projector_of(flat_state(flat, v))
        rhs = flat_projector(flat, projector_of(v))
        worst = np.maximum(worst, np.linalg.norm(lhs - rhs))
    return float(worst)


@pytest.mark.parametrize(
    "flat, two_j",
    [(f, two_j) for two_j in (1, 3, 6) for f in cp1_catalog()]
    + [(f, None) for f in cpn_catalog(2) + cpn_catalog(3)],
    ids=str,
)
def test_projector_consistency_matches_the_per_point_loop(flat, two_j):
    dim = two_j + 1 if flat.space == "cp1" else flat.n + 1
    states = _consistency_states(flat, two_j, _chunk_rows(dim) + 5, seed=71)
    expected = _per_point_consistency(flat, states)
    # the difference matrices agree bit for bit; only the Frobenius sum may round differently
    assert projector_consistency(flat, states) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "flat, two_j",
    [(FlatMapId.cp1(2), 1), (FlatMapId.cpn(2, 2, 1), None), (FlatMapId.cpn(3, 1, 2), None), (FlatMapId.cp1(4), 64)],
    ids=str,
)
def test_projector_consistency_keeps_a_nan_at_every_chunk_edge(flat, two_j):
    dim = two_j + 1 if flat.space == "cp1" else flat.n + 1
    chunk = _chunk_rows(dim)
    assert chunk == max(1, 4096 // dim**2)  # at most 64 KiB per (chunk, d, d) complex array
    states = _consistency_states(flat, two_j, 2 * chunk + 3, seed=72)
    assert projector_consistency(flat, states) < 1e-12
    for row in sorted({0, chunk - 1, chunk, chunk + 1, len(states) - 1}):
        poisoned = states.copy()
        poisoned[row] = np.nan
        assert math.isnan(projector_consistency(flat, poisoned)), row


def test_projector_consistency_rejects_an_empty_family():
    for flat, states in [(FlatMapId.cp1(2), []), (FlatMapId.cpn(2, 1, 1), np.zeros((0, 3), dtype=complex))]:
        with pytest.raises(EmptyFamilyError):
            projector_consistency(flat, states)


@pytest.mark.parametrize(
    "flat, states",
    [
        (FlatMapId.cp1(1), np.array([1.0, 0.0])),
        (FlatMapId.cp1(1), np.ones((2, 2, 2))),
        (FlatMapId.cp1(3), [np.ones(2), np.ones(3)]),
        (FlatMapId.cpn(2, 1, 1), np.ones((4, 4)) / 2.0),
        (FlatMapId.cpn(3, 0, 2), np.ones((4, 3))),
    ],
    ids=["one-row-1d", "3d", "ragged", "cp2-map-dim-4", "cp3-map-dim-3"],
)
def test_projector_consistency_rejects_rows_of_the_wrong_shape(flat, states):
    with pytest.raises(DimensionMismatchError):
        projector_consistency(flat, states)


# --- the overlap-reversal identity ------------------------------------------


def test_antimap_identity_whole_catalog():
    for flat, two_j in all_catalog_ids():
        n = 1 if flat.space == "cp1" else flat.n
        rows_a = sample_fubini_study(n, MCSpec(samples=300, seed=101))
        rows_b = sample_fubini_study(n, MCSpec(samples=300, seed=202))
        pairs = list(zip(rows_a, rows_b))
        assert verify_antimap(flat, pairs, two_j=two_j or 1) < 1e-12


def test_antimap_rejects_an_empty_pair_list():
    for flat in (FlatMapId.cp1(2), FlatMapId.cpn(2, 1, 1)):
        with pytest.raises(EmptyFamilyError):
            verify_antimap(flat, [])
