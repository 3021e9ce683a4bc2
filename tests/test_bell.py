import math

import numpy as np
import pytest

from bellforge import (
    BipartiteState,
    DomainError,
    FlatMapId,
    MCSpec,
    QuadratureSpecCP1,
    QuadratureSpecCP2,
    bell_target,
    closed_form_bell_cp1,
    closed_form_bell_cp2,
    cpn_rule,
    fivel_bell,
    generalized_bell,
    rank_of_family,
    resolution_of_unity_cp1,
    state_distance,
    unitary_transport_identity,
)
from bellforge import bell, coherent
from bellforge.flatmaps import cpn_catalog

W = np.exp(2j * np.pi / 3.0)
S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)

QUBIT_PAIRS = {
    1: np.array([S2, 0.0, 0.0, S2]),
    2: np.array([S2, 0.0, 0.0, -S2]),
    3: np.array([0.0, S2, S2, 0.0]),
    4: np.array([0.0, S2, -S2, 0.0]),
}

SPIN_ONE = {
    1: np.array([S3, 0, 0, 0, S3, 0, 0, 0, S3]),
    2: np.array([S3, 0, 0, 0, -S3, 0, 0, 0, S3]),
    3: np.array([0, 0, S3, 0, S3, 0, S3, 0, 0]),
    4: np.array([0, 0, S3, 0, -S3, 0, S3, 0, 0]),
}

# amplitudes at flat index k*3 + (k+q) mod 3, phase omega^(pk)
CP2_STATES = {
    (0, 0): {0: 1, 4: 1, 8: 1},
    (1, 0): {0: 1, 4: W, 8: W**2},
    (2, 0): {0: 1, 4: W**2, 8: W},
    (0, 1): {1: 1, 5: 1, 6: 1},
    (1, 1): {1: 1, 5: W, 6: W**2},
    (2, 1): {1: 1, 5: W**2, 6: W},
    (0, 2): {2: 1, 3: 1, 7: 1},
    (1, 2): {2: 1, 3: W, 7: W**2},
    (2, 2): {2: 1, 3: W**2, 7: W},
}


def cp2_vector(p, q):
    amps = np.zeros(9, dtype=complex)
    for idx, val in CP2_STATES[(p, q)].items():
        amps[idx] = val * S3
    return amps


# --- closed forms ------------------------------------------------------------


def test_closed_form_cp1_spin_half():
    for tag, want in QUBIT_PAIRS.items():
        got = closed_form_bell_cp1(1, tag)
        assert np.max(np.abs(got.amplitudes - want)) < 1e-15


def test_closed_form_cp1_spin_one():
    for tag, want in SPIN_ONE.items():
        got = closed_form_bell_cp1(2, tag)
        assert np.max(np.abs(got.amplitudes - want)) < 1e-15


def test_closed_form_cp1_trivial_spin():
    for tag in (1, 2, 3, 4):
        got = closed_form_bell_cp1(0, tag)
        assert np.allclose(got.amplitudes, [1.0])


def test_closed_form_cp1_rejects_bad_tag():
    with pytest.raises(DomainError):
        closed_form_bell_cp1(2, 5)


def test_closed_form_cp1_rejects_negative_spin():
    with pytest.raises(DomainError):
        closed_form_bell_cp1(-1, 1)


def test_closed_form_cp2_all_nine():
    for (p, q), _ in CP2_STATES.items():
        got = closed_form_bell_cp2(p, q)
        assert np.max(np.abs(got.amplitudes - cp2_vector(p, q))) < 1e-14, (p, q)


def test_generalized_matches_qubit_family():
    mapping = {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4}
    for (p, q), tag in mapping.items():
        got = generalized_bell(2, p, q)
        assert np.max(np.abs(got.amplitudes - QUBIT_PAIRS[tag])) < 1e-14


def test_generalized_matches_cp2_family():
    for p in range(3):
        for q in range(3):
            d = state_distance(generalized_bell(3, p, q), closed_form_bell_cp2(p, q))
            assert d < 1e-14


def test_generalized_family_is_orthonormal():
    for n in (2, 3, 4, 5):
        family = [generalized_bell(n, p, q) for p in range(n) for q in range(n)]
        gram = np.array(
            [[np.vdot(a.amplitudes, b.amplitudes) for b in family] for a in family]
        )
        assert np.max(np.abs(gram - np.eye(n * n))) < 1e-12


def test_generalized_bell_domain():
    with pytest.raises(DomainError):
        generalized_bell(3, 3, 0)
    with pytest.raises(DomainError):
        generalized_bell(3, 0, -1)


def test_spin_one_and_dimension_three_families_differ():
    # four spin-1 states are rank deficient; the nine cp2 states are a basis
    assert rank_of_family([closed_form_bell_cp1(2, t) for t in (1, 2, 3, 4)]) == 3
    assert rank_of_family([generalized_bell(2, p, q) for p in range(2) for q in range(2)]) == 4


# --- the integral reproduces the closed forms --------------------------------


def test_integral_recovers_qubit_pairs():
    for tag, want in QUBIT_PAIRS.items():
        state, residual = fivel_bell(FlatMapId.cp1(tag), two_j=1)
        assert np.max(np.abs(state.amplitudes - want)) < 1e-12
        assert residual < 1e-12


@pytest.mark.parametrize("two_j", range(0, 7))
@pytest.mark.parametrize("tag", [1, 2, 3, 4])
def test_integral_matches_closed_form_cp1(two_j, tag):
    state, residual = fivel_bell(FlatMapId.cp1(tag), two_j=two_j)
    assert state_distance(state, closed_form_bell_cp1(two_j, tag)) < 1e-10
    assert residual < 1e-10


def test_integral_matches_closed_form_cp2():
    for flat in cpn_catalog(2):
        state, residual = fivel_bell(flat)
        assert state_distance(state, closed_form_bell_cp2(flat.p, flat.q)) < 1e-10
        assert residual < 1e-10


def test_integral_monte_carlo_cp2():
    flat = FlatMapId.cpn(2, 1, 1)
    state, _ = fivel_bell(flat, MCSpec(samples=200_000, seed=13))
    assert state_distance(state, closed_form_bell_cp2(1, 1)) < 2e-2


def test_integral_monte_carlo_cp1_spin_one():
    state, _ = fivel_bell(FlatMapId.cp1(3), MCSpec(samples=200_000, seed=14), two_j=2)
    assert state_distance(state, closed_form_bell_cp1(2, 3)) < 2e-2


def test_under_resolved_rule_is_visibly_wrong():
    bad = QuadratureSpecCP1(radial_nodes=1, angular_nodes=7)
    state, _ = fivel_bell(FlatMapId.cp1(1), bad, two_j=2)
    assert state_distance(state, closed_form_bell_cp1(2, 1)) > 1e-3


def test_quadrature_covers_cp3_and_refuses_rules_past_the_row_bound():
    for flat in cpn_catalog(3):
        state, residual = fivel_bell(flat)
        assert state_distance(state, generalized_bell(4, flat.p, flat.q)) < 1e-10
        assert residual < 1e-10
    # CP^5 at the default rule: (4 x 7)^5 = 17.2M rows
    with pytest.raises(DomainError):
        fivel_bell(FlatMapId.cpn(5, 1, 1))


def test_a_spec_of_the_wrong_kind_is_a_domain_error():
    with pytest.raises(DomainError):
        fivel_bell(FlatMapId.cp1(1), QuadratureSpecCP2(), two_j=1)
    with pytest.raises(DomainError):
        fivel_bell(FlatMapId.cpn(2, 0, 0), QuadratureSpecCP1(3, 5))


def test_sphere_pairs_via_cpn_ids():
    # the level-one sphere catalog reproduces the dimension-2 family
    for p in range(2):
        for q in range(2):
            state, residual = fivel_bell(FlatMapId.cpn(1, p, q))
            assert state_distance(state, generalized_bell(2, p, q)) < 1e-12
            assert residual < 1e-12


def test_a_spin_past_float_range_is_refused_before_any_node(monkeypatch):
    calls = []

    def counting(two_j, z):
        calls.append(z)
        return coherent.coherent_cp1(two_j, z)

    # fivel_bell and resolution_of_unity_cp1 both reach coherent_cp1 through bell
    monkeypatch.setattr(bell, "coherent_cp1", counting)
    # (1+|z|^2)^80 leaves float range at the outermost node of the default 2j = 160 rule
    with pytest.raises(DomainError):
        fivel_bell(FlatMapId.cp1(1), two_j=160)
    with pytest.raises(DomainError):
        resolution_of_unity_cp1(160)
    assert calls == []
    fivel_bell(FlatMapId.cp1(1), two_j=2)
    resolution_of_unity_cp1(2)
    assert len(calls) == 2 * 4 * 7


def test_cp1_requires_spin():
    with pytest.raises(DomainError):
        fivel_bell(FlatMapId.cp1(1))


def test_generalized_family_against_deterministic_cp3_rule():
    # exact-quadrature cross-check of the dimension-4 family, far below the
    # Monte Carlo noise floor
    spec = QuadratureSpecCP2(simplex_nodes=3, angular_nodes=5)
    _, weights = cpn_rule(3, spec)
    assert abs(weights.sum() - 4.0) < 1e-12
    state, _ = fivel_bell(FlatMapId.cpn(3, 1, 2), spec)
    assert np.max(np.abs(state.amplitudes - generalized_bell(4, 1, 2).amplitudes)) < 1e-8


# --- the analytic transport identity -----------------------------------------


def loop_closed_form_cp1(two_j, tag):
    """The spin-j closed form as a loop over k, independent of global_unitary."""
    dim = two_j + 1
    amps = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        partner = k if tag in (1, 2) else two_j - k
        sign = (-1.0) ** k if tag in (2, 4) else 1.0
        amps[k * dim + partner] = sign
    return amps / np.sqrt(dim)


def loop_generalized_bell(n, p, q):
    """The generalized Bell state as a loop over k, independent of global_unitary."""
    omega = np.exp(2j * np.pi / n)
    amps = np.zeros(n * n, dtype=complex)
    for k in range(n):
        amps[k * n + (k + q) % n] = omega ** (p * k)
    return amps / np.sqrt(n)


def test_bell_target_equals_closed_forms():
    """Bit for bit, so the JSON of `bell make` is pinned for every map,
    including the sign of each zero."""
    for tag in (1, 2, 3, 4):
        for two_j in range(41):
            want = loop_closed_form_cp1(two_j, tag).tobytes()
            assert bell_target(FlatMapId.cp1(tag), two_j=two_j).amplitudes.tobytes() == want
            assert closed_form_bell_cp1(two_j, tag).amplitudes.tobytes() == want
    for n in range(1, 13):
        for flat in cpn_catalog(n):
            want = loop_generalized_bell(n + 1, flat.p, flat.q).tobytes()
            assert bell_target(flat).amplitudes.tobytes() == want
            assert generalized_bell(n + 1, flat.p, flat.q).amplitudes.tobytes() == want
    assert generalized_bell(1, 0, 0).amplitudes.tobytes() == loop_generalized_bell(1, 0, 0).tobytes()


def test_transport_identity_examples():
    assert unitary_transport_identity(FlatMapId.cp1(3), two_j=1) < 1e-12
    assert max(unitary_transport_identity(f) for f in cpn_catalog(2)) < 1e-10
    assert unitary_transport_identity(FlatMapId.cp1(2), two_j=6) < 1e-10


# --- container ---------------------------------------------------------------


def test_bipartite_state_shape_check():
    from bellforge import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        BipartiteState(2, 2, np.ones(3))


def test_bipartite_matrix_layout():
    state = BipartiteState(2, 3, np.arange(6.0))
    assert np.array_equal(state.matrix(), [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
