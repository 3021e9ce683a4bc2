"""Property tests over inputs drawn by hypothesis: overlap reversal for every
twist map, and Schmidt flatness of the generalized Bell family.

Examples are derandomized and no example database is kept, so each run draws
the same inputs.
"""

import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from bellforge import FlatMapId, generalized_bell, schmidt, verify_antimap  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

# Hypothesis still caches the constants it reads from local source files, once
# all tests are collected; that cache goes to a directory removed at exit
# instead of .hypothesis/ in the working directory.
_STORAGE = tempfile.TemporaryDirectory(prefix="bellforge-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)


# zero, or a magnitude far from underflow even at the 12th power of a row norm
COORDINATE = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


def pairs_of_rows(dim: int):
    row = st.lists(COORDINATE, min_size=dim, max_size=dim).filter(any)
    return st.lists(st.tuples(row, row), min_size=1, max_size=8)


@st.composite
def cpn_cases(draw):
    n = draw(st.integers(1, 6))
    flat = FlatMapId.cpn(n, draw(st.integers(0, n)), draw(st.integers(0, n)))
    return flat, draw(pairs_of_rows(n + 1))


@DETERMINISTIC
@given(cpn_cases())
def test_cpn_maps_reverse_overlaps(case):
    flat, pairs = case
    assert verify_antimap(flat, pairs) <= 1e-12


@DETERMINISTIC
@given(st.integers(1, 4), st.integers(0, 12), pairs_of_rows(2))
def test_cp1_maps_reverse_spin_overlaps(tag, two_j, pairs):
    assert verify_antimap(FlatMapId.cp1(tag), pairs, two_j=two_j) <= 1e-12


@DETERMINISTIC
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))))
def test_generalized_bell_states_have_flat_schmidt_spectra(npq):
    n, p, q = npq
    data = schmidt(generalized_bell(n, p, q))
    assert np.max(np.abs(data.singular_values - 1.0 / math.sqrt(n))) <= 1e-12
    assert abs(data.entropy - math.log(n)) <= 1e-9
