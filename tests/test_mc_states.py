"""Monte Carlo output, pinned bit for bit, and the entry that keeps the states
of the most recent draw."""

import hashlib
import struct
import sys
import threading
import weakref

import numpy as np
import pytest

from bellforge import FlatMapId, MCSpec, bell, fivel_bell, resolution_of_unity_mc
from bellforge.flatmaps import cp1_catalog, cpn_catalog

# Two specs, run in the order A, B, A: the first map of each block draws, the
# rest of the block reuses that draw, and the last block draws A again.
SPEC_A = MCSpec(samples=20_000, seed=11)
SPEC_B = MCSpec(samples=20_000, seed=12)

# sha256 of mc_digest_bytes(), recorded before the Monte Carlo states were
# kept between calls, with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64. The
# bytes depend on libm and on the BLAS summation order; a different build may
# change the last bits, and then the hash has to be recorded again from code
# that draws afresh on every call.
MC_GOLDEN_SHA256 = "19fd5ac717f98ba8555333321e8090c375dcba50909f14fc6d6d1312142a1990"


def mc_digest_bytes() -> bytes:
    """Amplitudes and norm residuals of the cp1 tags at 2j = 5, the nine maps
    of CP^2 and the sixteen of CP^3, plus the Monte Carlo resolution of unity
    on CP^1, CP^2 and CP^3, for SPEC_A, SPEC_B and SPEC_A again."""
    chunks = []

    def add(state, residual):
        chunks.append(state.amplitudes.tobytes())
        chunks.append(struct.pack("<d", residual))

    for spec in (SPEC_A, SPEC_B, SPEC_A):
        for flat in cp1_catalog():
            add(*fivel_bell(flat, spec, two_j=5))
        chunks.append(struct.pack("<d", resolution_of_unity_mc(1, spec)))
        for n in (2, 3):
            for flat in cpn_catalog(n):
                add(*fivel_bell(flat, spec))
            chunks.append(struct.pack("<d", resolution_of_unity_mc(n, spec)))
    return b"".join(chunks)


def test_monte_carlo_output_matches_golden_hash(monkeypatch):
    monkeypatch.setattr(bell, "_last_draw", None)
    digest = hashlib.sha256(mc_digest_bytes()).hexdigest()
    assert digest == MC_GOLDEN_SHA256


# --- the entry that keeps the most recent draw ----------------------------------


@pytest.fixture
def draws(monkeypatch):
    """Starts from an empty entry and counts the draws bell makes."""
    monkeypatch.setattr(bell, "_last_draw", None)
    specs = []
    original = bell.sample_fubini_study

    def counting(n, spec):
        specs.append(spec)
        return original(n, spec)

    monkeypatch.setattr(bell, "sample_fubini_study", counting)
    return specs


@pytest.mark.parametrize("flat, two_j", [(FlatMapId.cp1(4), 5), (FlatMapId.cpn(3, 1, 2), None)])
def test_a_hit_is_bitwise_equal_to_a_miss(flat, two_j, draws):
    miss, miss_residual = fivel_bell(flat, SPEC_A, two_j=two_j)
    hit, hit_residual = fivel_bell(flat, SPEC_A, two_j=two_j)
    assert len(draws) == 1
    assert hit.amplitudes.tobytes() == miss.amplitudes.tobytes()
    assert hit_residual == miss_residual


def test_cached_states_equal_a_fresh_draw(draws):
    from bellforge.coherent import level_one_states_from_homogeneous, spin_states_from_homogeneous
    from bellforge.quadrature import sample_fubini_study

    level_one = level_one_states_from_homogeneous(sample_fubini_study(3, SPEC_A))
    spin = spin_states_from_homogeneous(5, sample_fubini_study(1, SPEC_A))
    for _ in range(2):
        assert np.array_equal(bell._mc_states("cpn", 4, SPEC_A), level_one)
        assert np.array_equal(bell._mc_states("cp1", 6, SPEC_A), spin)
    assert len(draws) == 4


def test_a_change_of_seed_samples_spin_or_space_is_a_miss(draws):
    spec = MCSpec(samples=500, seed=1)
    calls = [
        (lambda: fivel_bell(FlatMapId.cp1(1), spec, two_j=1), 1),
        (lambda: fivel_bell(FlatMapId.cp1(3), spec, two_j=1), 1),  # another map: a hit
        (lambda: fivel_bell(FlatMapId.cp1(3), spec, two_j=2), 2),  # 2j
        (lambda: fivel_bell(FlatMapId.cp1(3), MCSpec(samples=500, seed=2), two_j=2), 3),  # seed
        (lambda: fivel_bell(FlatMapId.cp1(3), MCSpec(samples=501, seed=2), two_j=2), 4),  # samples
        (lambda: fivel_bell(FlatMapId.cp1(1), spec, two_j=1), 5),
        (lambda: fivel_bell(FlatMapId.cpn(1, 0, 1), spec), 6),  # same rows and dim, other space
        (lambda: resolution_of_unity_mc(1, spec), 6),  # the same level-one states
        (lambda: resolution_of_unity_mc(2, spec), 7),
    ]
    for step, (call, expected) in enumerate(calls):
        call()
        assert len(draws) == expected, f"step {step}"


def test_the_previous_entry_is_released_before_the_next_draw(monkeypatch):
    monkeypatch.setattr(bell, "_last_draw", None)
    fivel_bell(FlatMapId.cpn(2, 0, 0), SPEC_A)
    previous = weakref.ref(bell._last_draw[1])
    alive_at_draw = []
    original = bell.sample_fubini_study

    def sampler(n, spec):
        alive_at_draw.append(previous() is not None)
        return original(n, spec)

    monkeypatch.setattr(bell, "sample_fubini_study", sampler)
    fivel_bell(FlatMapId.cpn(2, 0, 0), SPEC_B)
    assert alive_at_draw == [False]


def test_the_cached_states_are_read_only(draws):
    states = bell._mc_states("cpn", 3, SPEC_A)
    assert not states.flags.writeable
    with pytest.raises(ValueError):
        states[0, 0] = 0.0
    assert bell._mc_states("cpn", 3, SPEC_A) is states


def test_threads_sharing_the_entry_get_the_states_of_their_own_spec(monkeypatch):
    """Four threads, on fewer cores, alternate between two specs with a short
    switch interval; a thread that saw one spec's key with another spec's
    states would return another spec's amplitudes."""
    monkeypatch.setattr(bell, "_last_draw", None)
    specs = (MCSpec(samples=2000, seed=21), MCSpec(samples=2000, seed=22))
    flat = FlatMapId.cpn(3, 1, 2)
    expected = {spec: fivel_bell(flat, spec)[0].amplitudes.tobytes() for spec in specs}
    mismatches, errors = [], []

    def worker(offset):
        try:
            for i in range(60):
                spec = specs[(i + offset) % 2]
                if fivel_bell(flat, spec)[0].amplitudes.tobytes() != expected[spec]:
                    mismatches.append((offset, i))
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []
