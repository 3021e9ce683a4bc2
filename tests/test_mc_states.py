"""Monte Carlo output, pinned bit for bit, and the entry that keeps the
contraction operands of the most recent draw."""

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

# sha256 of mc_digest_bytes(), with numpy 2.4.6 and OpenBLAS 0.3.31 on
# x86-64. First recorded before the Monte Carlo states were kept between
# calls; recorded again when global_unitary began to build each cpn map from
# its phases omega^(pk) rather than from the product shift^q clock^p, which
# moved the CP^2 amplitudes with p >= 1 by at most 1.7e-16. The bytes depend
# on libm and on the BLAS summation order; a different build may change the
# last bits, and then the hash has to be recorded again from code that draws
# afresh on every call. Run this file as a script to print the current hash.
MC_GOLDEN_SHA256 = "853d5dc30f5be97ed3517bf9a8116fac3b1d1740f50b258144779a191907afe9"


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
        for space, states in (("cpn", level_one), ("cp1", spin)):
            dim = states.shape[1]
            weighted, conj = bell._weighted_states(space, dim, SPEC_A)
            assert weighted.tobytes("A") == ((dim / SPEC_A.samples) * states.T).tobytes("A")
            assert conj.tobytes() == states.conj().tobytes()
    assert len(draws) == 4


def test_the_operands_take_two_complex_arrays_of_the_samples(draws):
    # the README figure: 2 x samples x dim x 16 bytes, 128 MB at 1,000,000 samples on CP^3
    operands = bell._weighted_states("cpn", 4, SPEC_A)
    assert sum(a.nbytes for a in operands) == 2 * SPEC_A.samples * 4 * 16


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
    previous = [weakref.ref(operand) for operand in bell._last_draw[1]]
    alive_at_draw = []
    original = bell.sample_fubini_study

    def sampler(n, spec):
        alive_at_draw.append([ref() is not None for ref in previous])
        return original(n, spec)

    monkeypatch.setattr(bell, "sample_fubini_study", sampler)
    fivel_bell(FlatMapId.cpn(2, 0, 0), SPEC_B)
    assert alive_at_draw == [[False, False]]


def test_the_cached_states_are_read_only(draws):
    operands = bell._weighted_states("cpn", 3, SPEC_A)
    for operand in operands:
        assert not operand.flags.writeable
        with pytest.raises(ValueError):
            operand[0, 0] = 0.0
    again = bell._weighted_states("cpn", 3, SPEC_A)
    assert all(a is b for a, b in zip(again, operands, strict=True))


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


if __name__ == "__main__":
    # a deliberate re-record: PYTHONPATH=src python tests/test_mc_states.py
    print(f"recorded MC_GOLDEN_SHA256: {MC_GOLDEN_SHA256}")
    print(f"current  MC_GOLDEN_SHA256: {hashlib.sha256(mc_digest_bytes()).hexdigest()}")
