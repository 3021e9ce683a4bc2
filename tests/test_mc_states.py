"""Monte Carlo output, pinned bit for bit; the entry that keeps the states of
the most recent draw; and the draw and contraction in blocks of rows."""

import hashlib
import struct
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from bellforge import FlatMapId, MCSpec, bell, fivel_bell, quadrature, resolution_of_unity_mc
from bellforge.coherent import coherent_states
from bellforge.flatmaps import cp1_catalog, cpn_catalog, global_unitary
from bellforge.quadrature import sample_fubini_study

# Two specs, run in the order A, B, A: the first map of each block draws, the
# rest of the block reuses that draw, and the last block draws A again.
SPEC_A = MCSpec(samples=20_000, seed=11)
SPEC_B = MCSpec(samples=20_000, seed=12)

# sha256 of mc_digest_bytes(), with numpy 2.4.6 and OpenBLAS 0.3.31 on
# x86-64. First recorded before the Monte Carlo states were kept between
# calls; recorded again when global_unitary began to build each cpn map from
# its phases omega^(pk) rather than from the product shift^q clock^p, which
# moved the CP^2 amplitudes with p >= 1 by at most 1.7e-16; and recorded
# again when the contraction began to sum the samples in blocks of rows, which
# moved the amplitudes by at most 3.4e-16; and recorded again when the
# contraction became two real matrix products per block over the float64 view
# of the states, which moved the amplitudes by at most 7.8e-16. The bytes depend
# on libm and on the BLAS summation order; a different build may change the
# last bits, and then the hash has to be recorded again from code that draws
# afresh on every call. Run this file as a script to print the current hash.
MC_GOLDEN_SHA256 = "24e4e7e4aa7a63eb6eb482211ff1b5e0f2884e52c91bf35cda3f7946da19dc73"


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
    original = bell._draw

    def counting(n, spec, width, evaluate):
        specs.append(spec)
        return original(n, spec, width, evaluate)

    monkeypatch.setattr(bell, "_draw", counting)
    return specs


@pytest.mark.parametrize("flat, two_j", [(FlatMapId.cp1(4), 5), (FlatMapId.cpn(3, 1, 2), None)])
def test_a_hit_is_bitwise_equal_to_a_miss(flat, two_j, draws):
    miss, miss_residual = fivel_bell(flat, SPEC_A, two_j=two_j)
    hit, hit_residual = fivel_bell(flat, SPEC_A, two_j=two_j)
    assert len(draws) == 1
    assert hit.amplitudes.tobytes() == miss.amplitudes.tobytes()
    assert hit_residual == miss_residual


def one_shot_rows(n, spec):
    """The draw of sample_fubini_study taken at once, written out here."""
    u = np.random.Generator(np.random.PCG64(spec.seed)).random((spec.samples, n + 1, 2))
    return np.sqrt(-np.log1p(-u[..., 0])) * np.exp(2.0 * np.pi * 1j * u[..., 1])


# 10,001 is not a multiple of any block: 8192 rows of 2 entries, 4096 of 4, 2730 of 6
SPEC_ODD = MCSpec(samples=10_001, seed=31)


@pytest.mark.parametrize("n", [1, 3])
def test_the_blocked_draw_equals_one_draw_of_all_the_samples(n):
    assert quadrature._block_rows(n + 1) < SPEC_ODD.samples
    rows = sample_fubini_study(n, SPEC_ODD)
    assert rows.shape == (SPEC_ODD.samples, n + 1)
    assert rows.tobytes() == one_shot_rows(n, SPEC_ODD).tobytes()


def test_cached_states_equal_a_fresh_draw(draws):
    for space, n, two_j in (("cp1", 1, 5), ("cpn", 3, 1)):
        dim = two_j + 1 if space == "cp1" else n + 1
        fresh = coherent_states(space, sample_fubini_study(n, SPEC_ODD), two_j)
        for _ in range(2):
            states, weight = bell._points(space, dim, SPEC_ODD)
            assert states.tobytes() == fresh.tobytes()
            assert weight == dim / SPEC_ODD.samples
    assert len(draws) == 2


def test_the_entry_holds_one_complex_array_of_the_samples(draws):
    # the README figure: samples x dim x 16 bytes, 64 MB at 1,000,000 samples on CP^3
    fivel_bell(FlatMapId.cpn(3, 1, 2), SPEC_A)
    key, states = bell._last_draw
    assert key == ("cpn", 4, SPEC_A)
    assert isinstance(states, np.ndarray) and states.base is None
    assert states.nbytes == SPEC_A.samples * 4 * 16


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
    original = bell._draw

    def drawing(*args):
        alive_at_draw.append(previous() is not None)
        return original(*args)

    monkeypatch.setattr(bell, "_draw", drawing)
    fivel_bell(FlatMapId.cpn(2, 0, 0), SPEC_B)
    assert alive_at_draw == [False]


def test_the_cached_states_are_read_only(draws):
    states, _ = bell._points("cpn", 3, SPEC_A)
    assert not states.flags.writeable
    with pytest.raises(ValueError):
        states[0, 0] = 0.0
    again, _ = bell._points("cpn", 3, SPEC_A)
    assert again is states


def hit_peak_bytes(spec) -> int:
    """tracemalloc peak of one fivel_bell call that finds its draw in the entry."""
    flat = FlatMapId.cpn(3, 1, 2)
    fivel_bell(flat, spec)
    tracemalloc.start()
    try:
        fivel_bell(flat, spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_memory_of_a_hit_does_not_grow_with_the_samples(monkeypatch):
    monkeypatch.setattr(bell, "_last_draw", None)
    small = hit_peak_bytes(MCSpec(samples=50_000, seed=3))
    large = hit_peak_bytes(MCSpec(samples=200_000, seed=3))
    # one block buffer of 4096 x 8 floats and a few 8 x 8 matrices
    assert large <= (1 << 18) + 16384
    assert abs(large - small) <= 4096
    # one samples x dim array of the 200,000-row draw would be 12.8 MB
    assert large < 200_000 * 4 * 16 // 10


def contraction_case(twisted, rng):
    """(states, u) for the contraction test: a frame operator (False) or a
    catalog map (True) on a C-ordered array of dimension 3, or one of the
    named cases, each twisted."""
    dim = 1 if twisted == "at d = 1" else 3
    rows = quadrature._block_rows(dim) * 2 + 17
    states = rng.normal(size=(2 * rows, dim)) + 1j * rng.normal(size=(2 * rows, dim))
    states = states[::2] if twisted == "row-strided" else states[:rows]
    if twisted == "Fortran-ordered":
        states = np.asfortranarray(states)
    if twisted == "by a dense unitary":
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        assert np.all(np.abs(u) > 0)  # no monomial structure to lean on
    elif twisted == "at d = 1":
        u = np.array([[np.exp(0.7j)]])
    else:
        u = global_unitary(FlatMapId.cpn(2, 1, 2), 3) if twisted else None
    return states, u


@pytest.mark.parametrize("weights", ["scalar", "per row"])
@pytest.mark.parametrize(
    "twisted", [False, True, "by a dense unitary", "at d = 1", "row-strided", "Fortran-ordered"]
)
def test_the_blocked_contraction_equals_one_product(weights, twisted):
    rng = np.random.default_rng(4)
    states, u = contraction_case(twisted, rng)
    rows, dim = states.shape
    assert states.flags.c_contiguous == (twisted not in ("row-strided", "Fortran-ordered"))
    w = 0.5 if weights == "scalar" else rng.random(rows)
    right = states.conj() if u is None else states.conj() @ u.T
    want = (np.reshape(w, (-1, 1)) * states).T @ right
    got = bell._contract(states, w, u)
    assert got.shape == (dim, dim)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
