import numpy as np

from bellforge import projector_of


def unit(coords):
    return coords / np.linalg.norm(coords)


def test_projector_of_basis_state():
    p = projector_of(np.array([1.0, 0.0]))
    assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-15)


def test_projector_of_equal_weight():
    p = projector_of(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(p, np.full((2, 2), 0.5), atol=1e-15)


def test_projector_of_circular():
    p = projector_of(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(p, expected, atol=1e-15)


def test_projector_properties_random_points():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.integers(1, 4)
        coords = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        p = projector_of(unit(coords))
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12


def test_projector_is_chart_independent():
    rng = np.random.default_rng(11)
    for _ in range(100):
        coords = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        # the affine chart where coordinate `chart` is 1 rescales the coordinates
        projectors = [projector_of(unit(coords / coords[chart])) for chart in range(3)]
        for p in projectors[1:]:
            assert np.linalg.norm(projectors[0] - p) < 1e-12
