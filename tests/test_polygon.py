import math

import numpy as np
import pytest

from polybell.core import validate_model
from polybell.polygon import max_entangled, polygon, polygon_radius

# Frozen radius oracle: r_n = sqrt(1 / cos(pi/n)), computed independently
# with sympy at 40 digits and rounded to double.
RADIUS_ORACLE = {
    3: 1.4142135623730951,
    4: 1.189207115002721,
    5: 1.1117859405028423,
    6: 1.074569931823542,
    8: 1.040380795811031,
    12: 1.0174852236814464,
}


@pytest.mark.parametrize("n,expected", sorted(RADIUS_ORACLE.items()))
def test_polygon_radius_frozen_values(n, expected):
    assert polygon_radius(n) == pytest.approx(expected, abs=1e-15)


def test_polygon_radius_decreases_to_one():
    radii = [polygon_radius(n) for n in range(3, 40)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert radii[-1] > 1.0


@pytest.mark.parametrize("n", range(3, 20))
def test_polygon_validates(n):
    report = validate_model(polygon(n))
    assert report.ok, report.summary()


def test_polygon_rejects_small_n():
    with pytest.raises(ValueError):
        polygon(2)


@pytest.mark.parametrize("n", [2, 0, -3, np.int64(2)])
def test_small_vertex_counts_keep_their_message(n):
    # the CLI prints this text for `polygon --n 2`
    for build in (polygon, polygon_radius, max_entangled):
        with pytest.raises(ValueError, match="^polygon models need at least 3 vertices$"):
            build(n)


@pytest.mark.parametrize("n", [8.0, 7.0, 7.5, np.float64(7.0), True, False, np.bool_(True),
                               "7", None], ids=repr)
def test_vertex_count_must_be_an_integer(n):
    # 8.0 used to build "polygon-8.0", and 7.0 to fail inside numpy
    for build in (polygon, polygon_radius, max_entangled):
        with pytest.raises(ValueError, match="^polygon vertex count must be an integer, got "):
            build(n)


@pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint16, np.intp])
def test_numpy_integer_vertex_counts_build_the_int_model(kind):
    for n in (3, 7, 8):
        model, expected = polygon(kind(n)), polygon(n)
        assert model.name == expected.name == f"polygon-{n}"
        for name in ("extremal_states", "extremal_effects", "unit_effect", "ray_extremal"):
            assert getattr(model, name).tobytes() == getattr(expected, name).tobytes()
        assert polygon_radius(kind(n)) == polygon_radius(n)
        assert max_entangled(kind(n)).matrix.tobytes() == max_entangled(n).matrix.tobytes()


def test_square_first_state_coordinates():
    # first vertex sits at angle 2*pi/4, i.e. straight up
    m = polygon(4)
    np.testing.assert_allclose(
        m.extremal_states[0], [0.0, 2.0 ** 0.25, 1.0], atol=1e-15)


def test_state_angles_are_uniform():
    m = polygon(7)
    angles = np.arctan2(m.extremal_states[:, 1], m.extremal_states[:, 0])
    gaps = np.diff(np.sort(angles))
    np.testing.assert_allclose(gaps, 2 * np.pi / 7, atol=1e-12)


def test_odd_effects_are_scaled_states():
    m = polygon(5)
    r2 = polygon_radius(5) ** 2
    np.testing.assert_allclose(
        m.extremal_effects[:5], m.extremal_states / (1.0 + r2), atol=1e-15)


def test_odd_effect_complements_stored_not_ray_extremal():
    m = polygon(7)
    assert m.n_effects == 14
    assert m.ray_extremal.tolist() == [True] * 7 + [False] * 7
    u = m.unit_effect
    np.testing.assert_allclose(
        m.extremal_effects[7:], u - m.extremal_effects[:7], atol=1e-15)


def test_even_effects_all_ray_extremal():
    m = polygon(6)
    assert m.n_effects == 6
    assert m.ray_extremal.all()


def test_even_complement_is_opposite_effect():
    for n in (4, 6, 8, 10):
        m = polygon(n)
        for i in range(n):
            c = m.unit_effect - m.extremal_effects[i]
            np.testing.assert_allclose(c, m.extremal_effects[(i + n // 2) % n], atol=1e-12)


def test_probability_range_is_tight():
    # extreme pairings reach exactly 0 and 1 for even n, and
    # [ (1 - r^2(r^2-1)) / (1+r^2), 1 ] ... for odd n just check [0, 1]
    for n in (4, 5, 6, 9):
        m = polygon(n)
        p = m.extremal_effects @ m.extremal_states.T
        assert p.min() >= -1e-12
        assert p.max() <= 1.0 + 1e-12
        assert p.max() == pytest.approx(1.0, abs=1e-12)


def test_even_probability_cosine_law():
    n = 8
    m = polygon(n)
    r2 = polygon_radius(n) ** 2
    for i in range(n):
        for j in range(n):
            alpha = 2 * math.pi * (j + 1) / n
            beta = (2 * (i + 1) - 1) * math.pi / n
            want = 0.5 * (1.0 + r2 * math.cos(alpha - beta))
            got = float(m.extremal_effects[i] @ m.extremal_states[j])
            assert got == pytest.approx(want, abs=1e-12)


def test_max_entangled_collapse_property():
    # measuring effect e_i on one side collapses the other side onto omega_i
    for n in (5, 6):
        st = max_entangled(n)
        m = st.model_a
        for i in range(n):
            conditional = st.matrix.T @ m.extremal_effects[i]
            w = m.extremal_states[i]
            scale = conditional[2]
            assert scale > 0
            np.testing.assert_allclose(conditional, scale * w, atol=1e-12)


def test_max_entangled_odd_is_identity():
    st = max_entangled(9)
    np.testing.assert_allclose(st.matrix, np.eye(3), atol=0)


def test_max_entangled_even_block_rotation():
    n = 6
    st = max_entangled(n)
    c, s = math.cos(math.pi / n), math.sin(math.pi / n)
    want = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(st.matrix, want, atol=1e-15)


def test_joint_probability_closed_forms():
    # even n: quarter law; odd n: shifted cosine law
    n = 8
    st = max_entangled(n)
    m = st.model_a
    r2 = polygon_radius(n) ** 2
    for i in range(n):
        for j in range(n):
            alpha = 2 * math.pi * (i + 1) / n
            beta = (2 * (j + 1) - 1) * math.pi / n
            want = 0.25 * (1.0 + r2 * math.cos(alpha - beta))
            got = m.extremal_effects[i] @ st.matrix @ m.extremal_effects[j]
            assert got == pytest.approx(want, abs=1e-12)

    n = 7
    st = max_entangled(n)
    m = st.model_a
    r2 = polygon_radius(n) ** 2
    for i in range(n):
        for j in range(n):
            want = (1.0 + r2 * math.cos(2 * math.pi * (i - j) / n)) / (1.0 + r2) ** 2
            got = m.extremal_effects[i] @ st.matrix @ m.extremal_effects[j]
            assert got == pytest.approx(want, abs=1e-12)


def _disc_points_reference(radius, angles, height):
    return np.column_stack([
        radius * np.cos(angles),
        radius * np.sin(angles),
        np.full(angles.shape, height),
    ])


def polygon_arrays_reference(n: int) -> dict[str, np.ndarray]:
    """The arrays ``polygon(n)`` and ``max_entangled(n)`` hold, built as they
    were before the vertex and effect arrays were filled in place."""
    r = polygon_radius(n)
    labels = np.arange(1, n + 1, dtype=float)
    states = _disc_points_reference(r, 2.0 * np.pi * labels / n, 1.0)
    unit = np.array([0.0, 0.0, 1.0])
    if n % 2 == 0:
        effects = 0.5 * _disc_points_reference(r, (2.0 * labels - 1.0) * np.pi / n, 1.0)
        ray_flags = np.ones(n, dtype=bool)
        c, s = np.cos(np.pi / n), np.sin(np.pi / n)
        matrix = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    else:
        scale = 1.0 / (1.0 + r * r)
        rays = scale * _disc_points_reference(r, 2.0 * np.pi * labels / n, 1.0)
        effects = np.vstack([rays, unit - rays])
        ray_flags = np.concatenate([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
        matrix = np.eye(3)
    return {"extremal_states": states, "extremal_effects": effects, "unit_effect": unit,
            "ray_extremal": ray_flags, "ray_effects": effects[ray_flags], "matrix": matrix}


@pytest.mark.parametrize("sizes", [range(3, 101), range(101, 201), range(201, 301),
                                   (1023, 1024, 2047, 2048)],
                         ids=["3-100", "101-200", "201-300", "large"])
def test_polygon_arrays_are_bytewise_the_reference(sizes):
    for n in sizes:
        state = max_entangled(n)
        model = state.model_a
        assert state.model_b is model
        got = {name: getattr(model, name) for name in
               ("extremal_states", "extremal_effects", "unit_effect", "ray_extremal",
                "ray_effects")}
        got["matrix"] = state.matrix
        built = polygon(n)
        for name, want in polygon_arrays_reference(n).items():
            arrays = [got[name]] if name == "matrix" else [got[name], getattr(built, name)]
            for array in arrays:
                assert array.dtype == want.dtype, (n, name)
                assert array.shape == want.shape, (n, name)
                assert array.tobytes() == want.tobytes(), (n, name)


@pytest.mark.parametrize("n", [4, 7])
def test_ray_effects_are_read_only_and_kept(n):
    model = polygon(n)
    rays = model.ray_effects
    assert rays is model.ray_effects
    assert not rays.flags.writeable
    with pytest.raises(ValueError):
        rays[0, 0] = 0.0
    # the model's arrays stay as built
    assert rays.tobytes() == model.extremal_effects[model.ray_extremal].tobytes()
