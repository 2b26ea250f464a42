import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybell.bipartite import (
    JointState,
    in_max_tensor_product,
    is_extremal,
    is_inner_product_state,
    local_positivity_margin,
    normalization,
    pull_back_measurement,
    push_local_map,
)
from polybell.core import ModelSpec, dichotomic_measurement, simplex_model
from polybell.correlations import correlations_from_state
from polybell.polygon import max_entangled, polygon
from polybell.selfdual import rotation_about_axis

from helpers import product_state, random_extremal_joint_state


@pytest.mark.parametrize("n", list(range(3, 17)) + [32, 64])
def test_max_entangled_membership(n):
    st_ = max_entangled(n)
    assert normalization(st_) == pytest.approx(1.0, abs=1e-12)
    assert local_positivity_margin(st_) >= -1e-12
    assert in_max_tensor_product(st_)


def test_product_states_are_members_and_extremal():
    m = polygon(5)
    for i in range(5):
        for j in range(5):
            ps = product_state(m, m, m.extremal_states[i], m.extremal_states[j])
            assert in_max_tensor_product(ps)
            assert is_extremal(ps)


def test_triangle_state_is_separable_mixture():
    st_ = max_entangled(3)
    m = st_.model_a
    mixture = sum(np.outer(w, w) for w in m.extremal_states) / 3.0
    np.testing.assert_allclose(st_.matrix, mixture, atol=1e-12)
    assert not is_extremal(st_)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_max_entangled_extremal_beyond_triangle(n):
    assert is_extremal(max_entangled(n))


def test_is_extremal_rejects_nonmembers():
    m = polygon(4)
    bad = JointState(np.diag([5.0, 5.0, 1.0]), m, m)
    with pytest.raises(ValueError):
        is_extremal(bad)


def test_midpoint_of_vertices_not_extremal():
    m = polygon(6)
    rng = np.random.default_rng(11)
    a = random_extremal_joint_state(m, rng)
    b = random_extremal_joint_state(m, rng)
    assert np.abs(a.matrix - b.matrix).max() > 1e-6
    mid = JointState((a.matrix + b.matrix) / 2.0, m, m)
    assert is_extremal(a)
    assert is_extremal(b)
    assert not is_extremal(mid)


@pytest.mark.parametrize("n", range(3, 13))
def test_inner_product_iff_odd(n):
    report = is_inner_product_state(max_entangled(n))
    assert report.is_inner_product == (n % 2 == 1)
    if n % 2 == 0:
        # even matrices are rotations: symmetric part is fine, asymmetry is not
        assert report.asymmetry > 1e-3


def test_inner_product_classical_diagonal():
    tri = simplex_model(3)
    st_ = JointState(np.diag([0.5, 0.3, 0.2]), tri, tri)
    assert is_inner_product_state(st_).is_inner_product


def test_inner_product_requires_similar_models():
    st_ = JointState(np.eye(3), polygon(5), polygon(7))
    for tol in (None, 0.0, 1.0, 1e300, None):
        with pytest.raises(ValueError, match="similar"):
            is_inner_product_state(st_, tol)


# The verdict is taken against each call's tol from numbers kept on the
# state: one state object, tol just above then just below the margin (and
# the other way round on a fresh object), so the first tol is never frozen.
def flip_orders(margin):
    above, below = margin * (1 + 1e-6), margin * (1 - 1e-6)
    return [(above, True), (below, False), (above, True)], \
        [(below, False), (above, True), (below, False)]


def test_symmetry_verdict_follows_tol():
    tri = simplex_model(3)
    a = 1e-4
    matrix = np.diag([0.5, 0.3, 0.2])
    matrix[0, 1] = a
    for order in flip_orders(a):
        st_ = JointState(matrix, tri, tri)
        for tol, expected in order:
            report = is_inner_product_state(st_, tol)
            assert report.asymmetry == a
            assert report.symmetric is expected
            assert report.is_inner_product is expected


def test_model_gap_verdict_follows_tol():
    tri = simplex_model(3)
    gap = 3e-7
    effects = np.eye(3)
    effects[0, 1] = gap
    near = ModelSpec("near", 3, tri.extremal_states, effects, tri.unit_effect)
    for order in flip_orders(gap):
        st_ = JointState(np.diag([0.5, 0.3, 0.2]), tri, near)
        for tol, similar in order:
            if similar:
                report = is_inner_product_state(st_, tol)
                assert report.model_gap == gap
                assert report.is_inner_product
            else:
                with pytest.raises(ValueError, match="similar"):
                    is_inner_product_state(st_, tol)


def test_psd_verdict_follows_tol():
    tri = simplex_model(3)
    matrix = np.diag([0.5, 0.3, -1e-5])
    # the lowest eigenvalue against the larger end of the spectrum in size
    margin = 1e-5 / 0.5
    for order in flip_orders(margin):
        st_ = JointState(matrix, tri, tri)
        for tol, expected in order:
            report = is_inner_product_state(st_, tol)
            assert report.min_eigenvalue == pytest.approx(-1e-5, rel=1e-12)
            assert report.symmetric
            assert report.psd is expected


def test_push_local_map_identity_and_rotation():
    st_ = max_entangled(8)
    same = push_local_map(st_, np.eye(3))
    np.testing.assert_allclose(same.matrix, st_.matrix, atol=0)
    rotated = push_local_map(st_, rotation_about_axis(2 * np.pi / 8))
    assert in_max_tensor_product(rotated)


def test_push_local_map_rejects_cone_breaker():
    st_ = max_entangled(6)
    with pytest.raises(ValueError, match="cone"):
        push_local_map(st_, rotation_about_axis(np.pi / 6))


def test_push_local_map_rejects_non_unital():
    st_ = max_entangled(6)
    with pytest.raises(ValueError):
        push_local_map(st_, 0.9 * np.eye(3))


def _near_unital(d: float) -> np.ndarray:
    # halfway to the maximally mixed state, plus d at (2, 0): the unit
    # (0, 0, 1) maps to (d, 0, 1) exactly, and the cone maps well inside itself
    tau = np.diag([0.5, 0.5, 1.0])
    tau[2, 0] = d
    return tau


def test_push_local_map_unit_check_flips_at_tol():
    st_ = max_entangled(7)
    for tol in (1e-12, 1e-9, 1e-6, 1e-3):
        for factor, accepted in ((1 - 1e-6, True), (1 + 1e-6, False), (1.0, True)):
            tau = _near_unital(tol * factor)
            if accepted:
                assert push_local_map(st_, tau, tol).matrix.shape == (3, 3)
            else:
                with pytest.raises(ValueError, match="unit functional"):
                    push_local_map(st_, tau, tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_push_local_map_rejects_a_non_finite_map_at_the_unit_check(bad):
    st_ = max_entangled(7)
    for row, col in ((2, 0), (0, 0), (1, 2)):
        tau = _near_unital(0.0)
        tau[row, col] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unit functional"):
            push_local_map(st_, tau)


def test_adjoint_effect_duality():
    # a pulled-back effect is the adjoint tau^T e: (tau^T e) . omega == e . (tau omega)
    m = polygon(7)
    tau = rotation_about_axis(2 * np.pi / 7)
    for i in range(7):
        meas = dichotomic_measurement(m, i)
        pulled = pull_back_measurement(tau, meas)
        for e, f in zip(meas.effects, pulled.effects):
            for w in m.extremal_states:
                assert float(f @ w) == pytest.approx(float(e @ (tau @ w)), abs=1e-14)


def test_joint_probability_matches_pairing():
    # a table entry is the joint probability e_A^T M e_B of its two effects
    st_ = max_entangled(6)
    meas = [dichotomic_measurement(st_.model_a, i) for i in (0, 3)]
    table = correlations_from_state(st_, meas, meas)
    for x, y, a, b in itertools.product(range(2), repeat=4):
        want = float(meas[x].effects[a] @ st_.matrix @ meas[y].effects[b])
        assert table.probs[a, b, x, y] == pytest.approx(want, abs=1e-15)


def test_pull_back_shifts_even_ray_effects():
    n = 6
    m = polygon(n)
    tau = rotation_about_axis(2 * np.pi / n)
    for i in range(n):
        pulled = pull_back_measurement(tau, dichotomic_measurement(m, i))
        np.testing.assert_allclose(
            pulled.effects[0], m.extremal_effects[(i - 1) % n], atol=1e-12)


def test_joint_state_shape_check():
    m = polygon(4)
    with pytest.raises(ValueError):
        JointState(np.eye(2), m, m)


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   min_size=2, max_size=5),
)
def test_mixtures_of_products_stay_members(weights, picks):
    m = polygon(5)
    k = min(len(weights), len(picks))
    w = np.array(weights[:k])
    w /= w.sum()
    matrix = sum(
        wi * np.outer(m.extremal_states[i], m.extremal_states[j])
        for wi, (i, j) in zip(w, picks[:k])
    )
    st_ = JointState(matrix, m, m)
    assert in_max_tensor_product(st_)
    assert local_positivity_margin(st_) >= -1e-12
