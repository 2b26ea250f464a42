import itertools
import math

import numpy as np
import pytest

from polybell import selfdual
from polybell.bipartite import in_max_tensor_product, is_inner_product_state
from polybell.core import ModelSpec
from polybell.house import house_model
from polybell.polygon import max_entangled, polygon
from polybell.selfdual import (
    certain_state_counts,
    find_cone_isomorphisms,
    induced_state_symmetries,
    is_strongly_self_dual,
    random_extremal_joint_state,
    rotation_about_axis,
    state_from_isomorphism,
)


def _key(t: np.ndarray) -> tuple:
    return tuple(np.round(t, 8).ravel())


def solve_candidate_reference(effects, states, perm, tol):
    """Per-candidate solve over every ray: one SVD of the 3k x (9 + k) system.

    Reference for the library's frame solve. Unknowns are vec T and one
    scale per ray; a null space wider than one is re-solved with all scales
    tied together (simplicial cones).
    """
    k, d = effects.shape
    rows = []
    for i in range(k):
        block = np.zeros((d, d * d + k))
        for r in range(d):
            block[r, r * d:(r + 1) * d] = effects[i]
        block[:, d * d + i] = -states[perm[i]]
        rows.append(block)
    a = np.vstack(rows)

    def null_space(mat):
        _, sv, vt = np.linalg.svd(mat)
        cutoff = max(sv[0], 1.0) * 1e-10 if sv.size else 0.0
        n_null = mat.shape[1] - np.count_nonzero(sv > cutoff)
        return vt[mat.shape[1] - n_null:]

    basis = null_space(a)
    if basis.shape[0] > 1:
        ties = np.zeros((k - 1, d * d + k))
        for i in range(k - 1):
            ties[i, d * d + i] = 1.0
            ties[i, d * d + i + 1] = -1.0
        basis = null_space(np.vstack([a, ties]))
    if basis.shape[0] != 1:
        return None

    vec = basis[0]
    scales = vec[d * d:]
    if np.all(scales < 0):
        vec = -vec
        scales = vec[d * d:]
    elif not np.all(scales > 0):
        return None
    t = vec[:d * d].reshape(d, d)
    norm = np.linalg.norm(t)
    if norm < tol or np.min(scales) < tol * norm:
        return None
    t = t / norm
    scales = scales / norm
    residual = np.abs(effects @ t.T - scales[:, None] * states[perm]).max()
    if residual > 1e-9 or abs(np.linalg.det(t)) < 1e-9:
        return None
    return t


def find_cone_isomorphisms_reference(model, tol=1e-9, exhaustive=False):
    """The dihedral (or exhaustive) search, one reference solve per candidate."""
    effects, states = model.ray_effects, model.extremal_states
    k = effects.shape[0]
    if exhaustive:
        candidates = (np.array(p) for p in itertools.permutations(range(k)))
    else:
        effect_order = np.argsort(np.arctan2(effects[:, 1], effects[:, 0]), kind="stable")
        state_order = np.argsort(np.arctan2(states[:, 1], states[:, 0]), kind="stable")
        candidates = []
        for offset in range(k):
            for flip in (1, -1):
                perm = np.empty(k, dtype=int)
                perm[effect_order] = state_order[(offset + flip * np.arange(k)) % k]
                candidates.append(perm)
    found = {}
    for perm in candidates:
        t = solve_candidate_reference(effects, states, perm, tol)
        if t is not None:
            found.setdefault(_key(t), t)
    return [found[key] for key in sorted(found)]


def square_pyramid_model() -> ModelSpec:
    """Four-dimensional cone over a square pyramid (no frame in general position)."""
    states = np.array([
        [1.0, 1.0, 0.0, 1.0], [-1.0, 1.0, 0.0, 1.0], [-1.0, -1.0, 0.0, 1.0],
        [1.0, -1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0],
    ])
    facets = np.array([
        [0.0, 0.0, 1.0, 0.0], [-1.0, 0.0, -1.0, 1.0], [1.0, 0.0, -1.0, 1.0],
        [0.0, -1.0, -1.0, 1.0], [0.0, 1.0, -1.0, 1.0],
    ])
    effects = facets / 2.0
    return ModelSpec("square-pyramid", 4, states, effects, np.array([0.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("model", [polygon(n) for n in range(3, 65)] + [house_model()],
                         ids=lambda m: m.name)
def test_search_matches_reference_solve(model):
    expected = find_cone_isomorphisms_reference(model)
    found = find_cone_isomorphisms(model)
    assert len(found) == len(expected)
    for x, y in zip(found, expected):
        assert np.abs(x - y).max() <= 1e-12
    strong, witness = is_strongly_self_dual(model)
    expected_witness = next(
        (t for t in expected if np.abs(t - t.T).max() <= 1e-9
         and np.linalg.eigvalsh((t + t.T) / 2.0)[0] >= -1e-9), None)
    assert strong == (expected_witness is not None)
    if strong:
        assert np.abs(witness - expected_witness).max() <= 1e-12


def test_frame_falls_back_to_every_ray_outside_general_position():
    model = square_pyramid_model()
    expected = find_cone_isomorphisms_reference(model, exhaustive=True)
    found = find_cone_isomorphisms(model)
    assert len(found) == len(expected) == 8
    for x, y in zip(found, expected):
        assert np.abs(x - y).max() <= 1e-12


@pytest.mark.parametrize("model", [polygon(12), house_model()], ids=lambda m: m.name)
def test_search_blocks_do_not_change_the_result(model, monkeypatch):
    # one candidate per block, against the whole search in one block
    whole = find_cone_isomorphisms(model)
    monkeypatch.setattr(selfdual, "_BLOCK_ELEMENTS", 1)
    blocked = find_cone_isomorphisms(model)
    assert len(blocked) == len(whole)
    for x, y in zip(blocked, whole):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n", range(3, 13))
def test_polygon_isomorphism_family_size(n):
    isos = find_cone_isomorphisms(polygon(n))
    assert len(isos) == 2 * n


@pytest.mark.parametrize("n", [5, 7])
def test_odd_family_contains_all_rotations(n):
    keys = {_key(t) for t in find_cone_isomorphisms(polygon(n))}
    for k in range(n):
        r = rotation_about_axis(2 * math.pi * k / n) / math.sqrt(3.0)
        assert _key(r) in keys


@pytest.mark.parametrize("n", [4, 6])
def test_even_family_contains_odd_rotations(n):
    keys = {_key(t) for t in find_cone_isomorphisms(polygon(n))}
    for k in range(n):
        r = rotation_about_axis((1 + 2 * k) * math.pi / n) / math.sqrt(3.0)
        assert _key(r) in keys
    # and no plain rotation by a full step, which maps effects to effects
    assert _key(rotation_about_axis(2 * math.pi / n) / math.sqrt(3.0)) not in keys


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_dihedral_search_matches_exhaustive(n):
    a = find_cone_isomorphisms(polygon(n))
    b = find_cone_isomorphisms(polygon(n), method="exhaustive")
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, atol=1e-10)


def test_house_search_matches_exhaustive():
    h = house_model()
    a = find_cone_isomorphisms(h)
    b = find_cone_isomorphisms(h, method="exhaustive")
    assert len(a) == len(b) == 2
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, atol=1e-10)


def test_exhaustive_cap():
    with pytest.raises(ValueError, match="capped"):
        find_cone_isomorphisms(polygon(11), method="exhaustive")


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown search method"):
        find_cone_isomorphisms(polygon(5), method="fancy")
    # "auto" already runs the dihedral search; there is no separate method
    with pytest.raises(ValueError, match="unknown search method"):
        find_cone_isomorphisms(polygon(5), method="dihedral")


def test_ray_count_mismatch_gives_empty():
    sq = polygon(4)
    lopsided = ModelSpec(
        "lopsided", 3, sq.extremal_states, sq.extremal_effects, sq.unit_effect,
        ray_extremal=np.array([True, True, False, False]),
    )
    assert find_cone_isomorphisms(lopsided) == []


@pytest.mark.parametrize("n", range(3, 12))
def test_strong_self_duality_parity(n):
    strong, witness = is_strongly_self_dual(polygon(n))
    assert strong == (n % 2 == 1)
    if strong:
        np.testing.assert_allclose(witness, np.eye(3) / math.sqrt(3.0), atol=1e-9)
    else:
        assert witness is None


def test_house_strongly_self_dual():
    strong, witness = is_strongly_self_dual(house_model())
    assert strong
    np.testing.assert_allclose(witness, np.eye(3) / math.sqrt(3.0), atol=1e-9)


def test_identity_induces_entangled_state_odd():
    m = polygon(5)
    st = state_from_isomorphism(np.eye(3), m)
    np.testing.assert_allclose(st.matrix, max_entangled(5).matrix, atol=1e-12)


def test_half_step_rotation_induces_entangled_state_even():
    m = polygon(4)
    st = state_from_isomorphism(rotation_about_axis(math.pi / 4), m)
    np.testing.assert_allclose(st.matrix, max_entangled(4).matrix, atol=1e-12)


def test_state_from_isomorphism_rejects_flipped():
    with pytest.raises(ValueError):
        state_from_isomorphism(-np.eye(3), polygon(5))


@pytest.mark.parametrize("n", [4, 5, 6, 9])
def test_every_witness_induces_member_state(n):
    m = polygon(n)
    for t in find_cone_isomorphisms(m):
        assert in_max_tensor_product(state_from_isomorphism(t, m))


@pytest.mark.parametrize("n", list(range(3, 11)))
def test_sym_psd_witness_iff_inner_product_state(n):
    m = polygon(n)
    for t in find_cone_isomorphisms(m):
        sym = np.abs(t - t.T).max() <= 1e-9
        psd = sym and np.linalg.eigvalsh((t + t.T) / 2.0)[0] >= -1e-9
        inner = is_inner_product_state(state_from_isomorphism(t, m)).is_inner_product
        assert (sym and psd) == inner


@pytest.mark.parametrize("n", range(3, 13))
def test_composition_closure(n):
    isos = find_cone_isomorphisms(polygon(n))
    symmetries = induced_state_symmetries(isos)
    keys = {_key(s) for s in symmetries}
    rotations = [rotation_about_axis(2 * math.pi * k / n) for k in range(n)]
    for s1 in symmetries:
        for r in rotations:
            for s2 in symmetries:
                prod = s1 @ r @ s2
                prod = prod / np.linalg.norm(prod)
                assert _key(prod) in keys


def test_certain_state_counts():
    assert certain_state_counts(polygon(5)) == [1] * 5
    assert certain_state_counts(polygon(6)) == [2] * 6
    assert certain_state_counts(house_model()) == [2, 1, 2, 1, 1]


def test_random_vertex_harness_smoke():
    # falsification harness: draws extremal joint states and scans them;
    # nothing is asserted about the scan value beyond well-formedness
    from polybell.correlations import chsh_max_over_settings

    rng = np.random.default_rng(20260819)
    m = house_model()
    for _ in range(5):
        st = random_extremal_joint_state(m, rng)
        assert in_max_tensor_product(st)
        value, _ = chsh_max_over_settings(st)
        assert 0.0 <= value <= 4.0 + 1e-9
