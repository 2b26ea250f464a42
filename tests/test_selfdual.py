import dataclasses
import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from polybell import selfdual
from polybell.bipartite import (
    JointState,
    in_max_tensor_product,
    is_inner_product_state,
    local_positivity_margin,
)
from polybell.core import ROUNDING_TOL, ModelSpec, _spectra, psd_at, resolve_tol, simplex_model
from polybell.house import house_model
from polybell.polygon import max_entangled, polygon
from polybell.selfdual import (
    find_cone_isomorphisms,
    is_strongly_self_dual,
    rotation_about_axis,
    self_duality,
    state_from_isomorphism,
)

from helpers import random_extremal_joint_state


def _key(t: np.ndarray) -> tuple:
    return tuple(np.round(t, 8).ravel())


def strong_witness_reference(isomorphisms, tol=1e-9):
    """The first isomorphism with max |T - T^T| <= tol and a PSD symmetric part.

    PSD means a smallest eigenvalue of at least -tol times the largest
    |eigenvalue|. Tolerances below the rounding floor count as the floor, as
    in the library.
    """
    tol = max(tol, ROUNDING_TOL)
    for t in isomorphisms:
        if np.abs(t - t.T).max() > tol:
            continue
        spectrum = np.linalg.eigvalsh((t + t.T) / 2.0)
        if spectrum[0] < -tol * np.abs(spectrum).max():
            continue
        return t
    return None


def twin(model: ModelSpec) -> ModelSpec:
    """A new model object with the same arrays, so it shares no search.

    Built by the constructor, not ``from_dict``: some tests turn or shrink
    the states on purpose, and ``from_dict`` rejects such models.
    """
    return dataclasses.replace(model)


# An orthogonal change of coordinates that turns some rays of every polygon
# to a negative third coordinate: they have no angular order, so the search
# falls back to every permutation.
TILT = np.array([[1.0, 0.0, 0.0],
                 [0.0, math.cos(2.0), -math.sin(2.0)],
                 [0.0, math.sin(2.0), math.cos(2.0)]])


def tilted(model: ModelSpec) -> ModelSpec:
    """The model in coordinates turned by TILT; isomorphisms become TILT T TILT^T."""
    return ModelSpec(f"tilted-{model.name}", 3, model.extremal_states @ TILT.T,
                     model.extremal_effects @ TILT.T, TILT @ model.unit_effect,
                     model.ray_extremal)


def induced_state_symmetries(isomorphisms: list[np.ndarray]) -> list[np.ndarray]:
    """The state-cone automorphisms T_i T_j^{-1}, Frobenius-normalized, deduped."""
    symmetries: dict[tuple, np.ndarray] = {}
    for ti in isomorphisms:
        for tj in isomorphisms:
            s = ti @ np.linalg.inv(tj)
            s = s / np.linalg.norm(s)
            symmetries.setdefault(_key(s), s)
    return [symmetries[key] for key in sorted(symmetries)]


def certain_state_counts(model: ModelSpec, tol: float = 1e-9) -> list[int]:
    """Per ray-extremal effect, how many extremal states it accepts with certainty.

    Diagnostic for the uniqueness question: a count above 1 means the effect
    occurs with probability one on several distinct extremal states.
    """
    pairings = model.ray_effects @ model.extremal_states.T
    return [int(np.sum(np.abs(row - 1.0) <= tol)) for row in pairings]


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


def frame_null_vectors_reference(systems):
    """Per stacked system, its last right-singular vector and its nullity."""
    _, sv, vt = np.linalg.svd(systems)
    rank = np.count_nonzero(sv > selfdual._RANK_CUTOFF * np.maximum(sv[:, :1], 1.0), axis=1)
    return vt[:, -1], systems.shape[2] - rank


def frame_solve_reference(effects, states, frame, perms):
    """The frame solve with T and the scales as one unknown vector.

    Reference for ``selfdual._solve_block``, which solves for the scales
    first. Per candidate the unknowns are vec T (row-major) followed by one
    scale per frame ray, a 12 x 13 homogeneous system for a four-ray frame
    in three dimensions; rows ``d*j .. d*j + d - 1`` read
    ``T e_j - s_j target_j = 0``. The systems of a block are solved by one
    stacked SVD, with the tie rows ``s_j = s_{j+1}`` added when the frame
    is every ray and the null space is wider than one. Returns the seven
    arrays ``_solve_block`` returns (see ``SOLVED``).
    """
    k, d = effects.shape
    template = np.zeros((d * frame.size, d * d + frame.size))
    template[:, :d * d] = np.vstack(
        [np.kron(np.eye(d), effects[ray][None, :]) for ray in frame])
    b, f = perms.shape[0], frame.size
    system = np.repeat(template[None], b, axis=0)
    scale_rows = np.arange(d * f)
    system[:, scale_rows, d * d + scale_rows // d] = -states[perms[:, frame]].reshape(b, d * f)
    vec, nullity = frame_null_vectors_reference(system)
    wide = nullity > 1
    if f == k and wide.any():
        ties = np.zeros((f - 1, d * d + f))
        ties[:, d * d:] = np.eye(f - 1, f) - np.eye(f - 1, f, 1)
        tied = np.concatenate([system[wide], np.repeat(ties[None], wide.sum(), axis=0)], axis=1)
        vec[wide], nullity[wide] = frame_null_vectors_reference(tied)

    t = vec[:, :d * d].reshape(b, d, d)
    images = effects @ t.transpose(0, 2, 1)
    targets = states[perms]
    scales = np.sum(images * targets, axis=2) / np.sum(targets * targets, axis=2)
    negative = np.all(scales < 0, axis=1)
    sign = np.all(scales > 0, axis=1) | negative
    norm = np.linalg.norm(t, axis=(1, 2))
    # scales of one sign imply T != 0; the others are rejected anyway
    factor = np.where(negative, -1.0, 1.0) / np.where(sign, norm, 1.0)
    scales *= factor[:, None]
    t = t * factor[:, None, None]
    residual = np.abs(images * factor[:, None, None] - scales[..., None] * targets)
    return (t, nullity == 1, sign, norm, scales.min(axis=1),
            residual.max(axis=(1, 2)) <= selfdual._RESIDUAL_TOL,
            np.abs(np.linalg.det(t)) >= 1e-9)


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
    expected_witness = strong_witness_reference(expected)
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
    # one candidate per block, against the whole search in one block; the
    # blocked search runs on a twin, since the model's own search is kept
    whole = find_cone_isomorphisms(model)
    monkeypatch.setattr(selfdual, "_BLOCK_ELEMENTS", 1)
    blocked = find_cone_isomorphisms(twin(model))
    assert len(blocked) == len(whole)
    for x, y in zip(blocked, whole):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("model", [polygon(7), polygon(8), house_model()],
                         ids=lambda m: m.name)
def test_kept_search_matches_reference_at_every_tol(model):
    # one model object for every tolerance, in an order that revisits some
    for tol in (0.5, 1e-9, 0.2, 0.0, 1e-3, 0.5, 1e-9):
        expected = find_cone_isomorphisms_reference(model, tol)
        found = find_cone_isomorphisms(model, tol)
        assert len(found) == len(expected), tol
        for x, y in zip(found, expected):
            assert np.abs(x - y).max() <= 1e-12
        report = self_duality(model, tol)
        expected_witness = strong_witness_reference(expected, tol)
        assert report.strong == (expected_witness is not None), tol
        if report.strong:
            assert np.abs(report.witness - expected_witness).max() <= 1e-12


BITWISE_MODELS = ([lambda n=n: polygon(n) for n in range(3, 129)]
                  + [house_model, square_pyramid_model])


def test_kept_search_is_bitwise_a_first_search():
    # every tolerance on one model object gives bitwise what a model's
    # first search at that tolerance gives, in either order; the batched
    # witness is bitwise the per-matrix loop's
    tols = (1e-9, 1e-3, 0.0)
    for make in BITWISE_MODELS:
        first = {tol: find_cone_isomorphisms(make(), tol) for tol in tols}
        for order in (tols, tols[::-1]):
            model = make()
            for tol in order:
                report = self_duality(model, tol)
                for found in (find_cone_isomorphisms(model, tol), report.isomorphisms):
                    assert len(found) == len(first[tol])
                    assert all(x.tobytes() == y.tobytes() for x, y in zip(found, first[tol]))
                expected = strong_witness_reference(first[tol], tol)
                if expected is None:
                    assert report.witness is None and report.witness_asymmetry is None
                else:
                    assert report.witness.tobytes() == expected.tobytes()
                    assert report.witness_asymmetry == np.abs(expected - expected.T).max()
                    assert report.witness_min_eigenvalue == \
                        np.linalg.eigvalsh((expected + expected.T) / 2.0)[0]


# sha256 of the search's four candidate arrays (dtype, shape and bytes of
# each) over the models below, as the search gave them when it was pinned:
# a change to any candidate's transform, stage, scale margin or group, down
# to its last bit, changes it
SEARCH_SHA256 = "11a9ab650758e020d51d9e63ee153dba8c0c4e6c985b5bc1d37702afddb19fb8"


def test_candidate_margins_are_pinned_bitwise():
    digest = hashlib.sha256()
    for model in ([polygon(n) for n in range(3, 65)]
                  + [house_model(), square_pyramid_model(), bent_pentagon(), tilted(polygon(7))]):
        candidates = selfdual._candidate_margins(model)
        for array in (candidates.transforms, candidates.stage, candidates.scale_margin,
                      candidates.group):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
    assert digest.hexdigest() == SEARCH_SHA256


def test_candidate_solve_runs_once_per_model(monkeypatch):
    solved = []
    solve_block = selfdual._solve_block

    def counting_solve(effects, states, system, perms):
        solved.append(perms.shape[0])  # one row per candidate
        return solve_block(effects, states, system, perms)

    monkeypatch.setattr(selfdual, "_solve_block", counting_solve)
    model = polygon(5)
    assert len(find_cone_isomorphisms(model)) == 10
    assert len(find_cone_isomorphisms(model, 1e-3)) == 10
    assert is_strongly_self_dual(model)[0]
    assert self_duality(model).strong
    assert solved == [10]
    # another model object searches on its own
    find_cone_isomorphisms(twin(model))
    assert solved == [10, 10]
    # a model whose rays have no angular order tries every permutation, once
    turned = tilted(model)
    assert len(find_cone_isomorphisms(turned)) == 10
    assert len(find_cone_isomorphisms(turned, 1e-3)) == 10
    assert self_duality(turned).candidates == 120
    assert solved == [10, 10, 120]


MASKS = ("nullity", "sign", "residual", "determinant")
VALUES = ("transforms", "norm", "min_scale")
# what ``_solve_block`` returns, in order
SOLVED = ("transforms", "nullity", "sign", "norm", "min_scale", "residual", "determinant")


def stage_reference(solved):
    """Per candidate, the index of the first rule of ``selfdual._RULES`` its
    masks fail (the scale rule, index 2, reads ``tol`` and is not a mask);
    5 when it fails none."""
    return np.select([~getattr(solved, name) for name in MASKS], [0, 1, 3, 4], 5)


def solved_margins(model, monkeypatch, solve=None):
    """``_candidate_margins(model)``, and what its block solves returned.

    Wraps ``_solve_block`` (or ``solve``, which then replaces it) while the
    search runs and concatenates its seven outputs, in candidate order, into
    a namespace with the fields of ``SOLVED``. Checks that the candidates'
    ``stage`` and ``scale_margin`` are the fold of those fields.
    """
    solve = solve or selfdual._solve_block
    blocks = []

    def recording(effects, states, system, perms):
        blocks.append(solve(effects, states, system, perms))
        return blocks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(selfdual, "_solve_block", recording)
        candidates = selfdual._candidate_margins(model)
    solved = SimpleNamespace(**{name: np.concatenate(column)
                                for name, column in zip(SOLVED, zip(*blocks))})
    assert np.array_equal(candidates.stage, stage_reference(solved))
    assert candidates.scale_margin.tobytes() == \
        np.minimum(solved.norm, solved.min_scale).tobytes()
    assert candidates.transforms.tobytes() == solved.transforms.tobytes()
    return candidates, solved


def reference_margins(model, monkeypatch):
    """``solved_margins`` with every block solved by ``frame_solve_reference``."""
    return solved_margins(model, monkeypatch, lambda effects, states, system, perms:
                          frame_solve_reference(effects, states, system[0], perms))


@pytest.mark.parametrize("model", [polygon(n) for n in range(3, 65)] + [house_model()],
                         ids=lambda m: m.name)
def test_scale_space_solve_matches_frame_solve(model, monkeypatch):
    candidates, found = solved_margins(model, monkeypatch)
    expected_candidates, expected = reference_margins(model, monkeypatch)
    for name in MASKS:
        assert np.array_equal(getattr(found, name), getattr(expected, name)), name
    for name in ("stage", "group"):
        assert np.array_equal(getattr(candidates, name), getattr(expected_candidates, name)), name
    for name in VALUES:
        assert np.abs(getattr(found, name) - getattr(expected, name)).max() <= 1e-12, name


@pytest.mark.parametrize("model", [square_pyramid_model(), tilted(polygon(7))],
                         ids=lambda m: m.name)
def test_scale_space_solve_differs_only_on_zero_scales(model, monkeypatch):
    # an every-ray frame with tie rows, and the permutation fallback: the
    # two solves may split on the sign of a scale that is zero up to
    # rounding, on candidates that both reject
    candidates, found = solved_margins(model, monkeypatch)
    expected_candidates, expected = reference_margins(model, monkeypatch)
    for name in ("nullity", "residual", "determinant"):
        assert np.array_equal(getattr(found, name), getattr(expected, name)), name
    assert np.array_equal(candidates.group, expected_candidates.group)
    split = found.sign != expected.sign
    zero = np.where(found.sign, np.abs(found.min_scale), np.abs(expected.min_scale))
    assert np.all(zero[split] < ROUNDING_TOL)
    assert np.all(candidates.group[split] == -1)
    solved = found.nullity & found.sign & expected.sign
    for name in VALUES:
        assert np.abs(getattr(found, name)[solved]
                      - getattr(expected, name)[solved]).max() <= 1e-12, name
    for tol in (0.0, 1e-9, 1e-3):
        accepted, rejected = selfdual._accept(candidates, tol)
        expected_accepted, expected_rejected = selfdual._accept(expected_candidates, tol)
        assert np.array_equal(accepted, expected_accepted)
        assert accepted.size > 0
        assert np.abs(found.transforms[accepted]
                      - expected.transforms[accepted]).max() <= 1e-12
        # a zero scale may fail the sign rule on one side and a later rule
        # on the other; the nullity rule comes first and is shared
        assert rejected["nullity"] == expected_rejected["nullity"]


@pytest.mark.parametrize("model", [polygon(3), polygon(5), polygon(8), house_model(),
                                   square_pyramid_model()], ids=lambda m: m.name)
def test_solves_agree_on_degenerate_candidates(model):
    # hand-made bijections that send several frame rays to one state
    effects, states = model.ray_effects, model.extremal_states
    k = effects.shape[0]
    order = selfdual._cycle_order(effects)
    system = selfdual._frame_system(effects, np.arange(k) if order is None else order)
    frame = system[0]
    one_state = np.zeros(k, dtype=int)
    one_pair, two_pairs = np.arange(k), np.arange(k)
    one_pair[frame[1]] = two_pairs[frame[1]] = frame[0]
    two_pairs[frame[-1]] = frame[-2]
    perms = np.stack([one_state, one_pair, two_pairs])
    found = selfdual._solve_block(effects, states, system, perms)
    expected = frame_solve_reference(effects, states, frame, perms)
    assert np.array_equal(found[1], expected[1])
    if frame.size < k:
        # a four-ray frame in three dimensions: one state for all rays, or
        # two for four, leaves a wider family; with one pair sent together
        # the family is one-dimensional, a T of rank one
        assert found[1].tolist() == [False, True, False]
        assert np.linalg.matrix_rank(found[0][1]) == 1
    for masks in (found[1:3] + found[5:], expected[1:3] + expected[5:]):
        assert not np.any(np.logical_and.reduce(masks))


def test_solves_agree_when_the_frame_does_not_span():
    # two rays of a three-dimensional cone: T is free on the direction the
    # frame misses, so every candidate leaves a family wider than one
    base = polygon(5)
    effects, states = base.ray_effects[:2], base.extremal_states[:2]
    system = selfdual._frame_system(effects, np.arange(2))
    assert system[3] == 3
    perms = np.array([[0, 1], [1, 0], [0, 0]])
    found = selfdual._solve_block(effects, states, system, perms)
    expected = frame_solve_reference(effects, states, system[0], perms)
    assert not found[1].any() and not expected[1].any()


def recording_svd(monkeypatch):
    """Patch ``np.linalg.svd`` to record a copy of every input; return the list."""
    inputs = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return inputs


@pytest.mark.parametrize("model", [polygon(n) for n in range(4, 65)] + [house_model()],
                         ids=lambda m: m.name)
def test_search_calls_the_svd_only_for_the_frame(model, monkeypatch):
    # the general-position check and the frame's own solve, and no stack of
    # 3 x 4 scale systems; the check sees what the np.delete loop built
    inputs = recording_svd(monkeypatch)
    selfdual._candidate_margins(model)
    assert [a.shape for a in inputs] == [(4, 3, 3), (4, 3)]
    effects = model.ray_effects
    spread = selfdual._cycle_order(effects)[(np.arange(4) * effects.shape[0]) // 4]
    subsets = np.stack([np.delete(effects[spread], i, axis=0) for i in range(4)])
    assert inputs[0].tobytes() == subsets.tobytes()


def test_simplicial_search_solves_by_svd_with_tie_rows(monkeypatch):
    # the 3-gon's frame is every ray: no null-space rows, then two tie rows
    inputs = recording_svd(monkeypatch)
    assert len(selfdual._candidate_margins(polygon(3)).group) == 6
    assert [a.shape for a in inputs] == [(3, 3), (6, 0, 3), (6, 2, 3)]


def near_cutoff_systems(rows, sigma_1, delta, rng):
    """Stacks ``U diag(s) V^T`` of rows x (rows + 1) systems whose smallest
    singular value sits at ``_RANK_CUTOFF * max(s_1, 1) * (1 +- delta)``:
    first the ones above the SVD's cutoff, then the ones below it."""
    stacks = []
    for side in (1.0, -1.0):
        sv = np.geomspace(sigma_1, sigma_1 * 1e-2, rows)
        sv[-1] = selfdual._RANK_CUTOFF * max(sigma_1, 1.0) * (1.0 + side * delta)
        systems = []
        for _ in range(8):
            u = np.linalg.qr(rng.normal(size=(rows, rows)))[0]
            v = np.linalg.qr(rng.normal(size=(rows + 1, rows + 1)))[0][:, :rows]
            systems.append((u * sv) @ v.T)
        stacks.append(np.array(systems))
    return np.concatenate(stacks)


@pytest.mark.parametrize("rows", [3, 4])
@pytest.mark.parametrize("sigma_1", [0.25, 1.0, 7.0, 300.0])
@pytest.mark.parametrize("delta", [1e-4, 1e-3, 1e-2, 1e-1])
def test_null_vectors_at_the_rank_cutoff_are_the_svds(rows, sigma_1, delta, monkeypatch):
    # the minors cannot prove full rank this close to the cutoff, so every
    # system goes to the SVD, on both sides of the cutoff
    systems = near_cutoff_systems(rows, sigma_1, delta, np.random.default_rng(2001))
    inputs = recording_svd(monkeypatch)
    vectors, nullity = selfdual._null_vectors(systems)
    assert len(inputs) == 1 and inputs[0].tobytes() == systems.tobytes()
    expected_vectors, expected_nullity = frame_null_vectors_reference(systems)
    assert np.array_equal(nullity, expected_nullity)
    assert nullity.tolist() == [1] * 8 + [2] * 8
    assert vectors.tobytes() == expected_vectors.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_null_vectors_of_well_conditioned_systems_need_no_svd(rows, monkeypatch):
    rng = np.random.default_rng(2002 + rows)
    systems = rng.normal(size=(50, rows, rows + 1)) * np.geomspace(1e-3, 1e3, 50)[:, None, None]
    inputs = recording_svd(monkeypatch)
    vectors, nullity = selfdual._null_vectors(systems)
    assert inputs == []
    expected_vectors, expected_nullity = frame_null_vectors_reference(systems)
    assert np.array_equal(nullity, expected_nullity)
    # one null direction, up to sign
    assert np.abs(np.abs(np.sum(vectors * expected_vectors, axis=1)) - 1.0).max() <= 1e-12
    assert np.abs(np.einsum("bij,bj->bi", systems, vectors)).max() <= 1e-12 * np.abs(systems).max()


def test_null_vectors_mix_minors_and_svd_in_one_stack(monkeypatch):
    # a zero system and a rank-one system among full-rank ones: only those
    # two go to the SVD, and the stack keeps its order
    rng = np.random.default_rng(2006)
    systems = rng.normal(size=(6, 3, 4))
    systems[1] = 0.0
    systems[4] = np.outer(rng.normal(size=3), rng.normal(size=4))
    inputs = recording_svd(monkeypatch)
    vectors, nullity = selfdual._null_vectors(systems)
    assert [a.tobytes() for a in inputs] == [systems[[1, 4]].tobytes()]
    expected_vectors, expected_nullity = frame_null_vectors_reference(systems)
    assert nullity.tolist() == expected_nullity.tolist() == [1, 4, 1, 1, 3, 1]
    assert vectors[[1, 4]].tobytes() == expected_vectors[[1, 4]].tobytes()


# Guards on the numpy behaviour the search relies on for bitwise results: a
# numpy that changes its reduction order or its gathers fails here first.

def test_take_is_the_fancy_index():
    rng = np.random.default_rng(2101)
    states = rng.normal(size=(31, 3))
    perms = rng.permuted(np.tile(np.arange(31), (62, 1)), axis=1)
    frame = np.array([0, 7, 15, 23])
    assert states.take(perms, axis=0).tobytes() == states[perms].tobytes()
    assert states.take(perms.take(frame, axis=1), axis=0).tobytes() == \
        states[perms[:, frame]].tobytes()
    assert states[:, 0].take(perms).tobytes() == states[:, 0][perms].tobytes()


def test_det_helper_is_bitwise_np_linalg_det():
    rng = np.random.default_rng(2102)
    for shape in ((3, 3), (62, 3, 3), (62, 4, 3, 3), (5, 4, 4), (0, 3, 3), (2, 1, 1)):
        a = rng.normal(size=shape)
        assert selfdual._dets(a).tobytes() == np.linalg.det(a).tobytes()
    # a strided stack, as the minors take it, and singular matrices
    systems = rng.normal(size=(62, 3, 4))
    minors = systems[:, :, selfdual._leave_one_out(4)].transpose(0, 2, 1, 3)
    assert selfdual._dets(minors).tobytes() == np.linalg.det(minors).tobytes()
    singular = np.repeat(rng.normal(size=(4, 1, 3)), 3, axis=1)
    assert selfdual._dets(singular).tobytes() == np.linalg.det(singular).tobytes()


def test_leave_one_out_table_is_read_only():
    table = selfdual._leave_one_out(4)
    assert table.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    assert selfdual._leave_one_out(4) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0


def group_reference(transforms, passing):
    """``group`` by Python tuples: each passing transform's 8-decimal key,
    ranked in the sorted set of those keys; -1 for the others."""
    width = math.prod(transforms.shape[1:])
    rounded = np.round(transforms[passing], 8).reshape(passing.size, width)
    keys = [tuple(row) for row in rounded.tolist()]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    group = np.full(transforms.shape[0], -1)
    group[passing] = [rank[key] for key in keys]
    return group


@pytest.mark.parametrize("model", [polygon(n) for n in range(3, 129)]
                         + [house_model(), square_pyramid_model(),
                            tilted(polygon(6)), tilted(polygon(7))],
                         ids=lambda m: m.name)
def test_group_matches_tuple_ranks(model, monkeypatch):
    c, solved = solved_margins(model, monkeypatch)
    passing = np.flatnonzero(solved.nullity & solved.sign & solved.residual
                             & solved.determinant)
    assert passing.size > 0
    expected = group_reference(c.transforms, passing)
    assert np.array_equal(c.group, expected) and c.group.dtype == expected.dtype


def bent_pentagon() -> ModelSpec:
    """The pentagon with one state pulled inward: five rays each side, but
    the state cone is no longer linearly a regular pentagon's."""
    base = polygon(5)
    states = base.extremal_states.copy()
    states[0, :2] *= 0.9
    return ModelSpec("bent", 3, states, base.extremal_effects, base.unit_effect,
                     base.ray_extremal)


def test_model_without_isomorphisms_rejects_every_candidate():
    bent = bent_pentagon()
    report = self_duality(bent)
    assert not report.weak and not report.strong
    assert report.candidates == 10
    assert sum(report.rejected.values()) == 10 and report.rejected["duplicate"] == 0
    assert find_cone_isomorphisms(bent) == []
    assert np.all(selfdual._searched(bent).group == -1)


def test_group_ranks_negative_zero_with_zero():
    # -1e-10 rounds to -0.0: one key with 0.0 and 1e-10, and the others
    # rank around it entry by entry
    entries = [[-1e-10, 1.0], [0.0, 1.0], [1e-10, 1.0], [0.0, -1.0], [-0.0, 0.5],
               [2.0, -3.0], [-1e-10, -1.0], [1.0, 1.0]]
    transforms = np.array([[[a, b], [0.0, 1.0]] for a, b in entries])
    assert np.signbit(np.round(transforms[0, 0, 0], 8))
    for passing in (np.arange(8), np.array([0, 2, 3, 5]), np.array([6]), np.array([], dtype=int)):
        group = selfdual._group(transforms, passing)
        assert np.array_equal(group, group_reference(transforms, passing))
    assert selfdual._group(transforms, np.arange(8)).tolist() == [2, 2, 2, 0, 1, 4, 0, 3]


def flip_orders(margin):
    above, below = margin * (1 + 1e-6), margin * (1 - 1e-6)
    return [(above, True), (below, False), (above, True)], \
        [(below, False), (above, True), (below, False)]


def test_candidate_norm_verdict_follows_tol(monkeypatch):
    # shrinking the state rays keeps the cones but lifts every scale far
    # above ||T||, so the norm rule decides
    base = polygon(5)
    small = ModelSpec("small-states", 3, base.extremal_states * 1e-2,
                      base.extremal_effects, base.unit_effect, base.ray_extremal)
    _, candidates = solved_margins(twin(small), monkeypatch)
    margin = candidates.norm.min()
    assert candidates.min_scale.min() > 10 * margin
    for order in flip_orders(margin):
        model = twin(small)
        for tol, above in order:
            assert len(find_cone_isomorphisms(model, tol)) == (0 if above else 10)
            report = self_duality(model, tol)
            assert report.rejected["scale"] == (10 if above else 0)
            assert report.strong is not above


def test_candidate_min_scale_verdict_follows_tol(monkeypatch):
    _, candidates = solved_margins(polygon(5), monkeypatch)
    margin = candidates.min_scale.min()
    assert candidates.norm.min() > 2 * margin
    for order in flip_orders(margin):
        model = polygon(5)
        for tol, above in order:
            assert len(find_cone_isomorphisms(model, tol)) == (0 if above else 10)
            report = self_duality(model, tol)
            assert report.rejected["scale"] == (10 if above else 0)
            assert report.weak is not above


def test_witness_asymmetry_verdict_follows_tol():
    # states turned by a small angle about the cone axis: the only symmetric
    # PSD candidate becomes that rotation, asymmetric by 2 sin(angle) / sqrt(3)
    base = polygon(5)
    turned = ModelSpec("turned", 3, base.extremal_states @ rotation_about_axis(1e-3).T,
                       base.extremal_effects, base.unit_effect, base.ray_extremal)
    margin = self_duality(twin(turned), 1e-2).witness_asymmetry
    assert margin == pytest.approx(2 * math.sin(1e-3) / math.sqrt(3.0), rel=1e-9)
    for order in flip_orders(margin):
        model = twin(turned)
        for tol, above in order:
            report = self_duality(model, tol)
            assert len(report.isomorphisms) == 10
            assert report.strong is above
            assert is_strongly_self_dual(model, tol)[0] is above
            if above:
                assert report.witness_asymmetry == margin
            else:
                assert report.witness_asymmetry is None


@pytest.mark.parametrize("model", [polygon(6), polygon(9), house_model(), square_pyramid_model()],
                         ids=lambda m: m.name)
def test_report_counts_every_candidate_once(model):
    for tol in (0.0, 1e-9, 0.2, 0.5):
        report = self_duality(model, tol)
        assert report.candidates == (120 if model.dim == 4 else 2 * model.n_states)
        assert list(report.rejected) == ["nullity", "sign", "scale", "residual",
                                         "determinant", "duplicate"]
        assert sum(report.rejected.values()) + len(report.isomorphisms) == report.candidates
        # on these models at most one isomorphism passes both witness rules
        assert list(report.witness_rejected) == ["asymmetry", "psd"]
        assert sum(report.witness_rejected.values()) + report.strong == len(report.isomorphisms)
    # the pyramid's 120 bijections include ones with a wide null space and
    # ones whose scales change sign
    report = self_duality(square_pyramid_model())
    assert report.rejected["nullity"] > 0 and report.rejected["sign"] > 0


def assert_same_reports(found, expected):
    """Two reports equal field for field: arrays by bytes, floats by ``==``,
    the rejection dicts with their key order and ``int`` values."""
    assert len(found.isomorphisms) == len(expected.isomorphisms)
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(found.isomorphisms, expected.isomorphisms))
    if expected.witness is None:
        assert found.witness is None
    else:
        assert found.witness.tobytes() == expected.witness.tobytes()
    for name in ("witness_asymmetry", "witness_min_eigenvalue", "candidates"):
        assert getattr(found, name) == getattr(expected, name), name
    for name in ("rejected", "witness_rejected"):
        assert list(getattr(found, name).items()) == list(getattr(expected, name).items())
        assert all(type(v) is int for v in getattr(found, name).values())


def self_duality_reference(model, tol=None):
    """``self_duality`` as it was, taking the spectrum of every isomorphism."""
    tol = resolve_tol(tol)
    candidates = selfdual._searched(model)
    accepted, rejected = selfdual._accept(candidates, tol)
    stack = candidates.transforms[accepted]
    asymmetry = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    spectra = _spectra((stack + stack.transpose(0, 2, 1)) / 2.0)
    min_eig = spectra[:, 0]
    symmetric = asymmetry <= tol
    psd = psd_at(min_eig, spectra[:, -1], tol)
    hits = np.flatnonzero(symmetric & psd)
    first = hits[0] if hits.size else None
    return selfdual.SelfDualityReport(
        isomorphisms=list(stack),
        witness=None if first is None else stack[first],
        witness_asymmetry=None if first is None else float(asymmetry[first]),
        witness_min_eigenvalue=None if first is None else float(min_eig[first]),
        candidates=len(candidates.transforms),
        rejected=rejected,
        witness_rejected={"asymmetry": int(np.count_nonzero(~symmetric)),
                          "psd": int(np.count_nonzero(symmetric & ~psd))},
    )


REPORT_MODELS = ([lambda n=n: polygon(n) for n in [*range(3, 130), 257]]
                 + [house_model, square_pyramid_model, bent_pentagon]
                 + [lambda n=n: tilted(polygon(n)) for n in (5, 6, 7)])


def test_report_is_the_reference_field_for_field():
    # spectra of the symmetric isomorphisms alone leave every field as the
    # spectra of all of them gave it, bit for bit
    for make in REPORT_MODELS:
        model = make()
        for tol in (None, 0.0, 1e-3):
            assert_same_reports(self_duality(model, tol), self_duality_reference(model, tol))


def recording_spectra(monkeypatch):
    """Patch ``selfdual._spectra`` to record its input lengths; return the list."""
    lengths = []

    def recording(matrices):
        lengths.append(len(matrices))
        return _spectra(matrices)

    monkeypatch.setattr(selfdual, "_spectra", recording)
    return lengths


@pytest.mark.parametrize("n", range(3, 41))
def test_report_takes_spectra_of_symmetric_isomorphisms_only(n, monkeypatch):
    # of the 2n isomorphisms the n reflections are symmetric, and for odd n
    # the identity as well
    lengths = recording_spectra(monkeypatch)
    report = self_duality(polygon(n))
    assert len(report.isomorphisms) == 2 * n
    assert lengths == [n + 1 if n % 2 else n]
    assert report.witness_rejected["asymmetry"] == 2 * n - lengths[0]


def test_report_takes_spectra_of_an_empty_stack(monkeypatch):
    lengths = recording_spectra(monkeypatch)
    assert self_duality(house_model()).strong
    report = self_duality(bent_pentagon())
    assert not report.weak and report.witness_rejected == {"asymmetry": 0, "psd": 0}
    assert lengths == [2, 0]


def accept_reference(solved, group, tol):
    """``_accept`` as it was, reading the seven fields of ``solved_margins``
    and ``group``, with one mask per rule."""
    c = solved
    rules = (("nullity", c.nullity), ("sign", c.sign),
             ("scale", (c.norm >= tol) & (c.min_scale >= tol)),
             ("residual", c.residual), ("determinant", c.determinant))
    passed = np.ones(c.norm.size, dtype=bool)
    rejected = {}
    for rule, ok in rules:
        rejected[rule] = int(np.count_nonzero(passed & ~ok))
        passed &= ok
    kept = np.flatnonzero(passed)
    _, first = np.unique(group[kept], return_index=True)
    rejected["duplicate"] = kept.size - first.size
    return kept[first], rejected


def assert_accepts_like_the_reference(candidates, solved, tols):
    for tol in tols:
        accepted, rejected = selfdual._accept(candidates, tol)
        expected_accepted, expected_rejected = accept_reference(solved, candidates.group, tol)
        assert accepted.tobytes() == expected_accepted.tobytes(), tol
        assert accepted.dtype == expected_accepted.dtype == np.intp
        assert list(rejected.items()) == list(expected_rejected.items()), tol
        assert all(type(v) is int for v in rejected.values())


ALTERNATING_TOLS = (0.0, 1e-9, 0.0, 1e-3, 1e-3, 1e-9, 1e-3, 0.0, 0.0)

# an even and an odd polygon, two candidates (the house), an every-ray
# frame (the pyramid) and the permutation fallback (a tilted pentagon)
SEARCH_KINDS = pytest.mark.parametrize(
    "make", [lambda: polygon(6), lambda: polygon(9), house_model, square_pyramid_model,
             lambda: tilted(polygon(5))],
    ids=["polygon6", "polygon9", "house", "pyramid", "tilted5"])


@SEARCH_KINDS
def test_kept_acceptance_is_the_rules_applied_afresh(make, monkeypatch):
    candidates, solved = solved_margins(make(), monkeypatch)
    assert_accepts_like_the_reference(candidates, solved, ALTERNATING_TOLS)


ACCEPT_MODELS = ([lambda n=n: polygon(n) for n in range(3, 41)] + [house_model]
                 + [lambda n=n: tilted(polygon(n)) for n in range(3, 9)]
                 + [lambda n=n: simplex_model(n) for n in range(2, 7)]
                 + [square_pyramid_model])


def test_acceptance_is_the_rule_loop_on_every_margin(monkeypatch):
    # fixed tolerances, and every candidate's own scale margin with the
    # floats on either side of it, where the scale rule flips
    for make in ACCEPT_MODELS:
        candidates, solved = solved_margins(make(), monkeypatch)
        margins = np.unique(candidates.scale_margin)
        tols = np.concatenate([[0.0, 1e-15, 1e-9, 1e-3, 0.1, 0.5], margins,
                               np.nextafter(margins, -np.inf), np.nextafter(margins, np.inf)])
        assert_accepts_like_the_reference(candidates, solved, tols.tolist())


def test_nan_margins_fail_the_scale_rule(monkeypatch):
    # a nan norm or smallest scale fails "scale", as the two comparisons did
    candidates, solved = solved_margins(polygon(5), monkeypatch)
    solved.norm[[0, 3]] = np.nan
    solved.min_scale[[3, 6]] = np.nan
    solved.sign[6] = False  # a nan behind the sign rule stays a sign rejection
    broken = selfdual._Candidates(candidates.transforms, stage_reference(solved),
                                  np.minimum(solved.norm, solved.min_scale), candidates.group)
    assert_accepts_like_the_reference(broken, solved, [0.0, 1e-9, 0.5])
    assert selfdual._accept(broken, 1e-9)[1]["scale"] == 2


def test_duplicates_keep_the_first_candidate_that_passes(monkeypatch):
    # no model above has two candidates with one key, so pair them by hand:
    # candidates 2j and 2j + 1 share rank 4 - j, and at 1e-3 the scale rule
    # drops the first of the pairs of rank 4 and 3
    candidates, solved = solved_margins(polygon(5), monkeypatch)
    solved.min_scale[[0, 2]] = 1e-6
    paired = selfdual._Candidates(candidates.transforms, candidates.stage,
                                  np.minimum(solved.norm, solved.min_scale),
                                  (9 - np.arange(10)) // 2)
    tols = [0.0, 1e-9, 1e-6, np.nextafter(1e-6, 1.0), 1e-3, 0.5]
    assert_accepts_like_the_reference(paired, solved, tols)
    assert selfdual._accept(paired, 1e-9)[0].tolist() == [8, 6, 4, 2, 0]
    accepted, rejected = selfdual._accept(paired, 1e-3)
    assert accepted.tolist() == [8, 6, 4, 3, 1]
    assert rejected["scale"] == 2 and rejected["duplicate"] == 3


@SEARCH_KINDS
def test_interleaved_calls_are_each_a_first_call(make):
    # calls on one model object at changing tolerances, each against the
    # same call on a model object that has seen no other
    model = make()
    found = find_cone_isomorphisms(model, 0.0)
    expected = find_cone_isomorphisms(twin(model), 0.0)
    assert [t.tobytes() for t in found] == [t.tobytes() for t in expected]
    assert_same_reports(self_duality(model, 1e-3), self_duality(twin(model), 1e-3))
    strong, witness = is_strongly_self_dual(model, 0.0)
    expected_strong, expected_witness = is_strongly_self_dual(twin(model), 0.0)
    assert strong is expected_strong
    assert (witness is None and expected_witness is None) or \
        witness.tobytes() == expected_witness.tobytes()
    assert_same_reports(self_duality(model, 1e-9), self_duality(twin(model), 1e-9))


def test_kept_acceptance_hands_out_fresh_results():
    model = polygon(9)
    first = self_duality(model)
    isomorphisms = [t.copy() for t in first.isomorphisms]
    rejected = dict(first.rejected)
    # change everything a caller can reach
    first.rejected["nullity"] = 99
    first.rejected.clear()
    first.isomorphisms[0][:] = 7.0
    first.isomorphisms.reverse()
    first.isomorphisms.pop()
    found = find_cone_isomorphisms(model)
    found[0][:] = -7.0
    found.clear()
    candidates = selfdual._searched(model)
    accepted, kept_rejected = selfdual._accept(candidates, resolve_tol(None))
    expected_accepted = accepted.copy()
    kept_rejected["sign"] = 99
    accepted[:] = 0
    again, again_rejected = selfdual._accept(candidates, resolve_tol(None))
    assert again.tobytes() == expected_accepted.tobytes()
    assert again_rejected == rejected
    for report in (self_duality(model), self_duality(model)):
        assert report.rejected == rejected
        assert len(report.isomorphisms) == len(isomorphisms)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(report.isomorphisms, isomorphisms))
        assert report.witness.tobytes() == strong_witness_reference(isomorphisms).tobytes()
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(find_cone_isomorphisms(model), isomorphisms))


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
    # the tilted n-gon takes the permutation fallback: all n! bijections
    model = tilted(polygon(n))
    assert selfdual._cycle_order(model.extremal_states) is None
    report = self_duality(model)
    assert report.candidates == math.factorial(n)
    dihedral = [TILT @ t @ TILT.T for t in find_cone_isomorphisms(polygon(n))]
    assert len(report.isomorphisms) == len(dihedral) == 2 * n
    for x in report.isomorphisms:
        gaps = [np.abs(x - y).max() for y in dihedral]
        assert min(gaps) <= 1e-10
        dihedral.pop(int(np.argmin(gaps)))


def test_house_search_matches_exhaustive():
    h = house_model()
    a = find_cone_isomorphisms(h)
    b = find_cone_isomorphisms_reference(h, exhaustive=True)
    assert len(a) == len(b) == 2
    for x, y in zip(a, b):
        np.testing.assert_allclose(x, y, atol=1e-10)


def test_exhaustive_cap():
    with pytest.raises(ValueError, match=r"all 11! bijections in 3 dimensions exceed "
                                         r"the exhaustive cap of 4194304 doubles"):
        find_cone_isomorphisms(tilted(polygon(11)))


@pytest.mark.parametrize("model", [tilted(polygon(10)), tilted(polygon(11)),
                                   simplex_model(9), simplex_model(10)], ids=lambda m: m.name)
def test_exhaustive_fallback_is_refused_before_any_block_is_solved(model, monkeypatch):
    def refuse(*args):
        raise AssertionError("the refused search started")

    for name in ("_frame_system", "_permutation_blocks", "_solve_block"):
        monkeypatch.setattr(selfdual, name, refuse)
    k, d = model.ray_effects.shape
    assert math.factorial(k) * d * d > selfdual._EXHAUSTIVE_ELEMENTS
    with pytest.raises(ValueError, match="exceed the exhaustive cap"):
        find_cone_isomorphisms(model)
    assert model not in selfdual._SEARCHES


def test_exhaustive_cap_counts_the_kept_maps(monkeypatch):
    # a tilted 5-gon keeps 5! maps of 3 x 3: 1080 doubles
    monkeypatch.setattr(selfdual, "_EXHAUSTIVE_ELEMENTS", 1080)
    assert len(find_cone_isomorphisms(tilted(polygon(5)))) == 10
    monkeypatch.setattr(selfdual, "_EXHAUSTIVE_ELEMENTS", 1079)
    with pytest.raises(ValueError, match="all 5! bijections in 3 dimensions"):
        find_cone_isomorphisms(tilted(polygon(5)))


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


def state_from_isomorphism_reference(t, model, tol=None):
    """``state_from_isomorphism`` as it was, checking membership with
    ``in_max_tensor_product`` (which repeats the normalization)."""
    tol = resolve_tol(tol)
    t = np.asarray(t, dtype=float)
    u = model.unit_effect
    height = float(u @ t @ u)
    if height <= 0:
        raise ValueError(f"u . T u = {height!r} must be positive")
    state = JointState(matrix=t.T / height, model_a=model, model_b=model)
    if abs(float(u @ state.matrix @ u) - 1.0) > tol:
        raise ArithmeticError("induced state failed normalization")
    if not in_max_tensor_product(state, tol):
        raise ArithmeticError("induced state failed local positivity")
    return state


def outcome(build, *args):
    """The matrix ``build(*args)`` returns, or the type and message it raises."""
    try:
        return build(*args).matrix.tobytes()
    except (ValueError, ArithmeticError) as error:
        return type(error), str(error)


def test_induced_states_are_bitwise_the_reference():
    for model in [polygon(n) for n in range(3, 41)] + [house_model()]:
        isos = find_cone_isomorphisms(model)
        assert isos
        for t in isos:
            for tol in (None, 0.0):
                state = state_from_isomorphism(t, model, tol)
                expected = state_from_isomorphism_reference(t, model, tol)
                assert state.matrix.tobytes() == expected.matrix.tobytes()
                assert is_inner_product_state(state) == is_inner_product_state(expected)


def _failing_maps():
    """(model, map) pairs that fail ``u . T u``, normalization or positivity at small tol."""
    five = polygon(5)
    turned = tilted(five)
    u = turned.unit_effect
    # a rank-one term with u . a = 0 leaves u . T u about the same but makes
    # the normalization round badly, and breaks positivity as well
    lopsided = (find_cone_isomorphisms(turned)[0]
                + 1e10 * np.outer(np.cross(u, [1.0, 0.3, 0.2]), [0.2, 1.0, 0.5]))
    return [
        (five, -np.eye(3)),  # u . T u < 0
        (five, np.diag([1.0, 1.0, 0.0])),  # u . T u = 0
        (five, rotation_about_axis(1e-3)),  # off every symmetry: positivity only
        (polygon(8), np.eye(3)),  # the even identity is no isomorphism
        (house_model(), rotation_about_axis(0.3)),
        (turned, lopsided),  # normalization first, positivity after it
    ]


@pytest.mark.parametrize("tol", [None, 0.0, 1e-9, 1e-3])
def test_failing_maps_raise_like_the_reference(tol):
    errors = []
    for model, t in _failing_maps():
        got = outcome(state_from_isomorphism, t, model, tol)
        assert got == outcome(state_from_isomorphism_reference, t, model, tol)
        if isinstance(got, tuple):
            errors.append(got)
    assert any(message.startswith("u . T u") for _, message in errors)
    assert (ArithmeticError, "induced state failed local positivity") in errors
    # at 1e-3 the lopsided map's rounding passes normalization (and the
    # small rotation passes positivity)
    assert ((ArithmeticError, "induced state failed normalization") in errors) == (tol != 1e-3)


def test_positivity_rule_flips_at_the_margin():
    for model, angle in ((polygon(5), 1e-4), (polygon(7), 1e-3), (house_model(), 1e-4)):
        t = rotation_about_axis(angle)
        u = model.unit_effect
        margin = local_positivity_margin(JointState(t.T / float(u @ t @ u), model, model))
        assert -1e-3 < margin < -1e3 * ROUNDING_TOL
        for order in ((1 + 1e-6, 1 - 1e-6), (1 - 1e-6, 1 + 1e-6)):
            for factor in order:
                tol = -margin * factor
                got = outcome(state_from_isomorphism, t, model, tol)
                assert got == outcome(state_from_isomorphism_reference, t, model, tol)
                if factor > 1:
                    assert isinstance(got, bytes)
                else:
                    assert got == (ArithmeticError, "induced state failed local positivity")


def test_induced_state_membership_is_one_rule_check(monkeypatch):
    seen = []
    rule = selfdual._failed_membership_rule
    monkeypatch.setattr(selfdual, "_failed_membership_rule",
                        lambda state, tol: seen.append(tol) or rule(state, tol))
    model = polygon(7)
    for tol in (None, 1e-3):
        state_from_isomorphism(find_cone_isomorphisms(model)[0], model, tol)
    with pytest.raises(ArithmeticError, match="failed local positivity"):
        state_from_isomorphism(rotation_about_axis(1e-3), model, 0.0)
    assert seen == [resolve_tol(None), 1e-3, resolve_tol(0.0)]


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
