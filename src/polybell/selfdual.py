"""Cone isomorphisms, weak/strong self-duality, and the induced joint states.

A model is weakly self-dual when some invertible linear map sends the effect
cone onto the state cone, and strongly self-dual when a symmetric positive
semidefinite such map exists. Every isomorphism T induces a bipartite joint
state through ``(e, f) -> f . T(e) / u . T(u)``.

The search enumerates candidate bijections between ray-extremal effect rays
and extremal state rays, then solves each candidate linearly. Both ray
families are sorted by angle around the cone axis and the 2k cyclic
(dihedral) alignments are tried. For three-dimensional cones this is
complete, not a heuristic: a linear cone bijection maps two-dimensional
faces to two-dimensional faces, so it preserves ray adjacency, and the only
adjacency-preserving bijections of a k-cycle are the 2k dihedral ones. Rays
without an angular order (a ray with a non-positive third coordinate, or a
cone outside three dimensions) fall back to all k! bijections. The search
keeps one d x d map per candidate, so the fallback is refused, before any
candidate is solved, when those k! d^2 doubles would exceed
``_EXHAUSTIVE_ELEMENTS``.

Every candidate goes through one solver. In d dimensions, d + 1 rays in
general position (every d of them linearly independent) fix a linear map up
to scale: the projective frame. Distinct extremal rays of a pointed
three-dimensional cone are always in general position, since no three
extreme points of a convex polygon are collinear. So the frame is chosen
once per model: d + 1 effect rays spread evenly in angular order (spread
rays keep the system well conditioned at large k; adjacent ones would not).
Per candidate the unknowns are T plus one scale per frame ray. With E the
frame's effect rays and P their target states, ``T E^T = P^T diag(s)`` has
a solution exactly when ``P^T diag(s) N = 0``, where the columns of N span
the null space of E^T. One SVD of E per model gives N and pinv(E^T), so a
candidate solves only for its scales, a 3 x 4 system for a four-ray frame
in three dimensions, and is kept only if the whole solution family is
one-dimensional. Such a d x (d + 1) system needs no SVD: its signed
maximal minors span its null space, and by Cauchy-Binet their length, the
product of its singular values, proves full rank when it is large enough
against the system's Frobenius norm. Only a system they cannot prove full
rank, and a system of any other shape, goes to the SVD, so the nullity is
the SVD's (see :func:`_null_vectors`). Then ``T = P^T diag(s) pinv(E^T)``.
Every ray is checked at once: the images ``effects @ T^T``, each ray's
scale by projection onto its target state, and one residual, which the
rules below read.

Simplicial cones (k <= d) leave T underdetermined, so their frame is
every ray. Whenever the frame is every ray and a candidate's solution
family is wider than one, its scales are re-solved by SVD with
equal-scale tie rows, which pick the isometry-like member of the family.
The frame is also every ray when the spread rays are not in general
position, which happens only outside three dimensions (for example the
four-dimensional cone over a square pyramid, a direct sum of a ray and a
square cone).

Candidates are solved in stacked blocks, each block's temporaries held
to about ``_BLOCK_ELEMENTS`` doubles, so memory is O(k) per block. A
polygon model costs O(k^2) time: 2k candidates, each a constant-size
solve plus an O(k) check (about 0.2 s at k = 1024 and 0.7 s at k = 2048
on one core). The fallback feeds ``itertools.permutations`` through the
same blocks.

A candidate is an isomorphism when it passes five rules, here in report
order with their indices: nullity 0 (the solution family is
one-dimensional), sign 1 (all scales share a sign, which fixes the sign of
T), scale 2 (``||T||`` and the smallest scale of the Frobenius-normalized
T are at least ``tol``), residual 3 (that T's residual is at most
``_RESIDUAL_TOL``) and determinant 4 (``|det T| >= 1e-9``); of the ones
with one 8-decimal key, all but the first in candidate order are
rejected as duplicates. Only the scale rule reads ``tol``, so the search runs once per model object and keeps
tolerance-free facts per candidate: its T, its ``stage`` (the first other
rule it fails, 5 when it fails none) and its ``scale_margin``
(``min(||T||, smallest scale)``). Every call takes its verdicts afresh
against its own ``tol``, so a report is a pure function of the model and
``tol``.
:func:`self_duality` reports the isomorphisms, the strong witness with its
margins, how many candidates were tried and rejected by each rule, and how
many isomorphisms each witness rule turned away. It takes the spectra of
the symmetric isomorphisms only (n + 1 of a polygon's 2n for odd n, n for
even n): the PSD rule counts an isomorphism only once it has passed the
symmetry rule, and each spectrum is that matrix's alone, so the witness,
its smallest eigenvalue and every count are as with every spectrum taken.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .bipartite import JointState, _failed_membership_rule
from .core import ModelSpec, _dets, _spectra, psd_at, resolve_tol

# Most doubles the exhaustive fallback may keep in its candidate maps, k! d^2
# for k rays in d dimensions (2**22 doubles = 32 MiB). Traced by tracemalloc,
# a search peaks at 21-34 bytes per kept double: 88 MB for 8 rays in eight
# dimensions (2.6 M doubles, 0.7 s on one Xeon core) and 70 MB for 9 rays in
# three (3.3 M doubles, 1.3 s). So a search at the bound peaks near 0.15 GB.
_EXHAUSTIVE_ELEMENTS = 1 << 22

_RESIDUAL_TOL = 1e-9

# Singular values at or below this fraction of max(largest, 1) count as zero.
_RANK_CUTOFF = 1e-10

# Element budget of each per-block temporary of the isomorphism search
# (2**16 doubles = 512 KiB): the stacked scale systems, tie rows included,
# and the (b, k, d) ray images, targets and residuals.
_BLOCK_ELEMENTS = 1 << 16


def _cycle_order(rays: np.ndarray) -> np.ndarray | None:
    """Indices sorting rays by angle on the u = 1 cut, or None if not planar-cyclic."""
    if rays.shape[1] != 3 or np.any(rays[:, 2] <= 0):
        return None
    angles = np.arctan2(rays[:, 1] / rays[:, 2], rays[:, 0] / rays[:, 2])
    return np.argsort(angles, kind="stable")


def _dihedral_blocks(n_rays: int, effect_order: np.ndarray,
                     state_order: np.ndarray, block: int):
    """The 2k dihedral bijections, as (b, k) arrays of at most ``block`` rows.

    Candidate ``2 * offset`` sends the effect at angular position p to the
    state at position ``offset + p``, candidate ``2 * offset + 1`` to
    ``offset - p`` (both mod k).
    """
    candidates = np.arange(2 * n_rays)
    offsets = candidates // 2
    flips = 1 - 2 * (candidates % 2)
    base = np.arange(n_rays)
    for start in range(0, 2 * n_rays, block):
        rows = slice(start, start + block)
        positions = (offsets[rows, None] + flips[rows, None] * base) % n_rays
        perms = np.empty(positions.shape, dtype=int)
        perms[:, effect_order] = state_order.take(positions)
        yield perms


def _permutation_blocks(n_rays: int, block: int):
    """All k! bijections in lexicographic order, as (b, k) arrays."""
    perms = itertools.permutations(range(n_rays))
    while chunk := list(itertools.islice(perms, block)):
        yield np.array(chunk)


def _frame_system(effects: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, ...]:
    """The frame rays and the candidate-independent part of their solve.

    The frame is d + 1 rays spread along ``order`` when they are in general
    position, otherwise every ray. With E the frame's effect rays (f x d), a
    candidate with target states P solves ``T E^T = P^T diag(s)``, which has
    a solution exactly when ``P^T diag(s) N = 0`` for the columns of N
    spanning the null space of E^T, and then ``T = P^T diag(s) pinv(E^T)``.
    Returns the frame, N (f x m), pinv(E^T) (f x d) and the nullity that T
    adds on its own, ``d * (d - rank E)``.
    """
    k, d = effects.shape
    frame = np.arange(k)
    if k > d:
        spread = order[(np.arange(d + 1) * k) // (d + 1)]
        sv = np.linalg.svd(effects[spread[_leave_one_out(d + 1)]], compute_uv=False)
        if np.all(sv[:, -1] > _RANK_CUTOFF * np.maximum(sv[:, 0], 1.0)):
            frame = spread
    u, sv, vt = np.linalg.svd(effects[frame])
    rank = np.count_nonzero(sv > _RANK_CUTOFF * max(sv[0], 1.0))
    inverse = (u[:, :rank] / sv[:rank]) @ vt[:rank]
    return frame, u[:, rank:], inverse, d * (d - rank)


@functools.cache
def _leave_one_out(n: int) -> np.ndarray:
    """Row i lists 0..n-1 without i: a read-only (n, n - 1) index array."""
    kept = np.arange(n - 1)
    table = kept + (kept >= np.arange(n)[:, None])
    table.flags.writeable = False
    return table


def _svd_null_vectors(systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per stacked system, its last right-singular vector and its nullity."""
    _, sv, vt = np.linalg.svd(systems)
    rank = np.count_nonzero(sv > _RANK_CUTOFF * np.maximum(sv[:, :1], 1.0), axis=1)
    return vt[:, -1], systems.shape[2] - rank


def _null_vectors(systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per stacked system, a unit vector of its null space and its nullity.

    An r x (r + 1) system A of rank r has the one-dimensional null space
    spanned by its signed maximal minors ``c_j = (-1)^j det(A without
    column j)``. By Cauchy-Binet ``||c|| = s_1 ... s_r`` for the singular
    values s of A, and ``s_1 <= ||A||_F``, so
    ``||c|| > _RANK_CUTOFF * max(||A||_F, 1) * ||A||_F^(r - 1)`` proves
    ``s_r > _RANK_CUTOFF * max(s_1, 1)``: full rank by the SVD's rule. The
    systems this bound leaves unproved, and every stack of another shape,
    take :func:`_svd_null_vectors`, so the nullity is the SVD's everywhere.
    """
    b, rows, cols = systems.shape
    if rows == 0 or cols != rows + 1:
        return _svd_null_vectors(systems)
    minors = _dets(systems[:, :, _leave_one_out(cols)].transpose(0, 2, 1, 3))
    minors[:, 1::2] *= -1.0
    length = np.sqrt(np.sum(minors * minors, axis=1))
    size = np.sqrt(np.sum(systems * systems, axis=(1, 2)))
    proved = length > _RANK_CUTOFF * np.maximum(size, 1.0) * size ** (rows - 1)
    vectors = minors / np.where(proved, length, 1.0)[:, None]
    nullity = np.ones(b, dtype=np.intp)
    unproved = np.flatnonzero(~proved)
    if unproved.size:
        vectors[unproved], nullity[unproved] = _svd_null_vectors(systems[unproved])
    return vectors, nullity


# The rules in report order; a candidate's ``stage`` indexes them.
_RULES = ("nullity", "sign", "scale", "residual", "determinant")


@dataclass(frozen=True, eq=False)
class _Candidates:
    """Every candidate bijection of one search, in candidate order.

    ``transforms`` holds each solution T with its sign fixed by the projected
    scales and Frobenius-normalized. ``stage`` (an index into ``_RULES``, or
    5) and ``scale_margin`` are the tolerance-free facts of the module
    docstring, which each call compares with its own ``tol``. ``group``
    ranks each stage-5 candidate's 8-decimal key among the distinct keys of
    those candidates (-1 for the others), so equal ranks are duplicates and
    rank order is canonical order.
    """

    transforms: np.ndarray
    stage: np.ndarray
    scale_margin: np.ndarray
    group: np.ndarray


def _solve_block(effects: np.ndarray, states: np.ndarray, system: tuple[np.ndarray, ...],
                 perms: np.ndarray) -> tuple[np.ndarray, ...]:
    """Solve T e_i = scale_i * state_perm(i) for a block of candidates.

    ``system`` is :func:`_frame_system`'s. A candidate's frame scales s are
    solved first, from the d*m x f system ``P^T diag(s) N = 0``, and are
    kept when the whole solution family, T's own nullity included, is
    one-dimensional; when the frame is every ray, a wider family is
    re-solved with the tie rows ``s_j = s_{j+1}`` added. Then
    ``T = P^T diag(s) pinv(E^T)``, scaled so that (T, s) is a unit vector,
    is checked on every ray at once. Returns, one entry per candidate, the
    normalized T, the nullity and sign masks, the raw ``||T||``, the
    smallest normalized scale, and the residual and determinant masks.
    """
    frame, null, inverse, fixed = system
    k, d = effects.shape
    b, f = perms.shape[0], frame.size
    frame_targets = states.take(perms.take(frame, axis=1), axis=0)
    # row (r, q) reads sum_j P[j, r] N[j, q] s_j = 0
    scale_system = np.einsum("bjr,jq->brqj", frame_targets, null).reshape(b, -1, f)
    s, nullity = _null_vectors(scale_system)
    wide = nullity + fixed > 1
    if f == k and wide.any():
        ties = np.eye(f - 1, f) - np.eye(f - 1, f, 1)
        tied = np.concatenate(
            [scale_system[wide], np.broadcast_to(ties, (wide.sum(), f - 1, f))], axis=1)
        s[wide], nullity[wide] = _svd_null_vectors(tied)

    t = (frame_targets * s[..., None]).transpose(0, 2, 1) @ inverse
    t /= np.sqrt(1.0 + np.sum(t * t, axis=(1, 2)))[:, None, None]
    images = effects @ t.transpose(0, 2, 1)
    targets = states.take(perms, axis=0)
    scales = np.sum(images * targets, axis=-1) / np.sum(states * states, axis=1).take(perms)
    negative = np.all(scales < 0, axis=1)
    sign = np.all(scales > 0, axis=1) | negative
    norm = np.linalg.norm(t, axis=(1, 2))
    # scales of one sign imply T != 0; the others are rejected anyway
    factor = np.where(negative, -1.0, 1.0) / np.where(sign, norm, 1.0)
    scales *= factor[:, None]
    t = t * factor[:, None, None]
    residual = np.abs(images * factor[:, None, None] - scales[..., None] * targets)
    return (t, nullity + fixed == 1, sign, norm, scales.min(axis=1),
            residual.max(axis=(1, 2)) <= _RESIDUAL_TOL,
            np.abs(_dets(t)) >= 1e-9)


def _candidate_margins(model: ModelSpec) -> _Candidates:
    """Solve every candidate bijection once, keeping its margins.

    The candidates are the dihedral alignments when both ray families have
    an angular order, otherwise every permutation. Ray counts must match,
    otherwise no bijection exists and there are no candidates.
    """
    effects = model.ray_effects
    states = model.extremal_states
    k, d = effects.shape
    if k != states.shape[0] or k == 0:
        none = np.zeros(0, dtype=int)
        return _Candidates(np.zeros((0, d, d)), none, np.zeros(0), none)

    effect_order = _cycle_order(effects)
    state_order = _cycle_order(states)
    cyclic = effect_order is not None and state_order is not None
    if not cyclic and math.factorial(k) * d * d > _EXHAUSTIVE_ELEMENTS:
        raise ValueError(
            f"model rays admit no angular cycle ordering, and the maps of all {k}! bijections "
            f"in {d} dimensions exceed the exhaustive cap of {_EXHAUSTIVE_ELEMENTS} doubles"
        )

    system = _frame_system(effects, np.arange(k) if effect_order is None else effect_order)
    frame, null = system[:2]
    block = max(1, _BLOCK_ELEMENTS // max((d * null.shape[1] + frame.size) * frame.size, k * d))
    if cyclic:
        blocks = _dihedral_blocks(k, effect_order, state_order, block)
    else:
        blocks = _permutation_blocks(k, block)

    solved = [_solve_block(effects, states, system, perms) for perms in blocks]
    transforms, nullity, sign, norm, min_scale, residual, determinant = (
        np.concatenate(column) for column in zip(*solved))
    stage = np.full(nullity.size, 5)
    # from the last rule to the first, so each candidate keeps its first failure
    for index, ok in ((4, determinant), (3, residual), (1, sign), (0, nullity)):
        stage[~ok] = index
    return _Candidates(transforms, stage, np.minimum(norm, min_scale),
                       _group(transforms, np.flatnonzero(stage == 5)))


def _group(transforms: np.ndarray, passing: np.ndarray) -> np.ndarray:
    """Rank of each passing transform's 8-decimal key among the distinct keys.

    Keys compare entry by entry in row-major order, so -0.0 and 0.0 are one
    key; the transforms outside ``passing`` get -1.
    """
    width = math.prod(transforms.shape[1:])
    rounded = np.round(transforms[passing], 8).reshape(passing.size, width)
    order = np.lexsort(rounded.T[::-1])
    ordered = rounded[order]
    fresh = np.ones(passing.size, dtype=bool)
    fresh[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group = np.full(transforms.shape[0], -1)
    group[passing[order]] = np.cumsum(fresh) - 1
    return group


# Model -> its candidates, dihedral or (without an angular order) every
# permutation. A ModelSpec is immutable and hashes by identity, so an entry
# never goes stale, and it goes when the model does.
_SEARCHES: weakref.WeakKeyDictionary[ModelSpec, _Candidates] = weakref.WeakKeyDictionary()


def _searched(model: ModelSpec) -> _Candidates:
    """The model's candidates, solved on first use."""
    candidates = _SEARCHES.get(model)
    if candidates is None:
        candidates = _SEARCHES[model] = _candidate_margins(model)
    return candidates


def _accept(candidates: _Candidates, tol: float) -> tuple[np.ndarray, dict[str, int]]:
    """Indices of the isomorphisms accepted at ``tol``, and the rejections.

    A candidate past the first two rules whose ``scale_margin`` is not at
    least ``tol`` (nan included) fails the scale rule instead of any later
    one. A candidate that fails no rule is accepted when it is the first in
    candidate order with its key. The indices come in canonical (key) order.
    Each rejected candidate is counted under the first rule it fails, in the
    order of the returned dict.
    """
    c = candidates
    size = c.stage.size
    stage = np.where((c.stage < 2) | (c.scale_margin >= tol), c.stage, 2)
    counts = np.bincount(stage, minlength=6).tolist()
    kept = np.flatnonzero(stage == 5)
    first = np.full(size, size, dtype=np.intp)
    np.minimum.at(first, c.group[kept], kept)
    accepted = first[first < size]
    rejected = dict(zip(_RULES, counts))
    rejected["duplicate"] = kept.size - accepted.size
    return accepted, rejected


def find_cone_isomorphisms(model: ModelSpec, tol: float | None = None) -> list[np.ndarray]:
    """All linear bijections effect cone -> state cone, up to positive scale.

    Returns Frobenius-normalized matrices in a deterministic canonical
    order; the empty list means the search found no isomorphism (so the
    model is not weakly self-dual, for the model families this search is
    complete on). Ray counts must match, otherwise no bijection exists.
    The search runs once per model object.
    """
    tol = resolve_tol(tol)
    candidates = _searched(model)
    return list(candidates.transforms[_accept(candidates, tol)[0]])


@dataclass(frozen=True, eq=False)
class SelfDualityReport:
    """The cone isomorphisms of one model at one tolerance, and why.

    ``isomorphisms`` is :func:`find_cone_isomorphisms` at the same ``tol``.
    ``witness`` is the first of them, in canonical order, with
    ``max |T - T^T| <= tol`` (the rule "asymmetry") and ``(T + T^T) / 2``
    PSD at ``tol`` by :func:`~polybell.core.psd_at` (the rule "psd");
    ``witness_asymmetry`` and ``witness_min_eigenvalue`` are its asymmetry
    and smallest eigenvalue (all three None when no witness exists).
    ``witness_rejected`` counts the isomorphisms that fail the witness
    test, each under the first of the two rules it fails. Only the
    isomorphisms that pass "asymmetry" reach "psd", so only their spectra
    are taken; each spectrum depends on its own matrix alone, so the
    witness and both counts are those of every spectrum taken.
    ``candidates`` counts the bijections tried and ``rejected`` the ones
    each rule turned away: ``nullity`` (the solve's null space is not
    one-dimensional), ``sign`` (the ray scales do not share a sign),
    ``scale`` (``||T||`` or the smallest normalized scale is below
    ``tol``), ``residual``, ``determinant`` and ``duplicate`` (an earlier
    candidate has the same 8-decimal key), each candidate under the first
    rule it fails.
    """

    isomorphisms: list[np.ndarray]
    witness: np.ndarray | None
    witness_asymmetry: float | None
    witness_min_eigenvalue: float | None
    candidates: int
    rejected: dict[str, int]
    witness_rejected: dict[str, int]

    @property
    def weak(self) -> bool:
        return bool(self.isomorphisms)

    @property
    def strong(self) -> bool:
        return self.witness is not None


def self_duality(model: ModelSpec, tol: float | None = None) -> SelfDualityReport:
    """Weak and strong self-duality of ``model``, from its one search."""
    tol = resolve_tol(tol)
    candidates = _searched(model)
    accepted, rejected = _accept(candidates, tol)
    stack = candidates.transforms.take(accepted, axis=0)
    asymmetry = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    # only a symmetric isomorphism can be the witness or fail "psd"
    symmetric = np.flatnonzero(asymmetry <= tol)
    maps = stack.take(symmetric, axis=0)
    spectra = _spectra((maps + maps.transpose(0, 2, 1)) / 2.0)
    psd = np.flatnonzero(psd_at(spectra[:, 0], spectra[:, -1], tol))
    first = symmetric[psd[0]] if psd.size else None
    return SelfDualityReport(
        isomorphisms=list(stack),
        witness=None if first is None else stack[first],
        witness_asymmetry=None if first is None else float(asymmetry[first]),
        witness_min_eigenvalue=None if first is None else float(spectra[psd[0], 0]),
        candidates=candidates.stage.size,
        rejected=rejected,
        witness_rejected={"asymmetry": stack.shape[0] - symmetric.size,
                          "psd": symmetric.size - psd.size},
    )


def is_strongly_self_dual(model: ModelSpec,
                          tol: float | None = None) -> tuple[bool, np.ndarray | None]:
    """(True, witness) when a symmetric PSD cone isomorphism exists.

    The witness is the first isomorphism in canonical order that is
    symmetric within ``tol`` and PSD at ``tol``; see :func:`self_duality`
    for the margins behind the verdict.
    """
    report = self_duality(model, tol)
    return report.strong, report.witness


def state_from_isomorphism(t, model: ModelSpec,
                           tol: float | None = None) -> JointState:
    """The joint state induced by a cone isomorphism: matrix T^T / (u . T u).

    The pairing then satisfies e^T M f = f . T(e) / u . T(u). Raises
    ``ValueError`` when u . T u <= 0 and ``ArithmeticError`` when the result
    fails normalization or local positivity, which cannot happen for a
    genuine isomorphism.

    The checks are those of
    :func:`~polybell.bipartite.in_max_tensor_product`, in its order, taken
    from the same routine, which names the rule that failed.
    """
    tol = resolve_tol(tol)
    t = np.asarray(t, dtype=float)
    u = model.unit_effect
    height = float(u @ t @ u)
    if height <= 0:
        raise ValueError(f"u . T u = {height!r} must be positive")
    state = JointState(matrix=t.T / height, model_a=model, model_b=model)
    failed = _failed_membership_rule(state, tol)
    if failed is not None:
        raise ArithmeticError(f"induced state failed {failed}")
    return state


def rotation_about_axis(angle: float) -> np.ndarray:
    """Rotation by ``angle`` in the plane orthogonal to the cone axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
