"""Bipartite states over a pair of systems.

A joint state is represented by a ``dim_A x dim_B`` matrix ``M``: the joint
probability of local effects ``e`` (first system) and ``f`` (second system)
is the bilinear pairing ``e^T M f``. Membership in the maximal tensor product
(normalization plus positivity on all product effects), extremality, the
inner-product property, and local-map pushforwards are explicit operations;
the :class:`JointState` container itself does not enforce membership, so
non-member matrices can be represented and analyzed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelSpec, Measurement, _model_gap, _spectra, psd_at, resolve_tol

# Singular values below this fraction of the largest count as zero when
# :func:`is_extremal` ranks the active constraints.
_RANK_CUTOFF = 1e-8


@dataclass(frozen=True, eq=False)
class JointState:
    """A bipartite state: matrix of the bilinear form on effect pairs.

    Rows index the first system, columns the second. Immutable; construction
    checks only that the matrix is finite and of shape
    ``(model_a.dim, model_b.dim)``. Whether it is actually a valid joint
    state is checked by :func:`in_max_tensor_product`.
    """

    matrix: np.ndarray
    model_a: ModelSpec
    model_b: ModelSpec

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.shape != (self.model_a.dim, self.model_b.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match model dimensions "
                f"({self.model_a.dim}, {self.model_b.dim})"
            )
        if not np.isfinite(m).all():
            raise ValueError("joint state matrix has non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @functools.cached_property
    def _inner_product_margins(self) -> tuple[float, float, float, float]:
        """Tolerance-free numbers behind :func:`is_inner_product_state`.

        The model gap (see ``core._model_gap``), ``max |M - M^T|`` and the
        smallest and largest eigenvalues of ``(M + M^T) / 2``. The state is
        immutable, so they are computed on first use and kept; each caller
        compares them with its own ``tol``. The last three are nan when
        ``M`` is not square (the gap is then inf). A state over one model
        object on both sides, such as every state induced by a cone
        isomorphism, has gap 0.0 without an array comparison.
        """
        gap = _model_gap(self.model_a, self.model_b)
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            return gap, math.nan, math.nan, math.nan
        asymmetry = float(np.abs(m - m.T).max())
        spectrum = _spectra((m + m.T) / 2.0)
        return gap, asymmetry, float(spectrum[0]), float(spectrum[-1])


def normalization(state: JointState) -> float:
    """Pairing of the state with the product unit effect (1 for valid states)."""
    return float(state.model_a.unit_effect @ state.matrix @ state.model_b.unit_effect)


def local_positivity_margin(state: JointState) -> float:
    """Minimum of ``e_A^T M e_B`` over all extremal effect pairs.

    Non-negative (up to tolerance) exactly when the state assigns valid
    probabilities to every pair of proper effects, since proper effects are
    positive combinations of the ray-extremal ones and every listed extremal
    effect lies in the effect cone.
    """
    pairings = state.model_a.extremal_effects @ state.matrix @ state.model_b.extremal_effects.T
    return float(pairings.min())


def in_max_tensor_product(state: JointState, tol: float | None = None) -> bool:
    """Membership in the maximal tensor product of the two systems.

    Requires unit normalization and non-negative pairing with every product
    of extremal effects (sufficient for all product effects by convexity).
    """
    tol = resolve_tol(tol)
    if abs(normalization(state) - 1.0) > tol:
        return False
    return local_positivity_margin(state) >= -tol


def is_extremal(state: JointState, tol: float | None = None) -> bool:
    """Extremality of ``state`` in the maximal tensor product.

    A member of the polytope is extremal iff its active constraints, the
    product effects pairing to zero together with the normalization
    functional, span the full ``dim_A * dim_B``-dimensional space. The span
    is ranked by SVD with singular values below ``_RANK_CUTOFF`` times the
    largest treated as zero.

    Raises ``ValueError`` if the state is not in the maximal tensor product.
    """
    tol = resolve_tol(tol)
    if not in_max_tensor_product(state, tol):
        raise ValueError("state is not in the maximal tensor product")
    ea = state.model_a.extremal_effects
    eb = state.model_b.extremal_effects
    pairings = ea @ state.matrix @ eb.T
    rows = [np.outer(state.model_a.unit_effect, state.model_b.unit_effect).ravel()]
    for i, j in zip(*np.nonzero(pairings <= tol)):
        rows.append(np.outer(ea[i], eb[j]).ravel())
    stacked = np.stack(rows)
    s = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(s > _RANK_CUTOFF * s[0]))
    return rank == state.model_a.dim * state.model_b.dim


@dataclass(frozen=True)
class InnerProductReport:
    """Result of the inner-product test: symmetry and positive semidefiniteness.

    ``asymmetry`` is the max-abs entry of ``M - M^T``; ``min_eigenvalue`` is
    the smallest eigenvalue of the symmetrized matrix; ``model_gap`` is the
    largest entry difference between the two systems, which passed the
    similarity check against ``tol``.
    """

    symmetric: bool
    psd: bool
    asymmetry: float
    min_eigenvalue: float
    model_gap: float

    @property
    def is_inner_product(self) -> bool:
        return self.symmetric and self.psd


def is_inner_product_state(state: JointState,
                           tol: float | None = None) -> InnerProductReport:
    """Test whether a joint state of two similar systems is an inner-product state.

    Such states are symmetric under swapping the effect arguments and
    non-negative on all squares ``(e, e)``; for the matrix form this is
    symmetry of ``M`` plus positive semidefiniteness of ``(M + M^T) / 2``
    (by :func:`~polybell.core.psd_at`).

    The tolerance-free invariants (model gap, asymmetry, the two ends of
    the spectrum) are computed once per immutable :class:`JointState`; the
    verdict is taken on every call against this call's ``tol``.

    Raises ``ValueError`` when the two systems are not similar within ``tol``.
    """
    tol = resolve_tol(tol)
    symmetric, psd = _inner_product_rules(state, tol)
    gap, asymmetry, min_eig, _ = state._inner_product_margins
    return InnerProductReport(
        symmetric=symmetric,
        psd=psd,
        asymmetry=asymmetry,
        min_eigenvalue=min_eig,
        model_gap=gap,
    )


def _inner_product_rules(state: JointState, tol: float) -> tuple[bool, bool]:
    """The (symmetric, psd) verdicts of :func:`is_inner_product_state`, without its report.

    ``tol`` is a resolved tolerance. Raises the same ``ValueError`` when the
    two systems are not similar within ``tol``.
    """
    gap, asymmetry, min_eig, max_eig = state._inner_product_margins
    if gap > tol:
        raise ValueError("inner-product test requires two similar systems")
    return asymmetry <= tol, psd_at(min_eig, max_eig, tol)


def _check_local_map(tau: np.ndarray, model: ModelSpec, tol: float) -> None:
    """Raise unless ``tau`` preserves the state cone and the unit functional.

    Cone preservation is checked on the extremal states (sufficient by
    convexity), with membership certified against the ray-extremal effect
    generators of the dual cone.
    """
    if tau.shape != (model.dim, model.dim):
        raise ValueError(f"local map must be {model.dim}x{model.dim}, got {tau.shape}")
    u = model.unit_effect
    # "not <=" so that a nan in tau fails the check; tau is not checked finite
    if not float(np.abs(u @ tau - u).max()) <= tol:
        raise ValueError("local map does not preserve the unit functional")
    images = model.extremal_states @ tau.T  # rows: tau(omega_i)
    pairings = images @ model.extremal_effects.T
    if pairings.min() < -tol:
        raise ValueError("local map does not preserve the state cone")


def push_local_map(state: JointState, tau, tol: float | None = None) -> JointState:
    """Apply a cone- and unit-preserving linear map to the second system.

    Returns the pushed-forward state with matrix ``M @ tau^T``. Correlations
    of the result with effects ``f`` equal correlations of the original with
    the pulled-back effects ``tau^T f`` (see :func:`pull_back_measurement`).

    Raises ``ValueError`` if ``tau`` fails the cone or unit precondition.
    """
    tol = resolve_tol(tol)
    tau = np.asarray(tau, dtype=float)
    _check_local_map(tau, state.model_b, tol)
    return JointState(state.matrix @ tau.T, state.model_a, state.model_b)


def pull_back_measurement(tau, measurement: Measurement,
                          tol: float | None = None) -> Measurement:
    """Pull every outcome effect of a measurement back through ``tau``."""
    tau = np.asarray(tau, dtype=float)
    return Measurement(measurement.effects @ tau, measurement.model, tol=tol)
