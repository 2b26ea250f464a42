"""Level-1 moment-matrix certificates for two-party correlation tables.

A table is in the first level of the moment-matrix hierarchy (Q1) iff there
is a positive-semidefinite matrix, indexed by the unit plus every outcome
effect of every setting on both sides, whose first row carries the
marginals, whose diagonal blocks carry the marginals on the diagonal and
zeros between distinct outcomes of one measurement, and whose off-diagonal
block carries the joint probabilities. Membership certifies that the table
admits a quantum-like covariance structure at first order.

For inner-product states such a certificate can be written down directly:
take the bilinear pairing of every pair of listed effects, then override the
diagonal blocks as required. The override differs from the pairing by a
block-diagonal correction that splits into pair matrices
``p * [[1, -1], [-1, 1]]`` with ``p >= 0``, hence stays PSD.

A certificate reads the inner-product test's tolerance-free margins
(model gap, asymmetry, the two ends of the spectrum), which are computed
once per immutable :class:`JointState` and kept on it, and compares them
with its call's ``tol`` through the test's own rules; the full
:class:`~polybell.bipartite.InnerProductReport` is built only to word the
error when the state fails. Which entries the override zeroes depends only
on the tuple of outcome counts, so that layout is built once per tuple and
kept. Each certificate's matrix ``gamma`` and its marginals are computed on
every call, from one shared product of the effects with the state.

A :class:`Q1Certificate` computes its spectrum from its own ``gamma`` and
takes none from its caller, so its verdict cannot disagree with its matrix.
A batched builder of many certificates' spectra (one stacked ``eigvalsh``)
must keep that property: build every certificate through this constructor,
or keep the stacked matrices and the spectra computed from them together
behind one private builder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bipartite import (
    JointState,
    _inner_product_rules,
    is_inner_product_state,
    pull_back_measurement,
    push_local_map,
)
from .core import Measurement, psd_at, resolve_tol
from .correlations import (
    TSIRELSON_BOUND,
    CorrelationTable,
    correlations_from_state,
    correlator,
)

CERTIFICATE_SCHEMA_VERSION = 1

UFFINK_BOUND = 4.0


@dataclass(frozen=True, eq=False)
class Q1Certificate:
    """A candidate moment matrix with its spectrum.

    ``gamma`` is the symmetric moment matrix, a numpy float array;
    construction checks its shape against the outcome counts and its exact
    symmetry, makes it read-only in place, without a copy, and computes
    ``eigen_spectrum``, its eigenvalues in ascending order (read-only).
    ``outcomes_a``/``outcomes_b`` record how the flat outcome labels split
    into measurements (one count per setting).
    :func:`certificate_from_inner_product_state` is the one constructor the
    library calls; its free entries come from the state's bilinear pairing.
    """

    gamma: np.ndarray
    outcomes_a: tuple[int, ...]
    outcomes_b: tuple[int, ...]
    eigen_spectrum: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = 1 + sum(self.outcomes_a) + sum(self.outcomes_b)
        if self.gamma.shape != (n, n):
            raise ValueError(f"gamma must be {n}x{n} for these outcome counts")
        # eigvalsh reads one triangle, so an asymmetric gamma would get the
        # spectrum of another matrix. Row-major against column-major bytes
        # is the cheap test; values decide when the bytes differ, as they
        # do where 0.0 mirrors -0.0.
        if (self.gamma.tobytes() != self.gamma.tobytes(order="F")
                and not np.array_equal(self.gamma, self.gamma.T)):
            raise ValueError("gamma must be symmetric")
        self.gamma.flags.writeable = False
        spectrum = np.linalg.eigvalsh(self.gamma)
        spectrum.flags.writeable = False
        object.__setattr__(self, "eigen_spectrum", spectrum)

    def psd(self, tol: float | None = None) -> bool:
        """Positive semidefiniteness at ``tol``, by :func:`~polybell.core.psd_at`."""
        # ascending order: the largest |eigenvalue| sits at one of the ends
        return psd_at(float(self.eigen_spectrum[0]), float(self.eigen_spectrum[-1]),
                      resolve_tol(tol))

    @property
    def psd_margin(self) -> float:
        """``lowest / max(|lowest|, |highest|)``, 0 for a zero spectrum.

        The number :func:`~polybell.core.psd_at` compares with ``-tol``: the
        certificate is PSD at ``tol`` when the margin is at least ``-tol``.
        """
        lowest, highest = float(self.eigen_spectrum[0]), float(self.eigen_spectrum[-1])
        size = max(abs(lowest), abs(highest))
        return lowest / size if size else 0.0

    def verdict(self, tol: float | None = None) -> str:
        """"in-Q1" when the certificate is PSD, else "undetermined"."""
        return "in-Q1" if self.psd(tol) else "undetermined"

    def to_dict(self, tol: float | None = None) -> dict:
        """The certificate as JSON data, with its verdict at ``tol``."""
        return {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "gamma": self.gamma.tolist(),
            "spectrum": self.eigen_spectrum.tolist(),
            "outcomes_A": list(self.outcomes_a),
            "outcomes_B": list(self.outcomes_b),
            # schema 1 keeps the key; every certificate is built from a state
            "free_entries_source": "from-state",
            "verdict": self.verdict(tol),
        }


@functools.lru_cache(maxsize=64)
def _override_layout(counts: tuple[int, ...]) -> np.ndarray:
    """Flat indices of the entries the certificate zeroes, for outcome counts ``counts``.

    These are the off-diagonal entries of each measurement's diagonal block
    in the (1 + sum(counts))-square moment matrix, row-major. They depend on
    nothing but the counts, so each tuple's indices are built once and kept
    read-only.
    """
    size = 1 + sum(counts)
    labels = np.repeat(np.arange(len(counts)), counts)
    rows, cols = np.nonzero((labels[:, None] == labels) & ~np.eye(size - 1, dtype=bool))
    flat = (rows + 1) * size + cols + 1
    flat.flags.writeable = False
    return flat


def certificate_from_inner_product_state(state: JointState,
                                         meas_a: Sequence[Measurement],
                                         meas_b: Sequence[Measurement],
                                         tol: float | None = None) -> Q1Certificate:
    """Constructive Q1 certificate for correlations of an inner-product state.

    Builds the pairing matrix of (unit, first-side effects, second-side
    effects) under the state's symmetric PSD bilinear form, overrides each
    diagonal measurement block to (marginals on the diagonal, zeros between
    distinct outcomes), and checks the result stays PSD. Raises
    ``ValueError`` when the state fails the inner-product test, since the
    construction would then be unsound (or the similarity error of
    :func:`~polybell.bipartite.is_inner_product_state` when the two systems
    differ). The state's inner-product margins are computed once per state
    and compared with ``tol`` here; the indices of the zeroed entries are
    kept per tuple of outcome counts; the matrix and marginals of every
    certificate are computed afresh, and the certificate computes its own
    spectrum.
    """
    tol = resolve_tol(tol)
    symmetric, psd = _inner_product_rules(state, tol)
    if not (symmetric and psd):
        report = is_inner_product_state(state, tol)
        raise ValueError(
            "certificate construction needs an inner-product state "
            f"(asymmetry {report.asymmetry!r}, min eigenvalue {report.min_eigenvalue!r})"
        )
    if not meas_a or not meas_b:
        raise ValueError("need at least one measurement")
    counts = [m.n_outcomes for side in (meas_a, meas_b) for m in side]
    outcomes_a = tuple(counts[:len(meas_a)])
    outcomes_b = tuple(counts[len(meas_a):])
    n_a = sum(outcomes_a)
    # rows: the unit, then every outcome effect, settings in order per side
    g = np.concatenate([state.model_a.unit_effect[None, :]]
                       + [x.effects for x in meas_a] + [x.effects for x in meas_b])
    gm = g @ state.matrix
    gamma = gm @ g.T
    gamma = (gamma + gamma.T) / 2.0

    # zero each measurement's diagonal block off its diagonal, then put the
    # marginals on the outcome diagonal
    flat = gamma.reshape(-1)
    flat[_override_layout(outcomes_a + outcomes_b)] = 0.0
    diagonal = flat[len(g) + 1::len(g) + 1]
    diagonal[:n_a] = gm[1:1 + n_a] @ state.model_b.unit_effect
    diagonal[n_a:] = gm[0] @ g[1 + n_a:].T

    cert = Q1Certificate(gamma, outcomes_a, outcomes_b)
    spectrum = cert.eigen_spectrum
    if not psd_at(float(spectrum[0]), float(spectrum[-1]), tol):
        raise ArithmeticError(
            "certificate unexpectedly not PSD "
            f"(min eigenvalue {float(spectrum[0])!r})"
        )
    return cert


def verify_delta_decomposition(state: JointState, measurement: Measurement,
                               tol: float | None = None) -> bool:
    """Check the PSD split of one diagonal-block override correction.

    For a measurement with outcomes e_1..e_r on an inner-product state, the
    correction (marginal diagonal minus the pairing block) must equal the sum
    over outcome pairs m < n of the matrix with ``p_mn`` at (m,m) and (n,n)
    and ``-p_mn`` at (m,n) and (n,m), where ``p_mn`` is the pairing of e_m
    with e_n. Each summand is PSD exactly when ``p_mn >= 0``, which local
    positivity guarantees. Returns True iff the sum matches entrywise to
    1e-12 and every ``p_mn`` is non-negative within tolerance.
    """
    tol = resolve_tol(tol)
    report = is_inner_product_state(state, tol)
    if not report.is_inner_product:
        raise ValueError("the block decomposition is defined for inner-product states")
    e = measurement.effects
    m = state.matrix
    pair = e @ m @ e.T
    marg = e @ m @ state.model_b.unit_effect
    correction = np.diag(marg) - pair

    # sum over m < n of p_mn (E_mm + E_nn - E_mn - E_nm): the pairing's
    # upper triangle mirrored, negated, with its row sums on the diagonal
    upper = np.triu(pair, 1)
    off = upper + upper.T
    total = np.diag(off.sum(axis=1)) - off
    psd_ok = not np.any(off < -tol)
    return psd_ok and float(np.abs(total - correction).max()) <= 1e-12


@dataclass(frozen=True)
class ConditionReport:
    """Necessary-condition screen for Q1 membership of a 2x2 dichotomic table.

    ``chsh_value`` is the best of the 8 sign-relabelled CHSH combinations,
    ``uffink_value`` the best of the 4 quadratic sign patterns. A violation
    of either bound proves the table is outside Q1; passing both proves
    nothing, hence the verdict "undetermined".
    """

    chsh_value: float
    chsh_ok: bool
    uffink_value: float
    uffink_ok: bool
    chsh_bound: float = TSIRELSON_BOUND
    uffink_bound: float = UFFINK_BOUND

    @property
    def verdict(self) -> str:
        return "undetermined" if (self.chsh_ok and self.uffink_ok) else "not-in-Q1"

    def to_dict(self) -> dict:
        return {
            "chsh_value": self.chsh_value,
            "chsh_bound": self.chsh_bound,
            "chsh_ok": self.chsh_ok,
            "uffink_value": self.uffink_value,
            "uffink_bound": self.uffink_bound,
            "uffink_ok": self.uffink_ok,
            "verdict": self.verdict,
        }


def q1_necessary_conditions(table: CorrelationTable,
                            tol: float | None = None) -> ConditionReport:
    """Screen settings 0 and 1 of each side against the Q1 necessary bounds."""
    tol = resolve_tol(tol)
    e = np.array([
        [correlator(table, 0, 0), correlator(table, 0, 1)],
        [correlator(table, 1, 0), correlator(table, 1, 1)],
    ])
    (e00, e01), (e10, e11) = e
    # the 8 relabellings with an odd number of minus signs: one minus sign
    # in each of 4 places, and the negation of each
    chsh_best = max(abs(-e00 + e01 + e10 + e11), abs(e00 - e01 + e10 + e11),
                    abs(e00 + e01 - e10 + e11), abs(e00 + e01 + e10 - e11))
    uffink_best = max(
        (e00 + e10) ** 2 + (e01 - e11) ** 2,
        (e00 - e10) ** 2 + (e01 + e11) ** 2,
        (e00 + e01) ** 2 + (e10 - e11) ** 2,
        (e00 - e01) ** 2 + (e10 + e11) ** 2,
    )
    return ConditionReport(
        chsh_value=float(chsh_best),
        chsh_ok=bool(chsh_best <= TSIRELSON_BOUND + tol),
        uffink_value=float(uffink_best),
        uffink_ok=bool(uffink_best <= UFFINK_BOUND + tol),
    )


def certificate_via_pushforward(omega: JointState, tau,
                                meas_a: Sequence[Measurement],
                                meas_b: Sequence[Measurement],
                                *, sigma: JointState,
                                tol: float | None = None) -> Q1Certificate:
    """Certify correlations of a pushed-forward state via its preimage.

    Requires ``omega == push_local_map(sigma, tau)`` with ``sigma`` an
    inner-product state; the second side's measurements are pulled back
    through the adjoint of ``tau`` and ``sigma`` is certified with them. The
    certified correlations are checked to match those of (omega, meas) to
    1e-12. Raises ``ValueError`` when the preimage or map fails a
    precondition.
    """
    tol = resolve_tol(tol)
    pushed = push_local_map(sigma, tau, tol)
    if float(np.abs(pushed.matrix - omega.matrix).max()) > tol:
        raise ValueError("omega is not the pushforward of sigma under tau")
    pulled = [pull_back_measurement(tau, m) for m in meas_b]
    cert = certificate_from_inner_product_state(sigma, meas_a, pulled, tol)
    direct = correlations_from_state(omega, meas_a, meas_b)
    certified = correlations_from_state(sigma, meas_a, pulled)
    gap = float(np.abs(direct.probs - certified.probs).max())
    if gap > 1e-12:
        raise ArithmeticError(f"certified correlations deviate by {gap!r}")
    return cert
