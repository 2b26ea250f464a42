"""Level-1 moment-matrix certificates for two-party correlation tables.

A table is in the first level of the moment-matrix hierarchy (Q1) iff there
is a positive-semidefinite matrix, indexed by the unit plus every outcome
effect of every setting on both sides, whose first row carries the
marginals, whose diagonal blocks carry the marginals on the diagonal and
zeros between distinct outcomes of one measurement, and whose off-diagonal
block carries the joint probabilities. Membership certifies that the table
admits a quantum-like covariance structure at first order.

For inner-product states such a certificate can be written down directly:
pair every two listed effects under the state's symmetric part
``S = (M + M^T) / 2``, then override the diagonal blocks, copying each
marginal from the unit row onto the diagonal. A measurement's effects sum
to the unit, so each marginal is the row sum of its pairing block, and the
override differs from the pairing by a block-diagonal correction that
splits into pair matrices ``p * [[1, -1], [-1, 1]]``, with ``p`` the
pairing of two outcomes of one measurement. So ``gamma = G S G^T`` plus
one weighted Laplacian ``L_m`` per measurement, up to rounding, also for a
state whose asymmetry is inside ``tol``: every entry is read through
``S``. Local positivity makes ``p >= 0``, hence the matrix stays PSD.
For such a state the joint block is the table of ``S``, which differs
from the state's own table ``e M f`` by up to the asymmetry. A direct
certificate does not compare the two; the pushforward check compares its
joint block with the pushed-forward table and refuses a gap over 1e-12.

One construction builds that matrix, ``_moment_matrix``. It runs the
inner-product gate and is the only code here that pairs effects under a
state: :func:`verify_delta_decomposition` reads one measurement's split
off its matrix, and :func:`certificate_via_pushforward` compares the
certificate's own joint block with the pushed-forward table. Two consumers
build certificates from it. :func:`certificate_from_inner_product_state`
builds it for the settings it is given. :func:`certificates_for_selections`
builds it once for all listed settings and slices out the principal
submatrix of each selection of settings: every measurement's override is a
block of its own, so each slice is the matrix the first consumer would
build for that selection. By Cauchy interlacing the lowest eigenvalue of a
principal submatrix is at least that of the whole matrix, so if the matrix
over all listed settings is PSD, so is every sub-selection's.

A certificate reads the inner-product test's tolerance-free margins
(model gap, asymmetry, the two ends of the spectrum), which are computed
once per immutable :class:`JointState` and kept on it, and compares them
with its call's ``tol`` through the test's own rules; the full
:class:`~polybell.bipartite.InnerProductReport` is built only to word the
error when the state fails. Which entries the override zeroes depends only
on the tuple of outcome counts, so that layout is built once per tuple and
kept. Each certificate's matrix ``gamma`` is computed on every call, and
its marginals are copied from its own unit row.

A :class:`Q1Certificate` computes its spectrum from its own ``gamma`` and
takes none from its caller, so its verdict cannot disagree with its matrix.
Both consumers keep that property through one private builder,
``_certificates``: it runs the constructor's shape and symmetry checks on
one matrix or a stack of them, takes their spectra in one call and pairs
each matrix with the spectrum computed from it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .bipartite import (
    JointState,
    _inner_product_rules,
    is_inner_product_state,
    pull_back_measurement,
    push_local_map,
)
from .core import Measurement, _as_int, _spectra, psd_at, resolve_tol
from .correlations import (
    TSIRELSON_BOUND,
    CorrelationTable,
    correlations_from_state,
    correlator,
)

CERTIFICATE_SCHEMA_VERSION = 1

UFFINK_BOUND = 4.0

# the most matrix entries :func:`certificates_for_selections` stacks at once
# (512 KiB of doubles)
_SELECTION_BLOCK_ELEMENTS = 2**16


def _frozen_spectra(gammas: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Check ``gammas``, make it read-only in place, return its read-only spectra.

    ``gammas`` is one matrix or a stack of them and must have ``shape``.
    Each matrix must be exactly symmetric: eigvalsh reads one triangle, so
    an asymmetric one would get the spectrum of another matrix. Bytes
    against the bytes of the transpose is the cheap test; values decide
    when the bytes differ, as they do where 0.0 mirrors -0.0.
    """
    if gammas.shape != shape:
        raise ValueError(f"gamma must be {shape[-2]}x{shape[-1]} for these outcome counts")
    mirrored = gammas.swapaxes(-1, -2)
    if gammas.tobytes() != mirrored.tobytes() and not np.array_equal(gammas, mirrored):
        raise ValueError("gamma must be symmetric")
    gammas.setflags(write=False)
    spectra = _spectra(gammas)
    spectra.setflags(write=False)
    return spectra


@dataclass(frozen=True, eq=False)
class Q1Certificate:
    """A candidate moment matrix with its spectrum.

    ``gamma`` is the symmetric moment matrix, a float64 numpy array;
    construction refuses anything else, checks its shape against the
    outcome counts and its exact symmetry, makes it read-only in place,
    without a copy, and computes ``eigen_spectrum``, its eigenvalues in
    ascending order (read-only). ``outcomes_a``/``outcomes_b`` record how
    the flat outcome labels split into measurements (one count per setting,
    each an integer of at least 1; kept as tuples of int).
    :func:`certificate_from_inner_product_state` and
    :func:`certificates_for_selections` build the library's certificates;
    their free entries come from the state's bilinear pairing.
    """

    gamma: np.ndarray
    outcomes_a: tuple[int, ...]
    outcomes_b: tuple[int, ...]
    eigen_spectrum: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        gamma = self.gamma
        if not isinstance(gamma, np.ndarray) or gamma.dtype != np.float64:
            got = f"{gamma.dtype} array" if isinstance(gamma, np.ndarray) else type(gamma).__name__
            raise ValueError(f"gamma must be a float64 numpy array, got {got}")
        outcomes_a = tuple(_as_int(k, "outcomes_a count") for k in self.outcomes_a)
        outcomes_b = tuple(_as_int(k, "outcomes_b count") for k in self.outcomes_b)
        if min(outcomes_a + outcomes_b, default=1) < 1:
            raise ValueError("every setting needs at least one outcome")
        object.__setattr__(self, "outcomes_a", outcomes_a)
        object.__setattr__(self, "outcomes_b", outcomes_b)
        n = 1 + sum(outcomes_a) + sum(outcomes_b)
        object.__setattr__(self, "eigen_spectrum", _frozen_spectra(gamma, (n, n)))

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


def _certificates(gammas: np.ndarray, outcomes_a: tuple[int, ...],
                  outcomes_b: tuple[int, ...], tol: float) -> list[Q1Certificate]:
    """Certificates for one moment matrix, or one per matrix of a stack.

    ``gammas`` is a matrix this module built, or a stack of them, all with
    the outcome counts ``outcomes_a``/``outcomes_b``. It passes the checks
    of the :class:`Q1Certificate` constructor, and each certificate keeps
    its matrix with the spectrum computed from it here (read-only views
    into a stack and its spectra). ``tol`` is a resolved tolerance; raises
    ``ArithmeticError`` at the first matrix that is not PSD at it.
    """
    size = 1 + sum(outcomes_a) + sum(outcomes_b)
    spectra = _frozen_spectra(gammas, gammas.shape[:-2] + (size, size))
    pairs = zip(gammas, spectra) if gammas.ndim == 3 else [(gammas, spectra)]
    certs = []
    for gamma, spectrum in pairs:
        lowest = float(spectrum[0])
        if not psd_at(lowest, float(spectrum[-1]), tol):
            raise ArithmeticError(
                f"certificate unexpectedly not PSD (min eigenvalue {lowest!r})")
        # the constructor's checks and spectrum are done above
        cert = object.__new__(Q1Certificate)
        vars(cert).update(gamma=gamma, outcomes_a=outcomes_a, outcomes_b=outcomes_b,
                          eigen_spectrum=spectrum)
        certs.append(cert)
    return certs


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


def _moment_matrix(state: JointState, meas_a: Sequence[Measurement],
                   meas_b: Sequence[Measurement], tol: float
                   ) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """The certificate's matrix for these settings, and the outcome counts per side.

    Raises ``ValueError`` unless ``state`` passes the inner-product test at
    the resolved ``tol``. Rows and columns run over the unit, then every
    outcome effect, settings in order on each side. Entries pair the
    effects under the state's symmetric part; each measurement's diagonal
    block then holds its marginals, the unit row's entries, on the diagonal
    and zeros off it. This is the one place in the module that pairs
    effects under a state.
    """
    symmetric, psd = _inner_product_rules(state, tol)
    if not (symmetric and psd):
        report = is_inner_product_state(state, tol)
        raise ValueError(
            "certificate construction needs an inner-product state "
            f"(asymmetry {report.asymmetry!r}, min eigenvalue {report.min_eigenvalue!r})"
        )
    if not meas_a or not meas_b:
        raise ValueError("need at least one measurement")
    effects = [m.effects for m in meas_a]
    outcomes_a = tuple([len(e) for e in effects])
    effects += [m.effects for m in meas_b]
    counts = tuple([len(e) for e in effects])
    g = np.concatenate((state.model_a.unit_effect[None, :], *effects))
    gamma = g @ state.matrix @ g.T
    gamma = (gamma + gamma.T) / 2.0

    # zero each measurement's diagonal block off its diagonal, then copy the
    # unit row onto the outcome diagonal (a stride of size + 1 in flat)
    flat = gamma.reshape(-1)
    flat[_override_layout(counts)] = 0.0
    step = len(g) + 1
    flat[step::step] = gamma[0, 1:]
    return gamma, outcomes_a, counts[len(outcomes_a):]


def certificate_from_inner_product_state(state: JointState,
                                         meas_a: Sequence[Measurement],
                                         meas_b: Sequence[Measurement],
                                         tol: float | None = None) -> Q1Certificate:
    """Constructive Q1 certificate for correlations of an inner-product state.

    Builds the pairing matrix of (unit, first-side effects, second-side
    effects) under the state's symmetric PSD bilinear form, overrides each
    diagonal measurement block to (marginals on the diagonal, zeros between
    distinct outcomes, the marginals copied from the unit row), and checks
    the result stays PSD. Raises
    ``ValueError`` when the state fails the inner-product test, since the
    construction would then be unsound (or the similarity error of
    :func:`~polybell.bipartite.is_inner_product_state` when the two systems
    differ). The state's inner-product margins are computed once per state
    and compared with ``tol`` here; the indices of the zeroed entries are
    kept per tuple of outcome counts; the matrix of every certificate is
    computed afresh, and the certificate's spectrum is computed from its
    own matrix.
    """
    tol = resolve_tol(tol)
    gamma, outcomes_a, outcomes_b = _moment_matrix(state, meas_a, meas_b, tol)
    return _certificates(gamma, outcomes_a, outcomes_b, tol)[0]


def certificates_for_selections(state: JointState, meas_a: Sequence[Measurement],
                                meas_b: Sequence[Measurement],
                                selections: Iterable[tuple[Sequence[int], Sequence[int]]],
                                tol: float | None = None) -> Iterator[Q1Certificate]:
    """Certificates for many selections of settings, from one moment matrix.

    Each selection is a pair ``(settings_a, settings_b)`` of integer
    indices into ``meas_a`` and ``meas_b``, non-empty and without repeats
    on each side; every selection lists the same number of settings on the
    first side, and on the second. Yields, in order, one certificate per
    selection, bitwise the one :func:`certificate_from_inner_product_state`
    builds from ``[meas_a[i] for i in settings_a]`` and ``[meas_b[j] for j
    in settings_b]`` at ``tol``; a state that one rejects, so does this.

    The matrix over all of ``meas_a`` and ``meas_b`` is built once, and the
    inner-product test is run once, before this returns. Each selection's
    matrix is its principal submatrix. Selections are read in chunks, and
    the matrices sliced and their spectra taken in stacks of at most
    ``_SELECTION_BLOCK_ELEMENTS`` entries (or of one matrix, where a single
    one is larger); a chunk of selections fills about one stack. So the
    memory held at once, however many selections there are, is the full
    matrix plus one stack: its matrices, twice their bytes again for the
    symmetry check, and per matrix its indices, spectrum and certificate
    object (under 1.5 KiB), as long as the caller drops each certificate
    it has checked. A selection's errors are raised when its chunk is
    read, before any of the chunk's certificates is yielded.
    """
    tol = resolve_tol(tol)
    gamma, outcomes_a, outcomes_b = _moment_matrix(state, meas_a, meas_b, tol)
    return _sliced(gamma, outcomes_a, outcomes_b, iter(selections), tol)


def _sliced(gamma: np.ndarray, outcomes_a: tuple[int, ...], outcomes_b: tuple[int, ...],
            selections: Iterator[tuple[Sequence[int], Sequence[int]]],
            tol: float) -> Iterator[Q1Certificate]:
    """The generator behind :func:`certificates_for_selections`.

    Settings are numbered over both sides, the second side's after the
    first's. A run of selections whose settings have the same outcome
    counts, position by position, shares stacks.
    """
    counts = np.array(outcomes_a + outcomes_b)
    starts = np.cumsum(counts) - counts + 1  # each setting's first row in gamma
    # a chunk is as many selections as fill one stack of the last run's
    # matrices; the first chunk is one selection
    widths, limit = None, 1
    while chunk := list(itertools.islice(selections, limit)):
        settings, widths = _chunk_settings(chunk, len(outcomes_a), len(outcomes_b), widths)
        width_a = widths[0]
        while len(settings):
            per_setting = counts[settings]
            same = (per_setting == per_setting[0]).all(axis=1)
            run = len(settings) if same.all() else int(same.argmin())
            first = per_setting[0]
            size = 1 + int(first.sum())
            limit = max(1, _SELECTION_BLOCK_ELEMENTS // size**2)
            run = min(run, limit)
            # row of every outcome of every selected setting, after the unit row
            position = np.repeat(np.arange(len(first)), first)
            within = np.arange(size - 1) - np.repeat(np.cumsum(first) - first, first)
            index = np.zeros((run, size), dtype=np.intp)
            index[:, 1:] = starts[settings[:run, position]] + within
            yield from _certificates(gamma[index[:, :, None], index[:, None, :]],
                                     tuple(first[:width_a].tolist()),
                                     tuple(first[width_a:].tolist()), tol)
            settings = settings[run:]


_SAME_WIDTHS = ("each side of a selection must be a sequence of setting indices, "
                "the same number in every selection")


def _chunk_settings(chunk: list, n_a: int, n_b: int, widths: tuple[int, int] | None
                    ) -> tuple[np.ndarray, tuple[int, int]]:
    """A chunk of selections as one (selections, settings) integer array, checked.

    Second-side settings are numbered after the ``n_a`` first-side ones.
    ``widths`` are the setting counts per side in earlier chunks, if any;
    returns them for this one.
    """
    sides = []
    for side, count in ((0, n_a), (1, n_b)):
        try:
            settings = np.array([selection[side] for selection in chunk])
        except ValueError:
            settings = None
        if settings is None or settings.ndim != 2:
            raise ValueError(_SAME_WIDTHS)
        if settings.shape[1] == 0:
            raise ValueError("need at least one measurement")
        if settings.dtype.kind not in "iu":
            raise TypeError("setting indices must be integers")
        rows = np.nonzero((settings < 0).any(axis=1) | (settings >= count).any(axis=1))[0]
        if len(rows):
            raise IndexError(f"selection {chunk[rows[0]]!r} has a setting index out of range")
        ordered = np.sort(settings, axis=1)
        rows = np.nonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))[0]
        if len(rows):
            raise ValueError(f"selection {chunk[rows[0]]!r} repeats a setting")
        sides.append(settings + side * n_a)
    found = (sides[0].shape[1], sides[1].shape[1])
    if widths not in (None, found):
        raise ValueError(_SAME_WIDTHS)
    return np.concatenate(sides, axis=1), found


def verify_delta_decomposition(state: JointState, measurement: Measurement,
                               tol: float | None = None) -> bool:
    """Check the PSD split of one diagonal-block override correction.

    For a measurement with outcomes e_1..e_r on an inner-product state, the
    correction (marginal diagonal minus the pairing block) must equal the sum
    over outcome pairs m < n of the matrix with ``p_mn`` at (m,m) and (n,n)
    and ``-p_mn`` at (m,n) and (n,m), where ``p_mn`` is the pairing of e_m
    with e_n. Each summand is PSD exactly when ``p_mn >= 0``, which local
    positivity guarantees. The pairings and marginals are those of the
    certificate for this measurement on both sides: its cross block and its
    unit row. Returns True iff the sum matches entrywise to 1e-12 and every
    ``p_mn`` is non-negative within tolerance.

    The state must pass the same inner-product gate as the certificates:
    otherwise this raises their ``ValueError``, which names the
    state's asymmetry and smallest eigenvalue (or the similarity error of
    :func:`~polybell.bipartite.is_inner_product_state` when the two systems
    differ).
    """
    tol = resolve_tol(tol)
    gamma, _, _ = _moment_matrix(state, [measurement], [measurement], tol)
    r = measurement.n_outcomes
    pair = gamma[1:1 + r, 1 + r:]
    correction = np.diag(gamma[0, 1:1 + r]) - pair

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
    nothing, hence the verdict "undetermined". The bounds are fixed class
    constants: Tsirelson's 2*sqrt(2) and the quadratic bound 4.
    """

    chsh_value: float
    chsh_ok: bool
    uffink_value: float
    uffink_ok: bool
    chsh_bound: ClassVar[float] = TSIRELSON_BOUND
    uffink_bound: ClassVar[float] = UFFINK_BOUND

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
    certificate's own joint block is checked to match the table of
    (omega, meas) to 1e-12; building that table checks it is a probability
    table. Raises ``ValueError`` when the preimage or map fails a
    precondition.
    """
    tol = resolve_tol(tol)
    pushed = push_local_map(sigma, tau, tol)
    if float(np.abs(pushed.matrix - omega.matrix).max()) > tol:
        raise ValueError("omega is not the pushforward of sigma under tau")
    pulled = [pull_back_measurement(tau, m, tol) for m in meas_b]
    cert = certificate_from_inner_product_state(sigma, meas_a, pulled, tol)
    # omega's table in the certificate's order: (setting, outcome) pairs
    # row-major on each side, padding left out
    table = correlations_from_state(omega, meas_a, meas_b)
    x, a = np.nonzero(np.arange(table.probs.shape[0]) < np.array(table.outcomes_a)[:, None])
    y, b = np.nonzero(np.arange(table.probs.shape[1]) < np.array(table.outcomes_b)[:, None])
    joint = table.probs[a[:, None], b, x[:, None], y]
    gap = float(np.abs(joint - cert.gamma[1:1 + len(a), 1 + len(a):]).max())
    if gap > 1e-12:
        raise ArithmeticError(f"certified correlations deviate by {gap!r}")
    return cert
