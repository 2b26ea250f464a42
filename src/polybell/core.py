"""Core types for single probabilistic systems.

States and effects share one representation: real coordinate vectors of a
common dimension. An effect ``e`` applied to a state ``omega`` yields the
outcome probability ``e . omega`` (Euclidean pairing), so the same array can
play either role depending on context. A :class:`ModelSpec` bundles the
extremal states, the extremal effects, and the unit effect of one system;
a :class:`Measurement` is a finite list of effects resolving the unit.

Tolerances. A function's ``tol`` parameter covers the comparisons that
function makes. :func:`resolve_tol` turns ``None`` into ``DEFAULT_TOL`` =
1e-9, rejects negative, infinite and nan values, and raises anything below
the rounding floor ``ROUNDING_TOL`` = 1.4e-14 (64 machine epsilons) to it,
so ``tol = 0`` means "exact up to rounding". The largest rounding noise
measured on the library's own models is 1.8e-15 (the CHSH scan against
its closed form), 9.2e-16 (the odd polygons' witness asymmetry; 5.5e-16
for the house) and 4.4e-16 (polygon validation), over every n up to 256
and samples up to 2048: the floor sits at least 8 times above each, and
about 7e4 below the default.

Probabilities, coordinates and asymmetries are compared with ``tol``
absolutely. Positive semidefiniteness has one rule, :func:`psd_at`: the
lowest eigenvalue must be at least ``-tol`` times the larger of the
spectrum's two ends in absolute value. The inner-product test (on
``(M + M^T) / 2``, :func:`~polybell.bipartite.is_inner_product_state`),
the strong-self-duality witness (on ``(T + T^T) / 2``,
:func:`~polybell.selfdual.self_duality`) and the certificate
(:meth:`~polybell.q1.Q1Certificate.psd`) all call it.

Other thresholds are fixed and take no ``tol``:

- :class:`~polybell.correlations.CorrelationTable` checks negativity at
  ``DEFAULT_TOL``, the outcome sums at ``correlations._DISTRIBUTION_TOL``
  = 1e-10 and no-signalling at ``correlations._NO_SIGNALLING_TOL`` = 1e-10.
- Self-checks of computed results use 1e-12 (the distilled correlator, the
  delta decomposition, the pushforward correlations) and 1e-10 (the
  distillation identity, the house's 17/4); the house's CHSH check uses
  ``DEFAULT_TOL``.
- The isomorphism search accepts a residual up to
  ``selfdual._RESIDUAL_TOL`` = 1e-9 and a determinant of at least 1e-9,
  and deduplicates isomorphisms after rounding to 8 decimals.
- Rank cutoffs, relative to the largest singular value, are 1e-12 in
  :func:`validate_model`, ``selfdual._RANK_CUTOFF`` = 1e-10 in the
  isomorphism search and ``bipartite._RANK_CUTOFF`` = 1e-8 in
  :func:`~polybell.bipartite.is_extremal`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg

DEFAULT_TOL = 1e-9

# Floor of every resolved tolerance: 64 machine epsilons, about 1.4e-14.
ROUNDING_TOL = 64 * float(np.finfo(float).eps)

MODEL_SCHEMA_VERSION = 1


def resolve_tol(tol: float | None) -> float:
    """Return the effective tolerance: the global default when ``tol`` is None.

    A tolerance must be finite and non-negative: at ``inf`` every check
    would pass, and at ``nan`` every comparison would fail. Values below
    ``ROUNDING_TOL`` are raised to it, so no check is made finer than the
    rounding of the numbers it compares.
    """
    if tol is None:
        return DEFAULT_TOL
    tol = float(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and non-negative")
    return max(tol, ROUNDING_TOL)


def psd_at(lowest, highest, tol: float):
    """Whether a symmetric matrix is PSD at ``tol``, from its spectrum's ends.

    ``lowest`` and ``highest`` are its smallest and largest eigenvalues,
    floats or arrays of them. The rule is
    ``lowest >= -tol * max(|lowest|, |highest|)``, written as one
    comparison per end (the same test, since rounding is monotone), so it
    works elementwise on arrays and returns a plain bool for floats.
    ``tol`` is a resolved tolerance.
    """
    return (lowest >= -tol * abs(lowest)) | (lowest >= -tol * abs(highest))


def _no_convergence(err: str, flag: int) -> None:
    raise LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _spectra(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each in a stack.

    The LAPACK kernel behind ``np.linalg.eigvalsh``, reading the lower
    triangle, without the wrapper's input checks: for float64 input the
    result is bitwise that of ``np.linalg.eigvalsh``. Raises the same
    ``LinAlgError`` when LAPACK does not converge, as on a nan entry, and
    emits no warning. Every spectrum the library takes goes through it, as
    every determinant goes through :func:`_dets`; the two are the library's
    only calls into numpy's private ``_umath_linalg``.
    """
    return _umath_linalg.eigvalsh_lo(matrices, signature="d->d")


def _dets(matrices: np.ndarray) -> np.ndarray:
    """Determinant of each float64 matrix in a stack.

    The LAPACK kernel behind ``np.linalg.det``, without the wrapper's input
    checks, so the result is bitwise that of ``np.linalg.det``.
    """
    return _umath_linalg.det(matrices, signature="d->d")


def _as_int(value, what: str) -> int:
    """``value`` as an int: an ``int`` or a numpy integer, not a bool.

    Raises ``ValueError`` naming ``what`` for anything else, float and str
    included, so that no count is silently truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_vector(x, *, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a read-only 1-D float vector, checking finiteness."""
    v = np.array(x, dtype=float, copy=True)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    v.flags.writeable = False
    return v


def _as_matrix(x, *, cols: int, name: str) -> np.ndarray:
    """Coerce ``x`` to a read-only non-empty float matrix with ``cols`` finite columns."""
    m = np.array(x, dtype=float, copy=True)
    if m.ndim != 2 or m.shape[1] != cols or m.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array with {cols} columns")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A single system: extremal states, extremal effects, and the unit effect.

    ``extremal_effects`` lists every extremal point of the effect body apart
    from 0 and the unit; ``ray_extremal`` flags which of those lie on extremal
    rays of the effect cone (some models have extremal effects that are
    positive combinations of other effects and hence not ray-extremal).
    Instances are immutable; arrays are stored read-only.

    Construction checks shapes and finiteness only: a positive integer
    ``dim`` (not a bool or a float; stored as an ``int``), non-empty finite
    state and effect matrices with ``dim`` columns, a finite unit effect of
    length ``dim`` and one flag per effect (all True when omitted). The semantic invariants are :func:`validate_model`'s.
    """

    name: str
    dim: int
    extremal_states: np.ndarray
    extremal_effects: np.ndarray
    unit_effect: np.ndarray
    ray_extremal: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        # a bool or a float such as 3.0 would pass the shape checks, and a
        # float dim would not survive a JSON round trip
        dim = self.dim
        if (isinstance(dim, (bool, np.bool_)) or not isinstance(dim, (int, np.integer))
                or dim < 1):
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(
            self, "extremal_states",
            _as_matrix(self.extremal_states, cols=self.dim, name="extremal_states"),
        )
        object.__setattr__(
            self, "extremal_effects",
            _as_matrix(self.extremal_effects, cols=self.dim, name="extremal_effects"),
        )
        object.__setattr__(self, "unit_effect", as_vector(self.unit_effect, dim=self.dim))
        flags = self.ray_extremal
        if flags is None:
            flags = np.ones(self.extremal_effects.shape[0], dtype=bool)
        flags = np.array(flags, dtype=bool, copy=True)
        if flags.shape != (self.extremal_effects.shape[0],):
            raise ValueError("ray_extremal must have one flag per extremal effect")
        flags.flags.writeable = False
        object.__setattr__(self, "ray_extremal", flags)

    @property
    def n_states(self) -> int:
        return self.extremal_states.shape[0]

    @property
    def n_effects(self) -> int:
        return self.extremal_effects.shape[0]

    @functools.cached_property
    def ray_effects(self) -> np.ndarray:
        """The ray-extremal subset of ``extremal_effects`` (rows), read-only.

        The model is immutable, so the subset is taken on first use and the
        same array is returned on every later access.
        """
        rays = self.extremal_effects[self.ray_extremal]
        rays.flags.writeable = False
        return rays

    def to_dict(self) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "name": self.name,
            "dim": self.dim,
            "extremal_states": self.extremal_states.tolist(),
            "extremal_effects": self.extremal_effects.tolist(),
            "unit_effect": self.unit_effect.tolist(),
            "ray_extremal": self.ray_extremal.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        """Rebuild a model; ``ValueError`` when :func:`validate_model` rejects it.

        Outside input is not coerced: the name must be a string, ``dim`` an
        integer (not a bool or a float, which ``int`` would truncate), no
        entry of the arrays a bool or a string (``float`` would read them as
        numbers), and every ``ray_extremal`` flag a bool (``"no"``, ``2`` and
        ``0.5`` would all read as True).
        """
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError(f"name must be a string, got {name!r}")
        for key in ("extremal_states", "extremal_effects", "unit_effect"):
            entries = np.asarray(data[key], dtype=object).ravel()
            if any(isinstance(x, (bool, np.bool_, str, bytes)) for x in entries):
                raise ValueError(f"{key} entries must be numbers, not booleans or strings")
        flags = data.get("ray_extremal")
        if flags is not None:
            flags = np.asarray(flags)
            if flags.size and flags.dtype != bool:
                raise ValueError("ray_extremal flags must be booleans")
        model = cls(
            name=name,
            dim=data["dim"],
            extremal_states=data["extremal_states"],
            extremal_effects=data["extremal_effects"],
            unit_effect=data["unit_effect"],
            ray_extremal=flags,
        )
        report = validate_model(model)
        if not report.ok:
            raise ValueError(f"{model.name} failed validation: {report.summary()}")
        return model

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_dict(json.loads(text))


def _model_gap(a: ModelSpec, b: ModelSpec) -> float:
    """Largest absolute entry difference between two systems' arrays.

    Compares the extremal states, the extremal effects and the unit effect;
    ``inf`` when the dimensions, the state or effect counts, or the
    ray-extremal flags differ. Names are ignored.

    One model object against itself returns 0.0 without reading its
    arrays. That is the value the array path computes: a ``ModelSpec``'s
    arrays are finite and read-only, so ``x - x`` is exactly zero.
    """
    if a is b:
        return 0.0
    if (a.dim != b.dim or a.n_states != b.n_states or a.n_effects != b.n_effects
            or not np.array_equal(a.ray_extremal, b.ray_extremal)):
        return math.inf
    return max(
        float(np.abs(a.extremal_states - b.extremal_states).max()),
        float(np.abs(a.extremal_effects - b.extremal_effects).max()),
        float(np.abs(a.unit_effect - b.unit_effect).max()),
    )


@dataclass(frozen=True)
class ValidationFailure:
    """One violated model invariant, with the offending indices."""

    code: str
    message: str
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_model`: data, not an exception.

    Collecting every failure lets a caller (e.g. the CLI) print all problems
    at once instead of stopping at the first. The two margins are the
    numbers the tolerance checks compare with ``tol``, each failing where
    it exceeds ``tol``: ``normalization_margin`` is the largest
    ``|u . omega - 1|`` over extremal states, and ``range_margin`` the
    largest excess ``max(-p, p - 1)`` of a pairing ``p = e . omega`` of an
    extremal effect with an extremal state outside [0, 1], negative when
    every pairing lies strictly inside.
    """

    failures: tuple[ValidationFailure, ...] = ()
    normalization_margin: float = 0.0
    range_margin: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f.message for f in self.failures)


def validate_model(model: ModelSpec, tol: float | None = None) -> ValidationReport:
    """Check the semantic invariants of a model and report every violation.

    Checks: unit normalization of every extremal state, every extremal effect
    in range [0, 1] on every extremal state, and the extremal states affinely
    spanning a (dim-1)-dimensional set (full-dimensional state space).
    """
    tol = resolve_tol(tol)
    failures: list[ValidationFailure] = []

    norms = model.extremal_states @ model.unit_effect
    norm_gaps = np.abs(norms - 1.0)
    for i in np.flatnonzero(norm_gaps > tol):
        failures.append(ValidationFailure(
            code="state-not-normalized",
            message=f"state {i} has unit pairing {float(norms[i])!r}, expected 1",
            indices=(int(i),),
        ))

    pairings = model.extremal_effects @ model.extremal_states.T  # (effects, states)
    excess = np.maximum(-pairings, pairings - 1.0)
    for ei, si in zip(*np.nonzero(excess > tol)):
        failures.append(ValidationFailure(
            code="effect-out-of-range",
            message=(
                f"effect {ei} on state {si} gives {float(pairings[ei, si])!r}, "
                "outside [0, 1]"
            ),
            indices=(int(ei), int(si)),
        ))

    centered = model.extremal_states - model.extremal_states[0]
    s = np.linalg.svd(centered, compute_uv=False)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    if rank != model.dim - 1:
        failures.append(ValidationFailure(
            code="states-not-full-dimensional",
            message=(
                f"extremal states affinely span a {rank}-dimensional set, "
                f"expected {model.dim - 1}"
            ),
        ))

    return ValidationReport(failures=tuple(failures),
                            normalization_margin=float(norm_gaps.max()),
                            range_margin=float(excess.max()))


@dataclass(frozen=True, eq=False)
class Measurement:
    """A finite-outcome measurement: effects (rows) resolving the unit effect.

    Construction checks that ``effects`` is a non-empty finite matrix with
    ``model.dim`` columns, that the effects sum to the unit effect within
    ``tol`` (not stored), and that every effect is proper: its pairing with
    every extremal state of ``model`` lies in [-tol, 1 + tol]. The first
    improper outcome is the one named.
    """

    effects: np.ndarray
    model: ModelSpec
    tol: InitVar[float | None] = None

    def __post_init__(self, tol: float | None) -> None:
        effects = _as_matrix(self.effects, cols=self.model.dim, name="effects")
        object.__setattr__(self, "effects", effects)
        tol = resolve_tol(tol)
        total = effects.sum(axis=0)
        if not float(np.abs(total - self.model.unit_effect).max()) <= tol:
            raise ValueError("measurement effects do not sum to the unit effect")
        p = self.model.extremal_states @ effects.T  # (states, outcomes)
        # the two ends decide; the columns are read only to name an outcome
        if p.min() < -tol or p.max() > 1.0 + tol:
            improper = ((p < -tol) | (p > 1.0 + tol)).any(axis=0)
            # argmax of a bool array is its first True
            raise ValueError(f"measurement outcome {improper.argmax()} is not a proper effect")

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]


# dataclasses leave the InitVar's default behind as a class attribute, where
# ``meas.tol`` would read None; the generated ``__init__`` keeps its own copy
del Measurement.tol


def dichotomic_measurement(model: ModelSpec, ray_index: int,
                           tol: float | None = None) -> Measurement:
    """Two-outcome measurement {e, u - e} from ray-extremal effect ``ray_index``."""
    ray_index = _as_int(ray_index, "ray index")
    rays = model.ray_effects
    if not 0 <= ray_index < rays.shape[0]:
        raise ValueError(
            f"ray index {ray_index} out of range (model has {rays.shape[0]} "
            "ray-extremal effects)"
        )
    e = rays[ray_index]
    return Measurement(np.array([e, model.unit_effect - e]), model, tol=tol)


def simplex_model(n: int) -> ModelSpec:
    """Classical n-outcome system: the probability simplex in R^n.

    Extremal states are the standard basis vectors, extremal effects the
    coordinate read-outs, and the unit effect the all-ones vector.
    """
    n = _as_int(n, "classical level count")
    if n < 2:
        raise ValueError("a classical system needs at least 2 levels")
    eye = np.eye(n)
    return ModelSpec(
        name=f"classical-{n}",
        dim=n,
        extremal_states=eye,
        extremal_effects=eye,
        unit_effect=np.ones(n),
    )
