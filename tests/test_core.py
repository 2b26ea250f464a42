import json
import math
import tracemalloc
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from polybell import core
from polybell.core import (
    DEFAULT_TOL,
    ROUNDING_TOL,
    Measurement,
    ModelSpec,
    _as_matrix,
    _model_gap,
    _spectra,
    dichotomic_measurement,
    resolve_tol,
    simplex_model,
    validate_model,
)
from polybell.correlations import ray_settings
from polybell.house import house_model
from polybell.polygon import polygon

from helpers import tilted


def square_model() -> ModelSpec:
    # hand-built unit square: states (±1, ±1, 1), effects the four halves
    states = np.array([
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
    ])
    effects = np.array([
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
        [-0.5, 0.0, 0.5],
        [0.0, -0.5, 0.5],
    ])
    return ModelSpec(
        name="square",
        dim=3,
        extremal_states=states,
        extremal_effects=effects,
        unit_effect=np.array([0.0, 0.0, 1.0]),
    )


def test_resolve_tol():
    assert resolve_tol(None) == DEFAULT_TOL
    assert resolve_tol(1e-6) == 1e-6
    # tolerances below the rounding floor are raised to it; no others move
    assert ROUNDING_TOL == 64 * np.finfo(float).eps
    for tol in (0.0, 0, 1e-300, 1e-17, 1e-16, 1e-15, ROUNDING_TOL * (1 - 1e-6)):
        assert resolve_tol(tol) == ROUNDING_TOL
    for tol in (ROUNDING_TOL, ROUNDING_TOL * (1 + 1e-6), 1e-12, 1e-9, 0.5, 3.0):
        assert resolve_tol(tol) == tol
    with pytest.raises(ValueError):
        resolve_tol(-1e-9)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            resolve_tol(bad)


def test_model_arrays_read_only():
    m = square_model()
    with pytest.raises(ValueError):
        m.extremal_states[0, 0] = 2.0


def test_validate_square_model():
    report = validate_model(square_model())
    assert report.ok, report.summary()


def test_validate_catches_bad_state():
    m = square_model()
    states = m.extremal_states.copy()
    states[1] = [0.0, 0.0, 2.0]
    bad = ModelSpec("square", 3, states, m.extremal_effects, m.unit_effect)
    report = validate_model(bad)
    assert not report.ok
    codes = {f.code for f in report.failures}
    assert "state-not-normalized" in codes


def test_validate_catches_improper_effect():
    m = square_model()
    effects = m.extremal_effects.copy()
    effects[0] = [2.0, 0.0, 0.5]
    bad = ModelSpec("square", 3, m.extremal_states, effects, m.unit_effect)
    report = validate_model(bad)
    assert any(f.code == "effect-out-of-range" for f in report.failures)


def test_validate_catches_degenerate_states():
    states = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.5, 0.0, 1.0]])
    effects = np.array([[0.0, 0.0, 1.0]])
    bad = ModelSpec("segment", 3, states, effects, np.array([0.0, 0.0, 1.0]))
    report = validate_model(bad)
    assert any(f.code == "states-not-full-dimensional" for f in report.failures)


def test_measurement_must_resolve_unit():
    m = square_model()
    with pytest.raises(ValueError, match="sum to the unit"):
        Measurement(np.array([[0.5, 0.0, 0.5], [-0.5, 0.0, 0.4]]), m)


def test_measurement_takes_tol_without_storing_it():
    m = square_model()
    effects = np.array([[0.5, 0.0, 0.5], [-0.5, 0.0, 0.5 + 1e-6]])
    with pytest.raises(ValueError, match="sum to the unit"):
        Measurement(effects, m)
    meas = Measurement(effects, m, tol=1e-5)
    assert "tol" not in {f.name for f in fields(meas)}
    assert "tol" not in vars(meas)


def test_measurement_unit_check_flips_at_tol():
    # the effects sum to the unit plus d on a coordinate where the unit is
    # 0, so the excess is exactly d; d = tol * (1 -+ 1e-6) sits on either
    # side of the bound and d = tol on it (accepted, as under allclose); both
    # effects stay well inside the proper range
    m = square_model()
    for tol in (1e-12, 1e-9, 1e-6, 1e-3):
        for factor, accepted in ((1 - 1e-6, True), (1 + 1e-6, False), (1.0, True)):
            d = tol * factor
            effects = np.array([[0.25, d, 0.5], [-0.25, 0.0, 0.5]])
            if accepted:
                assert Measurement(effects, m, tol=tol).n_outcomes == 2
            else:
                with pytest.raises(ValueError, match="sum to the unit"):
                    Measurement(effects, m, tol=tol)


def test_measurement_unit_check_is_the_allclose_rule():
    # the check it replaced, on seeded sums around the bound on every coordinate
    m = square_model()
    rng = np.random.default_rng(1012)
    for _ in range(500):
        tol = float(10.0 ** rng.uniform(-12, -3))
        shift = rng.uniform(-2.0, 2.0, size=3) * tol
        effects = np.array([[0.5, 0.0, 0.5], [-0.5, 0.0, 0.5]])
        effects[1] += shift * (rng.uniform(size=3) < 0.7)
        total = effects.sum(axis=0)
        expected = bool(np.allclose(total, m.unit_effect, atol=tol, rtol=0.0))
        try:
            Measurement(effects, m, tol=tol)
        except ValueError as exc:
            # an improper outcome is checked after the unit, which passed
            assert ("sum to the unit" in str(exc)) is not expected, str(exc)
        else:
            assert expected


def test_measurement_tol_is_not_readable():
    # neither the default nor the tolerance a measurement was checked at
    meas = ray_settings(polygon(5), 1, tol=1e-3)[0]
    with pytest.raises(AttributeError):
        meas.tol
    m = square_model()
    effects = np.array([[0.5, 0.0, 0.5], [-0.5, 0.0, 0.5]])
    for meas in (Measurement(effects, m), Measurement(effects, m, tol=1e-5),
                 Measurement(effects, m, 1e-5)):
        assert meas.n_outcomes == 2
        with pytest.raises(AttributeError):
            meas.tol
    with pytest.raises(ValueError, match="tolerance must be finite"):
        Measurement(effects, m, tol=-1.0)


def test_measurement_rejects_improper_outcome():
    m = square_model()
    with pytest.raises(ValueError, match="outcome 0 is not a proper effect"):
        Measurement(np.array([[1.5, 0.0, 0.5], [-1.5, 0.0, 0.5]]), m)
    # only the middle outcome goes negative (on the second vertex)
    tri = simplex_model(3)
    effects = np.array([[1.0, 0.6, 0.0], [0.0, -0.2, 0.0], [0.0, 0.6, 1.0]])
    with pytest.raises(ValueError, match="outcome 1 is not a proper effect"):
        Measurement(effects, tri)


def measurement_error_reference(effects, model, tol) -> str | None:
    """The checks a ``Measurement`` made before its pairings' two ends decided."""
    if not float(np.abs(effects.sum(axis=0) - model.unit_effect).max()) <= tol:
        return "measurement effects do not sum to the unit effect"
    p = model.extremal_states @ effects.T
    improper = np.flatnonzero(((p < -tol) | (p > 1.0 + tol)).any(axis=0))
    if improper.size:
        return f"measurement outcome {improper[0]} is not a proper effect"
    return None


def test_measurement_verdicts_are_the_per_outcome_check():
    rng = np.random.default_rng(1215)
    seen = set()
    for model in (polygon(5), polygon(8), simplex_model(3)):
        for trial in range(200):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            effects = np.outer(weights, model.unit_effect)
            # move weight between outcomes along random directions, so the
            # effects still sum to the unit but may leave [0, 1]
            shift = rng.standard_normal((k, model.dim)) * 10.0 ** rng.uniform(-12, 0)
            effects += shift - shift.mean(axis=0)
            if trial % 7 == 0:
                # and now and then off the unit by about 1e-8
                effects[0] += rng.standard_normal(model.dim) * 1e-8
            tol = [None, 0.0, 1e-6][trial % 3]
            want = measurement_error_reference(effects, model, resolve_tol(tol))
            try:
                Measurement(effects, model, tol=tol)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, (model.name, trial)
            seen.add(None if want is None else want.split()[1])
    assert seen == {None, "outcome", "effects"}


def test_dichotomic_measurement_outcomes():
    m = square_model()
    meas = dichotomic_measurement(m, 0)
    assert meas.n_outcomes == 2
    p = meas.effects @ m.extremal_states[0]
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-15)
    assert p.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dichotomic_measurement(m, 4)


@pytest.mark.parametrize("bad", [2.9, 2.0, True], ids=repr)
def test_ray_index_and_level_count_must_be_integers(bad):
    # True used to build a 3-D effect array, 2.0 to raise numpy's IndexError
    # and simplex_model(2.5) numpy's TypeError
    with pytest.raises(ValueError, match=f"^ray index must be an integer, got {bad!r}$"):
        dichotomic_measurement(polygon(5), bad)
    with pytest.raises(ValueError,
                       match=f"^classical level count must be an integer, got {bad!r}$"):
        simplex_model(bad)


def test_ray_index_and_level_count_take_numpy_integers():
    model = polygon(5)
    assert (dichotomic_measurement(model, np.int64(3)).effects.tobytes()
            == dichotomic_measurement(model, 3).effects.tobytes())
    with pytest.raises(ValueError, match=r"^ray index 5 out of range \(model has 5 "):
        dichotomic_measurement(model, np.int64(5))
    classical = simplex_model(np.int64(4))
    assert classical.name == "classical-4" and type(classical.dim) is int
    assert classical.to_json() == simplex_model(4).to_json()
    with pytest.raises(ValueError, match="^a classical system needs at least 2 levels$"):
        simplex_model(np.int64(1))


def measurement_reference(effects, model, tol=None):
    """``Measurement.__post_init__``'s checks as they were before the stacked check."""
    effects = _as_matrix(effects, cols=model.dim, name="effects")
    tol = resolve_tol(tol)
    total = effects.sum(axis=0)
    if not float(np.abs(total - model.unit_effect).max()) <= tol:
        raise ValueError("measurement effects do not sum to the unit effect")
    p = model.extremal_states @ effects.T  # (states, outcomes)
    # the two ends decide; the columns are read only to name an outcome
    if p.min() < -tol or p.max() > 1.0 + tol:
        improper = ((p < -tol) | (p > 1.0 + tol)).any(axis=0)
        # argmax of a bool array is its first True
        raise ValueError(f"measurement outcome {improper.argmax()} is not a proper effect")


def ray_settings_reference(model, k, tol=None):
    """The effects of ``ray_settings`` as the per-setting loop built and checked them."""
    settings = []
    for i in range(k):
        rays = model.ray_effects
        if not 0 <= i < rays.shape[0]:
            raise ValueError(f"ray index {i} out of range (model has {rays.shape[0]} "
                             "ray-extremal effects)")
        e = rays[i]
        effects = np.array([e, model.unit_effect - e])
        measurement_reference(effects, model, tol)
        settings.append(effects)
    return settings


def outcome(build, *args, **kwargs):
    """What ``build`` returns, or the type and message of what it raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def stack_reference(effects, model, tol):
    """The settings of a stack checked one at a time."""
    for setting in effects:
        measurement_reference(setting, model, tol)


def with_rays(model, name, change):
    """``model`` with ``change(rays)`` applied in place to a copy of its ray-extremal effects."""
    effects = model.extremal_effects.copy()
    rays = np.flatnonzero(model.ray_extremal)
    changed = effects[rays]
    change(changed)
    effects[rays] = changed
    return ModelSpec(name, model.dim, model.extremal_states, effects, model.unit_effect,
                     model.ray_extremal)


def improper_ray(rays, i):
    rays[i] *= 1.0 + 1e-6  # pairs to 1 + 1e-6 with its vertex: outcome 0 is improper


def unsummable_ray(rays, i):
    # a polygon's u is (0, 0, 1): e + (u - e) rounds to 0 in the third
    # coordinate, so the sum fails first
    rays[i, 2] = 1e17


def _batch_models():
    return ([polygon(n) for n in range(3, 65)] + [house_model()]
            + [simplex_model(n) for n in range(2, 7)]
            + [tilted(polygon(n)) for n in (3, 4, 5, 6, 7, 8, 16, 17)])


@pytest.mark.parametrize("tol", [None, 0.0, 1e-6])
def test_ray_settings_is_the_per_setting_loop(tol):
    for model in _batch_models():
        rays = model.ray_effects.shape[0]
        for k in (0, 1, 2, rays, rays + 1):
            want = outcome(ray_settings_reference, model, k, tol=tol)
            got = outcome(ray_settings, model, k, tol=tol)
            if isinstance(want, tuple):
                assert got == want, (model.name, k)
                continue
            assert len(got) == len(want) == k, (model.name, k)
            for meas, effects in zip(got, want):
                assert meas.model is model
                assert meas.effects.shape == effects.shape == (2, model.dim)
                assert meas.effects.dtype == effects.dtype
                assert meas.effects.tobytes() == effects.tobytes(), (model.name, k)
                assert not meas.effects.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    meas.effects[0, 0] = 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract")
@pytest.mark.parametrize("per_block", [None, 1, 2, 3])
def test_ray_settings_fails_like_the_per_setting_loop(per_block, monkeypatch):
    # None keeps the default block; otherwise per_block settings are
    # checked at a time, so that a failure can sit in a later block
    good = polygon(7)
    if per_block is not None:
        monkeypatch.setattr(core, "_CHECK_BLOCK_ELEMENTS", per_block * 2 * good.n_states)
    bad = with_rays(good, "bad", lambda rays: improper_ray(rays, 2))
    twice = with_rays(good, "twice", lambda rays: (unsummable_ray(rays, 4), improper_ray(rays, 5)))
    later = with_rays(good, "later", lambda rays: (improper_ray(rays, 4), unsummable_ray(rays, 5)))
    # u - e overflows to inf in the second setting: the loop's constructor
    # reported a non-finite entry
    states = good.extremal_states.copy()
    states[:, 0] = 2.0 ** -1023
    huge = ModelSpec("huge", 3, states, [[0.0, 0.0, 0.0], [-(2.0 ** 1023), 0.0, 0.0]],
                     [2.0 ** 1023, 0.0, 0.0])
    # the same in the first setting, whose constructor refuses it before any tol
    huge_first = ModelSpec("huge-first", 3, states, huge.extremal_effects[::-1],
                           huge.unit_effect)
    none = ModelSpec("none", 3, good.extremal_states, good.extremal_effects,
                     good.unit_effect, np.zeros(good.n_effects, dtype=bool))
    cases = [(model, k, tol) for model in (bad, twice, later) for k in (2, 3, 5, 6, 7, 8)
             for tol in (None, 1e-3, -1.0)]
    cases += [(model, k, tol) for model in (huge, huge_first) for k in (1, 2, 3)
              for tol in (None, -1.0, np.nan)]
    cases += [(none, k, tol) for k in (0, 1, 3) for tol in (None, -1.0)]
    seen = set()
    for model, k, tol in cases:
        want = outcome(ray_settings_reference, model, k, tol=tol)
        got = outcome(ray_settings, model, k, tol=tol)
        if isinstance(want, tuple):
            assert got == want, (model.name, k, tol)
            seen.add(want[1])
        else:
            assert [m.effects.tobytes() for m in got] == [e.tobytes() for e in want]
    assert seen == {"measurement outcome 0 is not a proper effect",
                    "measurement effects do not sum to the unit effect",
                    "effects has non-finite entries",
                    "tolerance must be finite and non-negative",
                    "ray index 0 out of range (model has 0 ray-extremal effects)",
                    "ray index 7 out of range (model has 7 ray-extremal effects)"}
    # of two failing settings the first is reported, in whichever block
    assert outcome(ray_settings, twice, 7)[1] == "measurement effects do not sum to the unit effect"
    assert outcome(ray_settings, later, 7)[1] == "measurement outcome 0 is not a proper effect"
    # the improper setting comes before the one past the rays
    assert outcome(ray_settings, bad, 8)[1] == "measurement outcome 0 is not a proper effect"
    assert outcome(ray_settings, huge_first, 1, tol=-1.0)[1] == "effects has non-finite entries"


def split_stack(model):
    """Every ray's setting {e, (u - e) / 2, (u - e) / 2}: one (rays, 3, dim) stack."""
    rays = model.ray_effects
    rest = (model.unit_effect - rays) / 2.0
    return np.stack([rays, rest, rest], axis=1)


def push_below_zero(stack, model, setting, outcome_index, other, tol):
    """Move weight from one outcome to another until the first reaches -2 tol somewhere."""
    shift = (model.extremal_states @ stack[setting, outcome_index]).min() + 2.0 * tol
    stack[setting, outcome_index] -= shift * model.unit_effect
    stack[setting, other] += shift * model.unit_effect


def lift(stack, model, setting, outcome_index, amount):
    """Add ``amount`` u / |u|^2 to one effect: its pairings and its setting's sum move by it."""
    unit = model.unit_effect
    stack[setting, outcome_index] += amount * unit / (unit @ unit)


def broken_stacks(model, tol):
    """Stacks that fail in the ways the check distinguishes, by name.

    Only the split halves (u - e) / 2 are lifted off the unit, as their
    pairings stay far below 1, so a lifted setting breaks the sum alone.
    """
    good = split_stack(model)
    last = len(good) - 1
    cases = {}
    s = good.copy()
    lift(s, model, 3, 1, 2.0 * tol)
    cases["sum-off"] = s
    s = good.copy()
    push_below_zero(s, model, 0, 1, 2, tol)
    cases["negative-first"] = s
    s = good.copy()
    push_below_zero(s, model, last, 2, 1, tol)
    cases["negative-last"] = s
    s = good.copy()
    s[2, 1, 0] = np.nan
    cases["nan"] = s
    s = good.copy()
    s[0, 2, 1] = np.inf
    cases["inf-first"] = s
    s = good.copy()
    push_below_zero(s, model, 1, 1, 2, tol)
    s[2, 0, 2] = -np.inf
    cases["range-then-inf"] = s
    s = good.copy()
    push_below_zero(s, model, 4, 1, 2, tol)
    lift(s, model, 4, 2, 3.0 * tol)
    cases["both-rules"] = s
    s = good.copy()
    push_below_zero(s, model, 1, 2, 1, tol)
    lift(s, model, last, 1, 2.0 * tol)
    cases["range-then-sum"] = s
    s = good.copy()
    lift(s, model, 1, 1, 2.0 * tol)
    push_below_zero(s, model, last, 2, 1, tol)
    cases["sum-then-range"] = s
    return cases


EXPECTED_BREAKS = {
    "sum-off": "measurement effects do not sum to the unit effect",
    "negative-first": "measurement outcome 1 is not a proper effect",
    "negative-last": "measurement outcome 2 is not a proper effect",
    "nan": "effects has non-finite entries",
    "inf-first": "effects has non-finite entries",
    "range-then-inf": "measurement outcome 1 is not a proper effect",
    "both-rules": "measurement effects do not sum to the unit effect",
    "range-then-sum": "measurement outcome 2 is not a proper effect",
    "sum-then-range": "measurement effects do not sum to the unit effect",
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("model", [polygon(7), polygon(8), house_model(), tilted(polygon(9))],
                         ids=lambda model: model.name)
def test_stacked_check_fails_like_the_per_setting_loop(model):
    for tol in (DEFAULT_TOL, 1e-6):
        assert outcome(core._check_measurements, split_stack(model), model, tol) is None
        for name, stack in broken_stacks(model, tol).items():
            want = outcome(stack_reference, stack, model, tol)
            assert want == (ValueError, EXPECTED_BREAKS[name]), (model.name, name)
            assert outcome(core._check_measurements, stack, model, tol) == want
            # one setting at a time through the constructor, also with a
            # refused tolerance, which comes after finiteness
            for setting in stack:
                for t in (tol, -1.0):
                    built = outcome(Measurement, setting, model, tol=t)
                    assert (None if isinstance(built, Measurement) else built) == outcome(
                        measurement_reference, setting, model, t)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_stacked_check_lets_a_nan_pairing_hide_nothing_else():
    # A setting whose pairing is nan passes the constructor's range rule,
    # whatever its other pairings; it must not hide a failing setting beside
    # it. A product without fused multiply-adds can pair finite effects of
    # size 2**1023 to inf - inf; here a stand-in model with an infinite
    # state coordinate, which a ModelSpec refuses, makes the nan for sure:
    # inf * 0 in every setting whose effects have a zero first coordinate.
    unit = np.array([0.0, 0.0, 1.0])
    model = SimpleNamespace(dim=3, unit_effect=unit, extremal_states=np.array(
        [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [np.inf, 0.0, 1.0]]))
    nan_pairing = np.array([unit / 2.0, unit / 2.0])
    improper = np.array([[1e-300, 0.0, 2.0], [-1e-300, 0.0, -1.0]])
    also_improper = np.array([2.0 * unit, -unit])  # out of range, but nan too
    stacks = [
        ((nan_pairing, also_improper), None),
        ((nan_pairing, nan_pairing, improper), "measurement outcome 0 is not a proper effect"),
        ((improper[::-1], nan_pairing), "measurement outcome 0 is not a proper effect"),
    ]
    for settings, message in stacks:
        stack = np.stack(settings)
        assert np.isnan(np.dot(model.extremal_states, stack.reshape(-1, 3).T)).any()
        want = outcome(stack_reference, stack, model, DEFAULT_TOL)
        assert want == (None if message is None else (ValueError, message))
        assert outcome(core._check_measurements, stack, model, DEFAULT_TOL) == want


def test_ray_settings_reports_a_failure_in_a_later_block():
    # at the default budget a 2047-gon's settings are checked 16 at a time
    model = polygon(2047)
    assert core._CHECK_BLOCK_ELEMENTS // (2 * model.n_states) == 16
    for first, second in ((unsummable_ray, improper_ray), (improper_ray, unsummable_ray)):
        broken = with_rays(model, "broken", lambda rays: (first(rays, 20), second(rays, 2046)))
        want = outcome(ray_settings_reference, broken, 2047)
        assert want == outcome(ray_settings_reference, broken, 21)
        assert outcome(ray_settings, broken, 2047) == want
        alone = with_rays(model, "alone", lambda rays: second(rays, 2046))
        assert outcome(ray_settings, alone, 2047) == outcome(ray_settings_reference, alone, 2047)
        assert len(ray_settings(alone, 2046)) == 2046


def test_ray_settings_memory_is_bounded_by_the_check_block():
    # the check pairs at most _CHECK_BLOCK_ELEMENTS doubles at once: besides
    # the (k, 2, 3) stack and the k measurements, under 1 KiB each, that one
    # block is all it holds; pairing all 2047 settings at once would take 67 MB
    model = polygon(2047)
    k = model.ray_effects.shape[0]
    tracemalloc.start()
    try:
        settings = ray_settings(model, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(settings) == k
    assert peak < 8 * (core._CHECK_BLOCK_ELEMENTS + 2 * k * model.dim) + 1024 * k


def test_models_similar_ignores_name():
    a = square_model()
    b = ModelSpec("other", 3, a.extremal_states, a.extremal_effects, a.unit_effect)
    assert _model_gap(a, b) <= DEFAULT_TOL


def test_models_similar_detects_difference():
    a = square_model()
    states = a.extremal_states.copy()
    states[0, 0] = 0.9
    c = ModelSpec("square", 3, states, a.extremal_effects, a.unit_effect)
    assert _model_gap(a, c) > DEFAULT_TOL
    # shapes and ray flags must agree exactly, whatever the tolerance
    flags = ModelSpec("flags", 3, a.extremal_states, a.extremal_effects, a.unit_effect,
                      ray_extremal=[True, True, True, False])
    fewer = ModelSpec("fewer", 3, a.extremal_states[:3], a.extremal_effects, a.unit_effect)
    for b in (flags, fewer, simplex_model(3)):
        assert _model_gap(a, b) == np.inf


def test_models_similar_is_allclose_at_tol():
    # the similarity check is the entrywise absolute test of np.allclose,
    # on perturbations just inside, at and just outside tol
    rng = np.random.default_rng(7)
    a = square_model()
    outcomes = set()
    for trial in range(300):
        tol = float(10.0 ** rng.uniform(-12, -2))
        arrays = [a.extremal_states.copy(), a.extremal_effects.copy(), a.unit_effect.copy()]
        target = arrays[trial % 3]
        flat = target.reshape(-1)
        k = rng.integers(flat.size)
        flat[k] += rng.choice([-1.0, 1.0]) * tol * rng.choice([1 - 1e-9, 1.0, 1 + 1e-9])
        b = ModelSpec("b", 3, *arrays)
        expected = all(np.allclose(x, y, atol=tol, rtol=0.0) for x, y in (
            (a.extremal_states, b.extremal_states),
            (a.extremal_effects, b.extremal_effects),
            (a.unit_effect, b.unit_effect),
        ))
        assert (_model_gap(a, b) <= tol) == expected, (trial, tol)
        outcomes.add(expected)
    assert outcomes == {True, False}


def model_gap_reference(a: ModelSpec, b: ModelSpec) -> float:
    """``_model_gap`` as it was before one model object skipped its arrays."""
    if (a.dim != b.dim or a.n_states != b.n_states or a.n_effects != b.n_effects
            or not np.array_equal(a.ray_extremal, b.ray_extremal)):
        return math.inf
    return max(
        float(np.abs(a.extremal_states - b.extremal_states).max()),
        float(np.abs(a.extremal_effects - b.extremal_effects).max()),
        float(np.abs(a.unit_effect - b.unit_effect).max()),
    )


@pytest.mark.parametrize("make", [lambda n=n: polygon(n) for n in range(3, 65)]
                         + [house_model],
                         ids=[f"polygon{n}" for n in range(3, 65)] + ["house"])
def test_model_gap_of_one_object_is_the_array_gap(make):
    model = make()
    copy = ModelSpec.from_dict(model.to_dict())
    gap = _model_gap(model, model)
    assert gap == 0.0 and type(gap) is float
    assert gap == _model_gap(model, copy) == _model_gap(copy, model)
    assert gap == model_gap_reference(model, model) == model_gap_reference(model, copy)
    # a copy moved off the original still has a gap, by both routes
    states = model.extremal_states.copy()
    states[-1, 0] += 1e-12
    moved = ModelSpec(model.name, model.dim, states, model.extremal_effects,
                      model.unit_effect, ray_extremal=model.ray_extremal)
    assert _model_gap(model, moved) == model_gap_reference(model, moved) > 0.0


def test_json_roundtrip():
    m = square_model()
    text = m.to_json()
    assert text == json.dumps(m.to_dict(), sort_keys=True)
    back = ModelSpec.from_json(text)
    assert _model_gap(m, back) <= DEFAULT_TOL
    assert back.name == "square"
    assert back.ray_extremal.all()


def test_json_roundtrip_keeps_ray_flags():
    m = square_model()
    flagged = ModelSpec(
        "square", 3, m.extremal_states, m.extremal_effects, m.unit_effect,
        ray_extremal=np.array([True, True, False, False]),
    )
    back = ModelSpec.from_json(flagged.to_json())
    assert back.ray_extremal.tolist() == [True, True, False, False]
    assert back.ray_effects.shape == (2, 3)


def test_from_json_rejects_a_model_that_fails_validation():
    m = square_model()
    data = m.to_dict()
    data["extremal_states"][0] = [1.0, 1.0, 1.5]
    with pytest.raises(ValueError, match=r"^square failed validation: state 0 has unit "
                                         r"pairing 1\.5, expected 1(;|$)"):
        ModelSpec.from_dict(data)
    with pytest.raises(ValueError, match="failed validation"):
        ModelSpec.from_json(json.dumps(data))


def _flagged_square_dict() -> dict:
    data = square_model().to_dict()
    data["ray_extremal"] = [True, True, False, False]
    return data


@pytest.mark.parametrize("flags", [
    ["no", "no", "no", "no"],
    ["no", True, True, True],
    [2, 2, 2, 2],
    [1, 1, 0, 0],
    [0.5, 0.5, 0.5, 0.5],
    [True, True, False, 0],
], ids=["strings", "one-string", "twos", "ints", "halves", "one-int"])
def test_from_dict_rejects_flags_that_are_not_booleans(flags):
    data = _flagged_square_dict()
    data["ray_extremal"] = flags
    with pytest.raises(ValueError, match=r"^ray_extremal flags must be booleans$"):
        ModelSpec.from_dict(data)
    with pytest.raises(ValueError, match=r"^ray_extremal flags must be booleans$"):
        ModelSpec.from_json(json.dumps(data))


@pytest.mark.parametrize("dim", [3.7, 3.0, True, "3", None],
                         ids=["fraction", "float", "bool", "string", "null"])
def test_from_dict_rejects_a_dim_that_is_not_an_integer(dim):
    data = _flagged_square_dict()
    data["dim"] = dim
    with pytest.raises(ValueError, match=r"^dim must be a positive integer, got "):
        ModelSpec.from_dict(data)
    with pytest.raises(ValueError, match=r"^dim must be a positive integer, got "):
        ModelSpec.from_json(json.dumps(data))


def test_from_dict_takes_boolean_flags_and_integer_dims_of_any_type():
    data = _flagged_square_dict()
    for flags in ([True, True, False, False], np.array([True, True, False, False]),
                  [np.True_, np.True_, np.False_, np.False_]):
        for dim in (3, np.int64(3)):
            model = ModelSpec.from_dict({**data, "ray_extremal": flags, "dim": dim})
            assert model.dim == 3 and type(model.dim) is int
            assert model.ray_extremal.tolist() == [True, True, False, False]
    # a missing list still means every effect is ray-extremal
    del data["ray_extremal"]
    assert ModelSpec.from_dict(data).ray_extremal.tolist() == [True] * 4
    # the constructor's own checks still speak for shape errors
    with pytest.raises(ValueError, match="one flag per extremal effect"):
        ModelSpec.from_dict({**data, "ray_extremal": []})


def _as_strings(rows):
    return [[str(x) for x in row] for row in rows]


@pytest.mark.parametrize("key, value, message", [
    ("extremal_states", _as_strings, "extremal_states entries must be numbers"),
    ("extremal_states", lambda rows: [rows[0][:2] + ["1.0"]] + rows[1:],
     "extremal_states entries must be numbers"),
    ("extremal_effects", _as_strings, "extremal_effects entries must be numbers"),
    ("extremal_effects", lambda rows: [[True, False, False]] + rows[1:],
     "extremal_effects entries must be numbers"),
    ("unit_effect", lambda unit: [False, False, True], "unit_effect entries must be numbers"),
    ("unit_effect", lambda unit: unit[:2] + [True], "unit_effect entries must be numbers"),
    ("unit_effect", lambda unit: [str(x) for x in unit], "unit_effect entries must be numbers"),
    ("name", lambda name: None, "name must be a string, got None"),
    ("name", lambda name: 4, "name must be a string, got 4"),
    ("schema_version", lambda version: 2, "schema_version must be 1, got 2$"),
    ("schema_version", lambda version: 0, "schema_version must be 1, got 0$"),
    ("schema_version", lambda version: True, "schema_version must be 1, got True$"),
    ("schema_version", lambda version: 1.0, "schema_version must be 1, got 1.0$"),
    ("schema_version", lambda version: "1", "schema_version must be 1, got '1'$"),
    ("schema_version", lambda version: None, "schema_version must be 1, got None$"),
], ids=["states-strings", "states-one-string", "effects-strings", "effects-bools",
        "unit-bools", "unit-one-bool", "unit-strings", "name-null", "name-int",
        "version-2", "version-0", "version-bool", "version-float", "version-string",
        "version-null"])
def test_from_dict_does_not_coerce_outside_input(key, value, message):
    data = polygon(4).to_dict()
    data[key] = value(data[key])
    with pytest.raises(ValueError, match=f"^{message}"):
        ModelSpec.from_dict(data)
    with pytest.raises(ValueError, match=f"^{message}"):
        ModelSpec.from_json(json.dumps(data))
    # the unmutated dict loads
    assert ModelSpec.from_dict(polygon(4).to_dict()).name == polygon(4).name


REQUIRED_FIELDS = ["schema_version", "name", "dim", "extremal_states", "extremal_effects",
                   "unit_effect"]


@pytest.mark.parametrize("keys", [[key] for key in REQUIRED_FIELDS] + [REQUIRED_FIELDS],
                         ids=[*REQUIRED_FIELDS, "all"])
def test_from_dict_names_the_missing_fields(keys):
    data = polygon(4).to_dict()
    for key in keys:
        del data[key]
    message = f"^model is missing {', '.join(map(repr, keys))}$"
    with pytest.raises(ValueError, match=message):
        ModelSpec.from_dict(data)
    with pytest.raises(ValueError, match=message):
        ModelSpec.from_json(json.dumps(data))


@pytest.mark.parametrize("text, kind", [("[]", "list"), ("[{}]", "list"), ("3", "int"),
                                        ('"model"', "str"), ("null", "NoneType")])
def test_from_json_refuses_a_document_that_is_not_an_object(text, kind):
    with pytest.raises(ValueError, match=f"^model data must be a dict, got {kind}$"):
        ModelSpec.from_json(text)
    with pytest.raises(ValueError, match=f"^model data must be a dict, got {kind}$"):
        ModelSpec.from_dict(json.loads(text))


@pytest.mark.parametrize("dim", [3.0, 3.7, True, np.True_, np.float64(3.0), "3", 0, -3],
                         ids=["float", "fraction", "bool", "numpy-bool", "numpy-float",
                              "string", "zero", "negative"])
def test_constructor_rejects_a_dim_that_is_not_a_positive_integer(dim):
    m = polygon(4)
    with pytest.raises(ValueError, match=r"^dim must be a positive integer, got "):
        ModelSpec("sq", dim, m.extremal_states, m.extremal_effects, m.unit_effect)


def test_constructor_stores_an_integer_dim_that_round_trips():
    m = polygon(4)
    for dim in (3, np.int64(3), np.int32(3)):
        model = ModelSpec("sq", dim, m.extremal_states, m.extremal_effects, m.unit_effect)
        assert model.dim == 3 and type(model.dim) is int
        text = model.to_json()
        assert json.loads(text)["dim"] == 3
        back = ModelSpec.from_json(text)
        assert back.dim == 3 and type(back.dim) is int
        assert back.to_json() == text


def test_simplex_model_is_classical():
    m = simplex_model(3)
    assert validate_model(m).ok
    np.testing.assert_allclose(m.extremal_effects @ m.extremal_states.T, np.eye(3))


def test_model_rejects_shape_mismatch():
    m = square_model()
    with pytest.raises(ValueError):
        ModelSpec("bad", 3, m.extremal_states[:, :2], m.extremal_effects,
                  m.unit_effect)
    with pytest.raises(ValueError):
        ModelSpec("bad", 3, m.extremal_states, m.extremal_effects,
                  m.unit_effect, ray_extremal=np.array([True, False]))


def test_spectrum_helper_is_bitwise_eigvalsh():
    rng = np.random.default_rng(1803)
    for shape in ((1, 1), (9, 9), (4, 9, 9), (3, 17, 17), (0, 5, 5)):
        a = rng.normal(size=shape)
        a = a + a.swapaxes(-1, -2)
        assert _spectra(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
    # both read the lower triangle only
    a = np.tril(rng.normal(size=(6, 6)))
    assert _spectra(a).tobytes() == np.linalg.eigvalsh(a).tobytes()


@pytest.mark.parametrize("shape", [(9, 9), (3, 9, 9)])
def test_spectrum_helper_raises_linalgerror_on_nan_without_a_warning(shape):
    for spectra in (np.linalg.eigvalsh, _spectra):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                spectra(np.full(shape, np.nan))
            # a lone nan pair converges to nan eigenvalues, in both
            stack = np.zeros(shape)
            stack[..., 2, 1] = stack[..., 1, 2] = np.nan
            assert spectra(stack).tobytes() == np.linalg.eigvalsh(stack).tobytes()
    # the caller's floating-point error settings are left as they were
    assert np.geterr()["invalid"] == "warn"
