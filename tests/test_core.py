import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from polybell.core import (
    DEFAULT_TOL,
    ROUNDING_TOL,
    Measurement,
    ModelSpec,
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
], ids=["states-strings", "states-one-string", "effects-strings", "effects-bools",
        "unit-bools", "unit-one-bool", "unit-strings", "name-null", "name-int"])
def test_from_dict_does_not_coerce_outside_input(key, value, message):
    data = polygon(4).to_dict()
    data[key] = value(data[key])
    with pytest.raises(ValueError, match=f"^{message}"):
        ModelSpec.from_dict(data)
    with pytest.raises(ValueError, match=f"^{message}"):
        ModelSpec.from_json(json.dumps(data))
    # the unmutated dict loads
    assert ModelSpec.from_dict(polygon(4).to_dict()).name == polygon(4).name


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
