"""The house-shaped model and its extremal non-inner-product joint state.

Five normalized extremal states arranged like a house silhouette, five
ray-extremal effects, and a bundled bipartite state that is extremal in the
maximal tensor product yet fails the inner-product test. Its correlations
break the quadratic first-level bound while every CHSH combination stays
under the Tsirelson value, separating the two criteria.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import numpy as np

from .bipartite import JointState
from .core import DEFAULT_TOL, Measurement, ModelSpec, dichotomic_measurement
from .correlations import (
    TSIRELSON_BOUND,
    CorrelationTable,
    chsh,
    correlations_from_state,
    uffink,
)


def house_model() -> ModelSpec:
    """The five-state house model; every listed effect is ray-extremal."""
    states = np.array([
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [-1.0, 0.0, 1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
    ])
    effects = np.vstack([
        states[:3] / 2.0,
        states[3:] / 3.0,
    ])
    return ModelSpec(
        name="house",
        dim=3,
        extremal_states=states,
        extremal_effects=effects,
        unit_effect=np.array([0.0, 0.0, 1.0]),
    )


def _load_matrix() -> np.ndarray:
    raw = json.loads(
        resources.files("polybell").joinpath("data/house_state.json").read_text()
    )
    return np.array([
        [float(Fraction(num, den)) for num, den in row] for row in raw["matrix"]
    ])


def house_joint_state() -> JointState:
    """The bundled joint state of two house systems (exact rational entries)."""
    model = house_model()
    return JointState(matrix=_load_matrix(), model_a=model, model_b=model)


def house_uffink_demo() -> tuple[float, CorrelationTable]:
    """Correlations that break the quadratic bound without touching Tsirelson's.

    Measures the bundled state with the settings (first side: rays 5 and 3,
    second side: rays 2 and 3, each completed by its complement) and returns
    the quadratic correlator value together with the table. The value is
    checked to equal 17/4 and the plain CHSH combination on the same table
    to stay below 2*sqrt(2).
    """
    state = house_joint_state()
    meas_a, meas_b = _demo_measurements(state.model_a)
    table = correlations_from_state(state, meas_a, meas_b)
    value = uffink(table)
    if abs(value - 17.0 / 4.0) > 1e-10:
        raise ArithmeticError(f"quadratic correlator came out as {value!r}, not 17/4")
    if chsh(table) > TSIRELSON_BOUND + DEFAULT_TOL:
        raise ArithmeticError("CHSH unexpectedly above the Tsirelson value")
    return value, table


def house_demo_measurements() -> tuple[list[Measurement], list[Measurement]]:
    """The demo's measurement settings, for reuse by the CLI and tests."""
    return _demo_measurements(house_model())


def _demo_measurements(model: ModelSpec) -> tuple[list[Measurement], list[Measurement]]:
    """:func:`house_demo_measurements` on a house model the caller already built."""
    return (
        [dichotomic_measurement(model, 4), dichotomic_measurement(model, 2)],
        [dichotomic_measurement(model, 1), dichotomic_measurement(model, 2)],
    )
