"""The house-shaped model and its extremal non-inner-product joint state.

Five normalized extremal states arranged like a house silhouette, five
ray-extremal effects, and a bipartite state, stored exactly in code, that
is extremal in the maximal tensor product yet fails the inner-product test.
Its correlations break the quadratic first-level bound while every CHSH
combination stays under the Tsirelson value, separating the two criteria.
"""

from __future__ import annotations

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


# The joint state's matrix. Every entry is -1, +-1/4, +-1/2 or 1, so the
# doubles are exact.
_HOUSE_STATE = np.array([
    [-1.0, -0.25, -0.5],
    [0.25, -0.5, -0.25],
    [0.5, -0.25, 1.0],
])
_HOUSE_STATE.flags.writeable = False


def house_joint_state() -> JointState:
    """The joint state of two house systems (exact rational entries)."""
    model = house_model()
    return JointState(matrix=_HOUSE_STATE, model_a=model, model_b=model)


def house_uffink_demo() -> tuple[float, CorrelationTable]:
    """Correlations that break the quadratic bound without touching Tsirelson's.

    Measures the joint state with :func:`house_demo_measurements` and
    returns the quadratic correlator value together with the table. The
    value is checked to equal 17/4 and the plain CHSH combination on the
    same table to stay below 2*sqrt(2).
    """
    state = house_joint_state()
    meas_a, meas_b = house_demo_measurements(state.model_a)
    table = correlations_from_state(state, meas_a, meas_b)
    value = uffink(table)
    if abs(value - 17.0 / 4.0) > 1e-10:
        raise ArithmeticError(f"quadratic correlator came out as {value!r}, not 17/4")
    if chsh(table) > TSIRELSON_BOUND + DEFAULT_TOL:
        raise ArithmeticError("CHSH unexpectedly above the Tsirelson value")
    return value, table


def house_demo_measurements(model: ModelSpec) -> tuple[list[Measurement], list[Measurement]]:
    """The demo's measurement settings on ``model``, a house model.

    First side: rays 5 and 3; second side: rays 2 and 3 (1-based), each
    completed by its complement.
    """
    return (
        [dichotomic_measurement(model, 4), dichotomic_measurement(model, 2)],
        [dichotomic_measurement(model, 1), dichotomic_measurement(model, 2)],
    )
