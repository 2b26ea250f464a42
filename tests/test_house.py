import math
from fractions import Fraction

import numpy as np
import pytest

from polybell.bipartite import in_max_tensor_product, is_extremal, is_inner_product_state
from polybell.core import validate_model
from polybell.correlations import (
    TSIRELSON_BOUND,
    chsh,
    correlations_from_state,
)
from polybell.house import (
    house_demo_measurements,
    house_joint_state,
    house_model,
    house_uffink_demo,
)
from polybell.q1 import q1_necessary_conditions

from helpers import correlator_matrix


def test_model_validates():
    report = validate_model(house_model())
    assert report.ok, report.failures


def test_exact_vertices():
    m = house_model()
    expected = np.array(
        [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [-1, -1, 1], [1, -1, 1]], dtype=float
    )
    np.testing.assert_array_equal(m.extremal_states, expected)
    np.testing.assert_array_equal(m.extremal_effects[:3], expected[:3] / 2.0)
    np.testing.assert_array_equal(m.extremal_effects[3:], expected[3:] / 3.0)
    assert m.ray_extremal.all()


def test_first_effect_is_certain_on_two_vertices():
    m = house_model()
    e1 = m.extremal_effects[0]
    assert e1 @ m.extremal_states[0] == 1.0
    assert e1 @ m.extremal_states[4] == 1.0


def test_joint_state_entries_are_exact():
    # the published state's entries, as exact fractions
    expected = [
        [Fraction(-1), Fraction(-1, 4), Fraction(-1, 2)],
        [Fraction(1, 4), Fraction(-1, 2), Fraction(-1, 4)],
        [Fraction(1, 2), Fraction(-1, 4), Fraction(1)],
    ]
    matrix = house_joint_state().matrix
    assert [[Fraction(float(x)) for x in row] for row in matrix] == expected


def test_joint_state_membership_and_extremality():
    st = house_joint_state()
    assert in_max_tensor_product(st)
    assert is_extremal(st)


def test_joint_state_is_not_inner_product():
    report = is_inner_product_state(house_joint_state())
    assert not report.is_inner_product
    assert report.asymmetry >= 0.5  # |M[0,1] - M[1,0]| = 1/2


def test_demo_value_and_correlators():
    value, table = house_uffink_demo()
    assert abs(value - 17.0 / 4.0) <= 1e-10
    np.testing.assert_allclose(
        correlator_matrix(table), [[0.25, 1.0], [0.25, -1.0]], atol=1e-12
    )
    assert abs(chsh(table) - 2.5) <= 1e-12
    assert chsh(table) <= TSIRELSON_BOUND


def test_demo_measurement_settings():
    m = house_model()
    meas_a, meas_b = house_demo_measurements(m)
    np.testing.assert_array_equal(meas_a[0].effects[0], m.extremal_effects[4])
    np.testing.assert_array_equal(meas_a[1].effects[0], m.extremal_effects[2])
    np.testing.assert_array_equal(meas_b[0].effects[0], m.extremal_effects[1])
    np.testing.assert_array_equal(meas_b[1].effects[0], m.extremal_effects[2])


def test_necessary_conditions_flag_the_demo_table():
    _, table = house_uffink_demo()
    report = q1_necessary_conditions(table)
    assert report.verdict == "not-in-Q1"
    assert report.chsh_ok  # the linear bound alone does not catch it
    assert not report.uffink_ok
    assert abs(report.uffink_value - 4.25) <= 1e-10
    assert report.uffink_value > report.uffink_bound


def test_quadratic_value_invariant_under_outcome_relabelling():
    from polybell.core import Measurement

    meas_a, meas_b = house_demo_measurements(house_model())
    st = house_joint_state()
    base = q1_necessary_conditions(correlations_from_state(st, meas_a, meas_b)).uffink_value

    def flip(m):
        return Measurement(m.effects[::-1], m.model)

    for mask in range(16):
        ma = [flip(m) if mask & (1 << i) else m for i, m in enumerate(meas_a)]
        mb = [flip(m) if mask & (4 << i) else m for i, m in enumerate(meas_b)]
        table = correlations_from_state(st, ma, mb)
        flipped = q1_necessary_conditions(table).uffink_value
        assert abs(flipped - base) <= 1e-10


def test_demo_reuses_model_rays():
    # each demo setting is a two-outcome split of a single extremal ray effect
    m = house_model()
    meas_a, meas_b = house_demo_measurements(m)
    unit = m.unit_effect
    for meas in (*meas_a, *meas_b):
        assert meas.effects.shape == (2, 3)
        np.testing.assert_allclose(meas.effects.sum(axis=0), unit, atol=1e-12)
