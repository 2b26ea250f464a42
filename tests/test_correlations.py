import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from polybell import correlations
from polybell.bipartite import JointState
from polybell.core import DEFAULT_TOL, Measurement, ModelSpec, simplex_model
from polybell.correlations import (
    TSIRELSON_BOUND,
    CorrelationTable,
    chained,
    chained_local_bound,
    chsh,
    chsh_max_analytic,
    chsh_max_bruteforce,
    chsh_max_closed_form,
    chsh_max_over_settings,
    correlations_from_state,
    correlator,
    distill_decompose,
    ray_settings,
    uffink,
)
from polybell.house import house_demo_measurements, house_joint_state
from polybell.polygon import max_entangled, polygon, polygon_radius
from polybell.q1 import q1_necessary_conditions

from helpers import (
    correlator_matrix,
    deterministic_table,
    pr_box_table,
    product_state,
    random_extremal_joint_state,
)


def two_setting_table(n: int) -> CorrelationTable:
    state = max_entangled(n)
    meas = ray_settings(state.model_a, 2)
    return correlations_from_state(state, meas, meas)


# -- table construction and validation ----------------------------------------


def test_pr_box_values():
    t = pr_box_table()
    assert chsh(t) == 4.0
    assert uffink(t) == 8.0
    e = correlator_matrix(t)
    np.testing.assert_allclose(e, [[1.0, 1.0], [1.0, -1.0]], atol=0)


def test_deterministic_tables_hit_local_bound():
    best = 0.0
    for aa in itertools.product((0, 1), repeat=2):
        for bb in itertools.product((0, 1), repeat=2):
            best = max(best, chsh(deterministic_table(aa, bb)))
    assert best == 2.0


def test_table_rejects_signalling():
    # Alice's marginal depends on y: not a physical table
    probs = np.zeros((2, 2, 2, 2))
    probs[0, 0, :, 0] = 1.0
    probs[1, 1, :, 1] = 1.0
    with pytest.raises(ValueError, match="far setting"):
        CorrelationTable(probs, (2, 2), (2, 2))


def test_table_rejects_negative_and_unnormalized():
    probs = np.full((2, 2, 1, 1), 0.25)
    probs[0, 0, 0, 0] = -0.1
    probs[1, 1, 0, 0] = 0.6
    with pytest.raises(ValueError, match=r"^negative probability -0\.1 at settings \(0, 0\)$"):
        CorrelationTable(probs, (2,), (2,))
    with pytest.raises(ValueError, match=r"^probabilities at settings \(0, 0\) sum to 1\.2$"):
        CorrelationTable(np.full((2, 2, 1, 1), 0.3), (2,), (2,))
    padded = np.zeros((3, 2, 1, 1))
    padded[:2, :, 0, 0] = 0.25
    padded[2, 0, 0, 0] = 1e-300
    with pytest.raises(ValueError, match=r"^padding beyond the declared outcomes of "
                                         r"\(0, 0\) must be exactly zero$"):
        CorrelationTable(padded, (2,), (2,))


@pytest.mark.parametrize("count", [2.9, 2.0, True], ids=repr)
def test_table_outcome_counts_must_be_integers(count):
    # (2.9, 2) used to be stored as (2, 2)
    probs = np.full((2, 2, 2, 2), 0.25)
    message = f"count must be an integer, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match="^outcomes_a " + message):
        CorrelationTable(probs, (count, 2), (2, 2))
    with pytest.raises(ValueError, match="^outcomes_b " + message):
        CorrelationTable(probs, (2, 2), (2, count))


def test_table_outcome_counts_take_numpy_integers():
    table = CorrelationTable(np.full((2, 2, 2, 2), 0.25), (np.int64(2), 2), (2, np.int32(2)))
    assert table.outcomes_a == table.outcomes_b == (2, 2)
    assert {type(k) for k in table.outcomes_a + table.outcomes_b} == {int}


def correlations_reference(state, meas_a, meas_b) -> np.ndarray:
    """The per-pair loop that filled the table before the stacked product."""
    outcomes_a = [m.n_outcomes for m in meas_a]
    outcomes_b = [m.n_outcomes for m in meas_b]
    probs = np.zeros((max(outcomes_a), max(outcomes_b), len(meas_a), len(meas_b)))
    for x, ma in enumerate(meas_a):
        left = ma.effects @ state.matrix
        for y, mb in enumerate(meas_b):
            probs[:outcomes_a[x], :outcomes_b[y], x, y] = left @ mb.effects.T
    return probs


def table_error_reference(probs, outcomes_a, outcomes_b) -> str | None:
    """The per-pair checks that ran before the masked reductions.

    Returns the message the first failing check raises, or None when every
    pair passes; the first pair in row-major order wins, and within a pair
    padding is checked before negativity and negativity before the sum.
    """
    for x in range(probs.shape[2]):
        for y in range(probs.shape[3]):
            block = probs[:, :, x, y]
            ra, rb = outcomes_a[x], outcomes_b[y]
            if np.any(block[ra:, :] != 0.0) or np.any(block[:, rb:] != 0.0):
                return (f"padding beyond the declared outcomes of ({x}, {y}) "
                        "must be exactly zero")
            live = block[:ra, :rb]
            if live.min() < -DEFAULT_TOL:
                return f"negative probability {float(live.min())!r} at settings ({x}, {y})"
            if abs(live.sum() - 1.0) > 1e-10:
                return f"probabilities at settings ({x}, {y}) sum to {float(live.sum())!r}"
    return None


def table_error(probs, outcomes_a, outcomes_b) -> str | None:
    try:
        CorrelationTable(probs, outcomes_a, outcomes_b)
    except ValueError as exc:
        if "far setting" not in str(exc):
            return str(exc)
    return None


def _mixed_outcome_tables():
    tri = simplex_model(3)
    three = Measurement(np.eye(3), tri)
    two = Measurement(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), tri)
    classical = JointState(np.diag([0.5, 0.25, 0.25]), tri, tri)
    state = max_entangled(7)
    rays = ray_settings(state.model_a, 7)
    e0, unit = state.model_a.ray_effects[0], state.model_a.unit_effect
    split = Measurement(np.stack([e0, (unit - e0) / 2.0, (unit - e0) / 2.0]), state.model_a)
    return [
        (classical, [three, two, three], [two, three]),
        (state, [split, rays[1], split, rays[4]], rays[2:5] + [split]),
    ]


def _bitwise_cases():
    cases = []
    for n in range(3, 65):
        state = max_entangled(n)
        rays = ray_settings(state.model_a, state.model_a.ray_effects.shape[0])
        # every ray on the first side; a reversed subset on the second
        cases.append(pytest.param(state, rays, rays[::-1][:max(1, n // 3)], id=f"maxent{n}"))
    house = house_joint_state()
    cases.append(pytest.param(house, *house_demo_measurements(house.model_a), id="house-demo"))
    house_rays = ray_settings(house.model_a, 5)
    cases.append(pytest.param(house, house_rays, house_rays, id="house-rays"))
    for k, case in enumerate(_mixed_outcome_tables()):
        cases.append(pytest.param(*case, id=f"mixed{k}"))
    return cases


@pytest.mark.parametrize("state, meas_a, meas_b", _bitwise_cases())
def test_stacked_table_is_bitwise_the_pair_loop(state, meas_a, meas_b):
    t = correlations_from_state(state, meas_a, meas_b)
    ref = correlations_reference(state, meas_a, meas_b)
    assert t.probs.shape == ref.shape
    assert np.array_equal(t.probs, ref)
    assert np.array_equal(np.signbit(t.probs), np.signbit(ref))


def _padding_cases(good: CorrelationTable) -> dict[str, np.ndarray]:
    """Tables whose padding decides the verdict, on the first mixed table.

    Settings 1 of the first side and 0 of the second have two outcomes, so
    a = 2 and b = 2 are padding at the pair (1, 0), as a = 2 is at (1, 1).
    """
    cases = {}
    # padding on a pair that is also negative
    p = good.probs.copy()
    p[2, 0, 1, 0] = 0.1
    p[0, 0, 1, 0] -= 0.6
    cases["padding-and-negative"] = p
    # negative padding
    p = good.probs.copy()
    p[2, 1, 1, 0] = -0.4
    cases["negative-padding"] = p
    # padding on a pair whose live sum is wrong
    p = good.probs.copy()
    p[2, 2, 1, 1] = 0.25
    p[0, 0, 1, 1] += 0.3
    cases["padding-and-sum"] = p
    # padding that brings the whole slice back to 1 while the live sum is 0.8
    p = good.probs.copy()
    p[0, 0, 1, 0] -= 0.2
    p[2, 1, 1, 0] = 0.2
    cases["padding-restores-sum"] = p
    # -0.0 is exactly zero: accepted as padding
    p = good.probs.copy()
    p[2, :, 1, :] = -0.0
    p[:, 2, :, 0] = -0.0
    cases["negative-zero-padding"] = p
    return cases


def _bad_tables():
    rng = np.random.default_rng(1215)
    good = correlations_from_state(*_mixed_outcome_tables()[0])
    counts = (good.outcomes_a, good.outcomes_b)
    tables = []
    # one earlier pair valid, a later pair failing every check at once
    every = good.probs.copy()
    every[2, 2, 1, 1] = 0.5      # padding: setting 1 of the first side has 2 outcomes
    every[0, 0, 1, 1] = -0.2     # negative
    every[1, 0, 2, 0] = 0.7      # a later pair, unnormalized
    tables.append(every)
    # negativity and sum at the same pair, padding only at a later one
    neg_sum = good.probs.copy()
    neg_sum[0, 1, 0, 1] = -0.3
    neg_sum[2, 2, 1, 1] = 0.1
    tables.append(neg_sum)
    # the sum alone, on the last pair
    last = good.probs.copy()
    last[0, 0, 2, 1] += 1e-9
    tables.append(last)
    # negative within the tolerance passes; just beyond it fails
    for excess in (0.5, 2.0):
        edge = good.probs.copy()
        edge[0, 0, 0, 0] -= excess * DEFAULT_TOL
        edge[1, 0, 0, 0] += excess * DEFAULT_TOL
        tables.append(edge)
    tables.extend(_padding_cases(good).values())
    for _ in range(60):
        probs = good.probs.copy()
        for _ in range(rng.integers(1, 4)):
            a, b = rng.integers(3), rng.integers(3)
            x, y = rng.integers(3), rng.integers(2)
            probs[a, b, x, y] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, 0)
        tables.append(probs)
    return [(p, *counts) for p in tables]


def test_table_rejects_the_first_failing_pair_like_the_loop():
    seen = set()
    for probs, outcomes_a, outcomes_b in _bad_tables():
        want = table_error_reference(probs, outcomes_a, outcomes_b)
        assert table_error(probs, outcomes_a, outcomes_b) == want
        seen.add(None if want is None else want.split()[0])
    # every check, and a table that passes them all, is among the cases
    assert seen == {None, "padding", "negative", "probabilities"}
    every = _bad_tables()[0]
    assert table_error(*every) == ("padding beyond the declared outcomes of (1, 1) "
                                   "must be exactly zero")
    assert table_error(*_bad_tables()[1]) == "negative probability -0.3 at settings (0, 1)"
    good = correlations_from_state(*_mixed_outcome_tables()[0])
    counts = (good.outcomes_a, good.outcomes_b)
    verdicts = {name: table_error(probs, *counts)
                for name, probs in _padding_cases(good).items()}
    assert verdicts.pop("negative-zero-padding") is None
    assert verdicts == {
        "padding-and-negative": "padding beyond the declared outcomes of (1, 0) "
                                "must be exactly zero",
        "negative-padding": "padding beyond the declared outcomes of (1, 0) "
                            "must be exactly zero",
        "padding-and-sum": "padding beyond the declared outcomes of (1, 1) "
                           "must be exactly zero",
        "padding-restores-sum": "padding beyond the declared outcomes of (1, 0) "
                                "must be exactly zero",
    }


def test_table_checks_do_not_loop_over_setting_pairs(monkeypatch):
    # one reduction call per table, whatever its size; a per-pair loop
    # would call it 256 times more often for 16 times the settings
    state = max_entangled(256)
    rays = ray_settings(state.model_a, 256)
    original, calls, counts = np.any, [], []
    monkeypatch.setattr(np, "any", lambda *a, **kw: calls.append(1) or original(*a, **kw))
    for k in (16, 256):
        calls.clear()
        correlations_from_state(state, rays[:k], rays[:k])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_mixed_outcome_counts_pad_with_zeros():
    tri = simplex_model(3)
    three = Measurement(np.eye(3), tri)
    two = Measurement(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), tri)
    state_matrix = np.diag([0.5, 0.25, 0.25])
    t = correlations_from_state(JointState(state_matrix, tri, tri),
                                [three, two], [three])
    assert t.outcomes_a == (3, 2)
    assert t.outcomes_b == (3,)
    assert t.probs.shape == (3, 3, 2, 1)
    assert np.all(t.probs[2, :, 1, 0] == 0.0)
    # one unit of probability per setting pair
    np.testing.assert_allclose(t.probs.sum(axis=(0, 1)), np.ones((2, 1)), atol=1e-12)


def test_correlator_requires_two_outcomes():
    tri = simplex_model(3)
    three = Measurement(np.eye(3), tri)
    t = correlations_from_state(JointState(np.diag([1, 0, 0.0]), tri, tri),
                                [three], [three])
    with pytest.raises(ValueError):
        correlator(t, 0, 0)


def test_correlator_refuses_settings_outside_the_table():
    state = max_entangled(5)
    table = correlations_from_state(state, ray_settings(state.model_a, 2),
                                    ray_settings(state.model_a, 3))
    # -1 used to read setting 1, and 2 to end in a bare tuple IndexError
    for x, y in ((-1, 0), (0, -1), (2, 0), (0, 3), (-3, 7)):
        message = f"correlator settings ({x}, {y}) out of range for a table with 2 x 3 settings"
        with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
            correlator(table, x, y)
    probs = table.probs[:, :, 1, 2]
    assert correlator(table, 1, 2) == probs[0, 0] + probs[1, 1] - probs[0, 1] - probs[1, 0]


@pytest.mark.parametrize("bad", [1.0, 2.0, True], ids=repr)
def test_correlator_settings_must_be_integers(bad):
    # 1.0 used to end in a bare tuple TypeError, and True to pass the range
    # check and then in numpy's TypeError
    table = two_setting_table(7)
    with pytest.raises(ValueError, match=f"^correlator setting x must be an integer, got {bad!r}$"):
        correlator(table, bad, 0)
    with pytest.raises(ValueError, match=f"^correlator setting y must be an integer, got {bad!r}$"):
        correlator(table, 0, bad)


def test_correlator_takes_numpy_integers():
    table = two_setting_table(7)
    for x, y in itertools.product(range(2), repeat=2):
        assert correlator(table, np.int64(x), np.int32(y)) == correlator(table, x, y)
    with pytest.raises(IndexError, match=re.escape("correlator settings (2, 0) out of range")):
        correlator(table, np.int64(2), 0)


def test_padding_is_every_entry_past_a_settings_outcomes():
    # a nonzero entry is refused as padding exactly where outcome a of
    # setting x or b of setting y is past that setting's outcome count; a
    # table in which no setting is padded has no such entry
    two = two_setting_table(7)
    tables = [correlations_from_state(*case) for case in _mixed_outcome_tables()] + [two]
    # every setting padded on both sides, then on the second side alone
    for shape in ((3, 3, 2, 2), (2, 3, 2, 2)):
        wide = np.zeros(shape)
        wide[:2, :2] = two.probs
        tables.append(CorrelationTable(wide, two.outcomes_a, two.outcomes_b))
    for table in tables:
        a, b, x, y = np.indices(table.probs.shape)
        dead = (a >= np.array(table.outcomes_a)[x]) | (b >= np.array(table.outcomes_b)[y])
        for index in np.ndindex(table.probs.shape):
            probs = table.probs.copy()
            probs[index] += 1e-300  # leaves every live entry, sum and minimum as they were
            want = (f"padding beyond the declared outcomes of {index[2:]} must be exactly zero"
                    if dead[index] else None)
            assert table_error(probs, table.outcomes_a, table.outcomes_b) == want, index


def test_two_setting_functionals_refuse_a_table_with_one_setting():
    state = max_entangled(5)
    one, two = ray_settings(state.model_a, 1), ray_settings(state.model_a, 2)
    for meas_a, meas_b, pair in ((one, one, "(0, 1)"), (two, one, "(0, 1)"),
                                 (one, two, "(1, 0)")):
        table = correlations_from_state(state, meas_a, meas_b)
        counts = f"{len(meas_a)} x {len(meas_b)}"
        for functional in (chsh, uffink, q1_necessary_conditions):
            with pytest.raises(IndexError, match=re.escape(
                    f"settings {pair} out of range for a table with {counts} settings")):
                functional(table)


@pytest.mark.parametrize("n", [7.5, 8.0, True, "9"], ids=repr)
def test_analytic_routes_refuse_a_vertex_count_that_is_not_an_integer(n):
    # 7.5 used to take the n = 5 (mod 8) branch of the closed form
    for route in (chsh_max_closed_form, chsh_max_analytic):
        with pytest.raises(ValueError, match="^polygon vertex count must be an integer"):
            route(n)
    for route in (chsh_max_closed_form, chsh_max_analytic):
        with pytest.raises(ValueError, match="^polygon models need at least 3 vertices$"):
            route(2)
    assert chsh_max_closed_form(np.int64(13)) == chsh_max_closed_form(13)
    assert chsh_max_analytic(np.int32(13)) == chsh_max_analytic(13)


def test_benchmark_reference_is_the_scan_and_the_closed_form():
    # bench/chsh_reference.json freezes the maxima the chsh-scan workload
    # checks; read it here without changing it, every size, not only the
    # smoke sizes
    path = Path(__file__).resolve().parent.parent / "bench" / "chsh_reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))["chsh_max"]
    assert sorted(map(int, reference)) == list(range(3, 53)) + [64, 96, 128]
    for key, value in reference.items():
        n = int(key)
        assert chsh_max_over_settings(max_entangled(n))[0] == pytest.approx(value, abs=1e-9), n
        assert chsh_max_closed_form(n) == pytest.approx(value, abs=1e-9), n


def test_ray_settings_bounds():
    m = polygon(5)
    assert len(ray_settings(m, 3)) == 3
    assert ray_settings(m, 0) == []
    with pytest.raises(ValueError, match="^ray index 5 out of range"):
        ray_settings(m, 6)
    # -1 used to give [], True one setting and 2.0 a bare TypeError
    with pytest.raises(ValueError, match="^ray_settings k = -1 is negative$"):
        ray_settings(m, -1)
    for k in (True, 2.0):
        with pytest.raises(ValueError, match=f"^ray_settings k must be an integer, got {k!r}$"):
            ray_settings(m, k)
    for got, want in zip(ray_settings(m, np.int64(3)), ray_settings(m, 3)):
        assert np.array_equal(got.effects, want.effects)


# -- correlator closed forms ---------------------------------------------------


def test_even_correlators_cosine_law():
    n = 8
    t = correlations_from_state(max_entangled(n),
                                ray_settings(polygon(n), n),
                                ray_settings(polygon(n), n))
    e = correlator_matrix(t)
    r2 = polygon_radius(n) ** 2
    for i in range(n):
        for j in range(n):
            alpha = 2 * math.pi * (i + 1) / n
            beta = (2 * (j + 1) - 1) * math.pi / n
            assert e[i, j] == pytest.approx(r2 * math.cos(alpha - beta), abs=1e-12)


def test_odd_correlators_cosine_law():
    n = 7
    t = correlations_from_state(max_entangled(n),
                                ray_settings(polygon(n), n),
                                ray_settings(polygon(n), n))
    e = correlator_matrix(t)
    r2 = polygon_radius(n) ** 2
    for i in range(n):
        for j in range(n):
            want = (4 * r2 * math.cos(2 * math.pi * (i - j) / n)
                    + (1 - r2) ** 2) / (1 + r2) ** 2
            assert e[i, j] == pytest.approx(want, abs=1e-12)


# -- CHSH maxima ----------------------------------------------------------------


def brute_chsh_slow(n: int):
    """Independent quadruple-loop oracle, pure Python arithmetic."""
    state = max_entangled(n)
    meas = ray_settings(state.model_a, state.model_a.ray_effects.shape[0])
    t = correlations_from_state(state, meas, meas)
    e = correlator_matrix(t)
    best, best_idx = -1.0, None
    k = e.shape[0]
    for i0 in range(k):
        for i1 in range(k):
            for j0 in range(k):
                for j1 in range(k):
                    v = abs(e[i0, j0] + e[i0, j1] + e[i1, j0] - e[i1, j1])
                    if v > best + 1e-15:
                        best, best_idx = v, (i0, i1, j0, j1)
    return best, best_idx


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_fast_scan_matches_slow_oracle(n):
    fast_v, fast_idx = chsh_max_bruteforce(n)
    slow_v, _ = brute_chsh_slow(n)
    assert fast_v == pytest.approx(slow_v, abs=1e-12)
    state = max_entangled(n)
    meas = ray_settings(state.model_a, state.model_a.ray_effects.shape[0])
    e = correlator_matrix(correlations_from_state(state, meas, meas))
    i0, i1, j0, j1 = fast_idx
    attained = abs(e[i0, j0] + e[i0, j1] + e[i1, j0] - e[i1, j1])
    assert attained == pytest.approx(fast_v, abs=1e-12)


def chsh_scan_reference(state):
    """The O(n^4) scan: one (i1, j0, j1) block per i0, first maximiser kept."""
    ga = 2.0 * state.model_a.ray_effects - state.model_a.unit_effect
    gb = 2.0 * state.model_b.ray_effects - state.model_b.unit_effect
    e = ga @ state.matrix @ gb.T
    diff = e[:, :, None] - e[:, None, :]
    best, best_idx = -np.inf, (0, 0, 0, 0)
    for i0 in range(e.shape[0]):
        block = np.abs((e[i0][:, None] + e[i0][None, :])[None, :, :] + diff)
        flat = int(np.argmax(block))
        val = float(block.ravel()[flat])
        if val > best:
            i1, j0, j1 = np.unravel_index(flat, block.shape)
            best, best_idx = val, (i0, int(i1), int(j0), int(j1))
    return best, best_idx


def _rectangular_states():
    rng = np.random.default_rng(20101215)
    pa, pb = polygon(5), polygon(8)
    return [
        random_extremal_joint_state(pa, rng, pb),
        # rank-one correlators: every (i0, i1) pair ties, so only the
        # tie-break decides the argmax
        product_state(pa, pb, pa.extremal_states[0], pb.extremal_states[1]),
    ]


def swapped(state: JointState) -> JointState:
    """The same state with its two sides exchanged."""
    return JointState(state.matrix.T, state.model_b, state.model_a)


def all_tied_state(n: int = 12) -> JointState:
    # the maximally mixed product has all correlators 0: every quadruple
    # ties, so the argmax candidates span many chunks
    return product_state(polygon(n), polygon(n), [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "state",
    [max_entangled(n) for n in (*range(3, 61), 64, 96)] + [house_joint_state()]
    + _rectangular_states() + [swapped(s) for s in _rectangular_states()]
    + [all_tied_state()],
    ids=[f"maxent{n}" for n in (*range(3, 61), 64, 96)]
    + ["house", "rand5x8", "product5x8", "rand8x5", "product8x5", "all-tied"],
)
def test_scan_is_bitwise_the_quartic_scan(state):
    value, idx = chsh_max_over_settings(state)
    ref_value, ref_idx = chsh_scan_reference(state)
    assert value == ref_value
    assert idx == ref_idx


def _row_best_pass_2(e, b_max, row_best, step):
    """Pass 2 of the two reference scans below, from pass 1's max B and row bests.

    The (j0, j1) that reach the maximum with the first best i0, as one
    n_b x n_b mask; then the first i1 that reaches it on any of them, in
    chunks of step * n_b candidates; then the first (j0, j1) on (i0, i1).
    """
    n_a = e.shape[0]
    i0 = int(np.argmax(row_best))
    best = float(row_best[i0])
    b_min = -b_max.T
    a0 = e[i0, :, None] + e[i0, None, :]
    cand_j0, cand_j1 = np.nonzero(np.maximum(a0 + b_max, -(a0 + b_min)) == best)
    reached = np.zeros(n_a, dtype=bool)
    chunk = step * e.shape[1]
    for lo in range(0, len(cand_j0), chunk):
        j0s, j1s = cand_j0[lo:lo + chunk], cand_j1[lo:lo + chunk]
        s = np.abs(a0[j0s, j1s] + (e[:, j0s] - e[:, j1s]))
        reached |= (s == best).any(axis=1)
    i1 = int(np.argmax(reached))
    s = np.abs(a0 + (e[i1, :, None] - e[i1, None, :]))
    j0, j1 = np.unravel_index(int(np.argmax(s)), s.shape)
    return abs(best), (i0, i1, int(j0), int(j1))


# The block budget of the ordered scan below, kept with it.
_ORDERED_SCAN_BLOCK_ELEMENTS = 1 << 16


def chsh_scan_ordered_reference(state):
    """An earlier library scan: every ordered pair (j0, j1) in blocks of j0.

    Pass 1 forms A and B for all n_b columns of each block and keeps, per
    i0, the best |S| over (i1, j0, j1). Kept as the reference for the
    value, the argmax and its tie-break of the scans that visit each
    unordered pair once.
    """
    ga = 2.0 * state.model_a.ray_effects - state.model_a.unit_effect
    gb = 2.0 * state.model_b.ray_effects - state.model_b.unit_effect
    e = ga @ state.matrix @ gb.T
    n_a, n_b = e.shape
    step = max(1, _ORDERED_SCAN_BLOCK_ELEMENTS // (n_a * n_b))
    b_max = np.empty((n_b, n_b))
    row_best = np.full(n_a, -np.inf)
    for lo in range(0, n_b, step):
        js = slice(lo, lo + step)
        a = e[:, js, None] + e[:, None, :]
        b = e[:, js, None] - e[:, None, :]
        b_max[js] = b.max(axis=0)
        np.abs(a, out=a)
        a += b_max[js]
        np.maximum(row_best, a.max(axis=(1, 2)), out=row_best)
    return _row_best_pass_2(e, b_max, row_best, step)


# The block budget of the row-best scan below, kept with it.
_ROW_BEST_SCAN_BLOCK_ELEMENTS = 1 << 14


def chsh_scan_row_best_reference(state):
    """The previous library scan: each unordered pair once, best |S| per i0.

    Pass 1 runs over j1 >= j0 in equal-area blocks, fills the whole n_b x
    n_b table of max B (mirroring the block's min into the rows below it)
    and keeps, per i0, the best |S| over (i1, j0, j1). Kept as the
    reference for the value, the argmax and its tie-break of the scan that
    reads only the candidate pairs in pass 2.
    """
    ga = 2.0 * state.model_a.ray_effects - state.model_a.unit_effect
    gb = 2.0 * state.model_b.ray_effects - state.model_b.unit_effect
    e = ga @ state.matrix @ gb.T
    n_a, n_b = e.shape
    step = max(1, _ROW_BEST_SCAN_BLOCK_ELEMENTS // (n_a * n_b))
    square = n_a * n_b * n_b
    per_block = -(-square // -(-square // _ROW_BEST_SCAN_BLOCK_ELEMENTS))
    b_max = np.empty((n_b, n_b))
    row_best = np.full(n_a, -np.inf)
    lo = 0
    while lo < n_b:
        hi = min(n_b, lo + max(1, per_block // (n_a * (n_b - lo))))
        a = e[:, lo:hi, None] + e[:, None, lo:]
        b = e[:, lo:hi, None] - e[:, None, lo:]
        add = b.max(axis=0)
        b_max[lo:hi, lo:] = add
        if hi < n_b:
            mirrored = -b[:, :, hi - lo:].min(axis=0)
            b_max[hi:, lo:hi] = mirrored.T
            np.maximum(add[:, hi - lo:], mirrored, out=add[:, hi - lo:])
        np.abs(a, out=a)
        a += add
        np.maximum(row_best, a.max(axis=(1, 2)), out=row_best)
        lo = hi
    return _row_best_pass_2(e, b_max, row_best, step)


# The earlier scans, and the families on which the scan must be bitwise each.
_EARLIER_SCANS = [chsh_scan_ordered_reference, chsh_scan_row_best_reference]
_SCAN_NS = [*range(3, 131), 200, 256]
_SCAN_STATES = [house_joint_state(), *_rectangular_states(),
                *(swapped(s) for s in _rectangular_states()), all_tied_state()]
_SCAN_STATE_IDS = ["house", "rand5x8", "product5x8", "rand8x5", "product8x5", "all-tied"]


def random_scan_states():
    """200 random states on pairs of distinct polygons 3..16, one in four tie-heavy."""
    rng = np.random.default_rng(15)
    for k in range(200):
        n_a, n_b = (int(n) for n in rng.choice(np.arange(3, 17), size=2, replace=False))
        matrix = rng.standard_normal((3, 3))
        if k % 4 == 0:
            # one decimal: many correlators coincide, so the tie-break decides
            matrix = np.round(matrix, 1)
        yield k, JointState(matrix, polygon(n_a), polygon(n_b))


def assert_scan_is_bitwise_the_earlier_scans(state, *context):
    result = chsh_max_over_settings(state)
    for reference in _EARLIER_SCANS:
        assert result == reference(state), (reference.__name__, *context)


@pytest.mark.parametrize("n", _SCAN_NS)
def test_scan_is_bitwise_the_ordered_scan_on_entangled_states(n):
    assert_scan_is_bitwise_the_earlier_scans(max_entangled(n))


@pytest.mark.parametrize("state", _SCAN_STATES, ids=_SCAN_STATE_IDS)
def test_scan_is_bitwise_the_ordered_scan(state):
    assert_scan_is_bitwise_the_earlier_scans(state)


def test_scan_is_bitwise_the_ordered_scan_on_random_rectangular_states():
    for k, state in random_scan_states():
        assert_scan_is_bitwise_the_earlier_scans(state, k)


def with_rays(model: ModelSpec, flags) -> ModelSpec:
    """The same model with other effects flagged ray-extremal."""
    return ModelSpec(model.name, model.dim, model.extremal_states,
                     model.extremal_effects, model.unit_effect, flags)


@pytest.mark.parametrize("side", ["first", "second"])
def test_scan_rejects_a_side_without_ray_effects(side):
    pentagon = polygon(5)
    none = with_rays(pentagon, np.zeros(pentagon.n_effects, dtype=bool))
    models = (none, pentagon) if side == "first" else (pentagon, none)
    with pytest.raises(ValueError, match=f"the {side} side has no ray-extremal effect"):
        chsh_max_over_settings(JointState(np.eye(3), *models))


def test_scan_with_one_ray_per_side():
    pentagon = polygon(5)
    one = with_rays(pentagon, np.arange(pentagon.n_effects) == 0)
    state = JointState(np.eye(3), one, one)
    expected = (1.9999999999999996, (0, 0, 0, 0))
    assert chsh_max_over_settings(state) == expected
    assert chsh_scan_reference(state) == chsh_scan_row_best_reference(state) == expected


def scan_row_blocks(n_a: int, n_b: int, budget: int) -> list[tuple[int, int, int]]:
    """The scan's row blocks at ``budget``: (lo, hi, rows the rule asked for)."""
    square = n_a * n_b * n_b
    per_block = -(-square // -(-square // budget))
    blocks, lo = [], 0
    while lo < n_b:
        rows = max(1, per_block // (n_a * (n_b - lo)))
        blocks.append((lo, min(n_b, lo + rows), rows))
        lo = blocks[-1][1]
    return blocks


def scan_budgets(n_a: int, n_b: int) -> list[int]:
    """One row per block, a ragged last block, a single block, the default.

    The ragged budget is the largest that splits the rows into three or
    more blocks and cuts the last one short at n_b.
    """
    one_block = n_a * n_b * n_b
    ragged = next(b for b in range(one_block - 1, 0, -1)
                  if len(blocks := scan_row_blocks(n_a, n_b, b)) > 2
                  and blocks[-1][0] + blocks[-1][2] > n_b)
    return [1, ragged, one_block, correlations._SCAN_BLOCK_ELEMENTS]


def scan_candidates(state) -> int:
    """How many ordered pairs (j0, j1) reach the maximum, from the quartic sums.

    A pair's value is its best |S| over (i0, i1) in either order, so both
    orders of a pair count alike.
    """
    ga = 2.0 * state.model_a.ray_effects - state.model_a.unit_effect
    gb = 2.0 * state.model_b.ray_effects - state.model_b.unit_effect
    e = ga @ state.matrix @ gb.T
    a = e[:, :, None] + e[:, None, :]
    b = e[:, :, None] - e[:, None, :]
    pair = np.abs(a[:, None] + b[None]).max(axis=(0, 1))
    pair = np.maximum(pair, pair.T)
    return int((pair == pair.max()).sum())


@pytest.mark.parametrize(
    "state",
    [max_entangled(12), all_tied_state(), max_entangled(13), *_rectangular_states(),
     *(swapped(s) for s in _rectangular_states())],
    ids=["maxent12", "all-tied", "maxent13", "rand5x8", "product5x8", "rand8x5",
         "product8x5"],
)
def test_scan_blocks_do_not_change_the_result(state, monkeypatch):
    # the triangle runs over the second side only, so both orientations of
    # a rectangular state are split
    n_a, n_b = state.model_a.ray_effects.shape[0], state.model_b.ray_effects.shape[0]
    expected = chsh_scan_ordered_reference(state)
    assert expected == chsh_scan_reference(state)
    chunks = []
    sums = correlations._candidate_sums
    monkeypatch.setattr(correlations, "_candidate_sums",
                        lambda e, j0s, j1s: chunks.append(len(j0s)) or sums(e, j0s, j1s))
    for budget in scan_budgets(n_a, n_b):
        monkeypatch.setattr(correlations, "_SCAN_BLOCK_ELEMENTS", budget)
        chunks.clear()
        assert chsh_max_over_settings(state) == expected, budget
        if budget == 1:
            # one candidate per pass-2 chunk, read once by each of the two
            # searches; every state here has several candidates
            candidates = scan_candidates(state)
            assert candidates > 1
            assert chunks == [1] * (2 * candidates)


@pytest.mark.parametrize("state", [all_tied_state(), max_entangled(12), *_rectangular_states()],
                         ids=["all-tied", "maxent12", "rand5x8", "product5x8"])
def test_scan_forms_one_chunk_of_candidates_once(state, monkeypatch):
    # candidates that fit one chunk are summed once for both searches; more
    # chunks are summed once per chunk and search; both keep the result
    n_a = state.model_a.ray_effects.shape[0]
    candidates = scan_candidates(state)
    expected = chsh_scan_row_best_reference(state)
    chunks = []
    sums = correlations._candidate_sums
    monkeypatch.setattr(correlations, "_candidate_sums",
                        lambda e, j0s, j1s: chunks.append(len(j0s)) or sums(e, j0s, j1s))
    for per_chunk in (candidates, candidates + 1, 2, 1):
        monkeypatch.setattr(correlations, "_SCAN_BLOCK_ELEMENTS", per_chunk * n_a)
        chunks.clear()
        assert chsh_max_over_settings(state) == expected, per_chunk
        if per_chunk >= candidates:
            assert chunks == [candidates]
        else:
            split = [per_chunk] * (candidates // per_chunk) + [candidates % per_chunk] * (
                candidates % per_chunk > 0)
            assert chunks == split + split


def scan_peak_bytes(state) -> int:
    """The scan's tracemalloc peak on ``state``."""
    tracemalloc.start()
    try:
        chsh_max_over_settings(state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def documented_scan_bound(n_a: int, n_b: int, *, few_candidates: bool = False) -> int:
    """The docstring's memory bound in bytes.

    16 (n_a + n_b) doubles stand for its "few vectors of length n_a or
    n_b". In the general bound, 5 T hold pass 2's four temporaries and
    numpy's two iteration buffers. With few candidates, pass 1 sets the
    peak: the correlators, the table, one block temporary and the buffers.
    """
    temporary = max(correlations._SCAN_BLOCK_ELEMENTS, n_a * n_b)
    vectors = 16 * (n_a + n_b)
    if few_candidates:
        return 8 * (n_a * n_b + n_b**2 + temporary + vectors + 2 * np.getbufsize())
    return 8 * (n_a * n_b + 3 * n_b**2 + 5 * temporary + vectors)


def test_scan_memory_is_within_its_documented_bound():
    for state in (all_tied_state(), max_entangled(40), max_entangled(512)):
        n_a, n_b = state.model_a.ray_effects.shape[0], state.model_b.ray_effects.shape[0]
        peak = scan_peak_bytes(state)
        assert peak < documented_scan_bound(n_a, n_b)
    # at n = 512 few pairs (j0, j1) reach the maximum
    assert peak < documented_scan_bound(n_a, n_b, few_candidates=True)


def test_scan_splits_pass_2_when_every_pair_ties():
    # all 65536 ordered pairs are candidates: 1024 chunks of 64 per search
    state = all_tied_state(256)
    assert chsh_max_over_settings(state) == chsh_scan_row_best_reference(state)
    assert scan_peak_bytes(state) < documented_scan_bound(256, 256)


def test_square_reaches_algebraic_maximum():
    v, idx = chsh_max_bruteforce(4)
    assert v == pytest.approx(4.0, abs=1e-12)
    assert idx == (0, 1, 1, 0)


def test_analytic_equals_closed_form():
    for n in range(3, 40):
        assert chsh_max_analytic(n) == pytest.approx(
            chsh_max_closed_form(n), abs=1e-12), n


def exact_analytic_chsh(n: int) -> sp.Expr:
    """Exact-arithmetic replica of the angle-snapping maximization."""
    n_ = sp.Integer(n)
    step = 2 * sp.pi / n_
    b_offset = sp.pi / n_ if n % 2 == 0 else sp.Integer(0)
    sec = 1 / sp.cos(sp.pi / n_)
    free = (
        (sp.Integer(0), sp.pi / 2, sp.pi / 4, -sp.pi / 4),
        (sp.Integer(0), sp.pi / 2, -3 * sp.pi / 4, 3 * sp.pi / 4),
    )

    def neighbours(target, offset):
        k = sp.floor((target - offset) / step)
        return (offset + k * step, offset + (k + 1) * step)

    best = sp.Integer(0)
    for a0t, a1t, b0t, b1t in free:
        for a0 in neighbours(a0t, sp.Integer(0)):
            for a1 in neighbours(a1t, sp.Integer(0)):
                for b0 in neighbours(b0t, b_offset):
                    for b1 in neighbours(b1t, b_offset):
                        sigma = (sp.cos(a0 - b0) + sp.cos(a0 - b1)
                                 + sp.cos(a1 - b0) - sp.cos(a1 - b1))
                        if n % 2 == 0:
                            val = sp.Abs(sec * sigma)
                        else:
                            val = (2 / (1 + sec) ** 2) * sp.Abs(
                                (sec - 1) ** 2 + 2 * sec * sigma)
                        if val.evalf(40) > best.evalf(40):
                            best = val
    return best


def exact_closed_form(n: int) -> sp.Expr:
    """The residue-class table in exact arithmetic (corrected 3 and 5 brackets)."""
    x = n % 8
    n_ = sp.Integer(n)
    sec = 1 / sp.cos(sp.pi / n_)
    q = sp.pi / (4 * n_)
    if x == 0:
        return 2 * sp.sqrt(2)
    if x == 4:
        return 2 * sp.sqrt(2) * sec
    if x == 2:
        return sec * (3 * sp.cos((n_ + 2) * q) + sp.sin((n_ + 6) * q))
    if x == 6:
        return sec * (sp.cos((n_ + 6) * q) + 3 * sp.sin((n_ + 2) * q))
    pref = 2 / (1 + sec) ** 2
    if x == 1:
        return pref * (1 + sec * (6 * sp.sin((n_ + 1) * q)
                                  + 2 * sp.cos((n_ + 3) * q) + sec - 2))
    if x == 7:
        return pref * (1 + sec * (6 * sp.cos((n_ + 1) * q)
                                  + 2 * sp.sin((n_ + 3) * q) + sec - 2))
    if x == 3:
        return pref * (sec * (6 * sp.cos((n_ + 1) * q)
                              + 2 * sp.sin((n_ + 3) * q) + 2 - sec) - 1)
    return pref * (sec * (6 * sp.sin((n_ + 1) * q)
                          + 2 * sp.cos((n_ + 3) * q) + 2 - sec) - 1)


@pytest.mark.parametrize("n", range(3, 16))
def test_closed_form_exact_to_forty_digits(n):
    # exact-arithmetic agreement, far below double precision; this is the
    # authoritative check that the class-3 and class-5 brackets are right
    gap = abs(exact_analytic_chsh(n).evalf(40) - exact_closed_form(n).evalf(40))
    assert gap < sp.Float("1e-35")


def test_residue_classes_converge_monotonically():
    target = 2 * math.sqrt(2)
    for x in range(8):
        ns = [n for n in range(3, 80) if n % 8 == x]
        vals = [chsh_max_closed_form(n) for n in ns]
        gaps = [abs(v - target) for v in vals]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:])), x
        if x % 2 == 0:
            assert all(v >= target - 1e-9 for v in vals)
        else:
            assert all(v <= target + 1e-9 for v in vals)


def test_scan_settings_reproduce_value():
    state = max_entangled(10)
    v, (i0, i1, j0, j1) = chsh_max_over_settings(state)
    meas = ray_settings(state.model_a, 10)
    t = correlations_from_state(state, [meas[i0], meas[i1]], [meas[j0], meas[j1]])
    assert chsh(t) == pytest.approx(v, abs=1e-12)


# -- chained functional ----------------------------------------------------------


def chained_local_oracle(n_settings: int) -> float:
    """Maximum of the chained functional over deterministic strategies."""
    best = 0.0
    for aa in itertools.product((0, 1), repeat=n_settings):
        for bb in itertools.product((0, 1), repeat=n_settings):
            best = max(best, chained(deterministic_table(aa, bb), n_settings))
    return best


@pytest.mark.parametrize("n_settings", [2, 3, 4])
def test_chained_local_bound_by_enumeration(n_settings):
    assert chained_local_oracle(n_settings) == chained_local_bound(n_settings)


@pytest.mark.parametrize("big_n", [2, 3, 4])
def test_chained_algebraic_maximum(big_n):
    state = max_entangled(2 * big_n)
    meas = ray_settings(state.model_a, big_n)
    t = correlations_from_state(state, meas, meas)
    assert chained(t, big_n) == pytest.approx(2 * big_n, abs=1e-12)
    assert chained(t, big_n) > chained_local_bound(big_n)


@pytest.mark.parametrize("big_n", [2.9, 2.0, True], ids=repr)
def test_chained_refuses_a_setting_count_that_is_not_an_integer(big_n):
    # 2.9 used to give the N = 2 value and a local bound of 2.0
    state = max_entangled(8)
    meas = ray_settings(state.model_a, 3)
    table = correlations_from_state(state, meas, meas)
    message = f"^chained settings count N must be an integer, got {big_n!r}$"
    with pytest.raises(ValueError, match=message):
        chained(table, big_n)
    with pytest.raises(ValueError, match=message):
        chained_local_bound(big_n)
    assert chained(table, np.int64(3)) == chained(table, 3)
    assert chained_local_bound(np.int32(3)) == chained_local_bound(3) == 4.0
    # the bound used to return 0.0, -2.0 and -8.0 for these
    for small in (1, 0, -3):
        for call in (lambda n: chained(table, n), chained_local_bound):
            with pytest.raises(ValueError, match="^chained combination needs at least 2 settings$"):
                call(small)


def test_chained_n2_sign_arrangement():
    # N=2 chained is a CHSH-type combination with the minus on E(1,0)
    t = two_setting_table(8)
    e = correlator_matrix(t)
    want = abs(e[0, 0] + e[0, 1] + e[1, 1] - e[1, 0])
    assert chained(t, 2) == pytest.approx(want, abs=1e-14)


# -- distillation -----------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
def test_distill_reconstruction(n):
    eps, p_box, p_corr = distill_decompose(n)
    assert eps == pytest.approx(1.0 - math.cos(2 * math.pi / n), abs=1e-15)
    t = two_setting_table(n)
    recon = eps * p_box.probs + (1.0 - eps) * p_corr.probs
    np.testing.assert_allclose(t.probs, recon, atol=1e-12)
    assert correlator(t, 1, 0) == pytest.approx(
        2.0 * math.cos(2 * math.pi / n) - 1.0, abs=1e-14)


def test_distill_component_shapes():
    _, p_box, p_corr = distill_decompose(8)
    # the box component wins on a xor b == x and (not y); the classical
    # component is perfect agreement
    for a, b, x, y in itertools.product(range(2), repeat=4):
        want_box = 0.5 if (a ^ b) == (x & (1 - y)) else 0.0
        want_corr = 0.5 if a == b else 0.0
        assert p_box.probs[a, b, x, y] == want_box
        assert p_corr.probs[a, b, x, y] == want_corr


def test_distill_components_are_built_once_and_equal_a_fresh_build():
    _, p_box, p_corr = distill_decompose(8)
    _, box_again, corr_again = distill_decompose(12)
    assert box_again is p_box and corr_again is p_corr
    fresh_box = correlations._pattern_table(lambda a, b, x, y: (a ^ b) == (x & (1 - y)))
    fresh_corr = correlations._pattern_table(lambda a, b, x, y: a == b)
    for shared, fresh in ((p_box, fresh_box), (p_corr, fresh_corr)):
        assert shared.probs.tobytes() == fresh.probs.tobytes()
        assert shared.probs.dtype == fresh.probs.dtype
        assert shared.probs.shape == fresh.probs.shape
        assert (shared.outcomes_a, shared.outcomes_b) == (fresh.outcomes_a, fresh.outcomes_b)
        assert not shared.probs.flags.writeable


def test_distill_rejects_odd():
    with pytest.raises(ValueError):
        distill_decompose(7)


def test_distill_mixture_interpolates_bell_value():
    # the winning sign arrangement for these components is the N=2 chained one
    eps, p_box, p_corr = distill_decompose(8)
    assert chained(p_box, 2) == 4.0
    assert chained(p_corr, 2) == 2.0
    t = two_setting_table(8)
    assert chained(t, 2) == pytest.approx(2.0 + 2.0 * eps, abs=1e-12)


def test_tsirelson_constant():
    assert TSIRELSON_BOUND == pytest.approx(2.0 * math.sqrt(2.0), abs=0)
