import itertools
import math
import tracemalloc

import numpy as np
import pytest

from polybell import bipartite
from polybell.bipartite import (
    JointState,
    is_inner_product_state,
    pull_back_measurement,
    push_local_map,
)
from polybell.core import (
    ROUNDING_TOL,
    Measurement,
    dichotomic_measurement,
    resolve_tol,
    simplex_model,
)
from polybell.correlations import (
    TSIRELSON_BOUND,
    CorrelationTable,
    correlations_from_state,
    correlator,
    ray_settings,
)
from polybell.house import house_joint_state
from polybell.polygon import max_entangled, polygon
from polybell import q1
from polybell.q1 import (
    Q1Certificate,
    certificate_from_inner_product_state,
    certificates_for_selections,
    certificate_via_pushforward,
    q1_necessary_conditions,
    verify_delta_decomposition,
)
from polybell.selfdual import rotation_about_axis

from helpers import deterministic_table, pr_box_table


def certificate_reference(state, meas_a, meas_b):
    """The per-measurement construction the library used to run: gamma, spectrum.

    Stacks each side's effects, pairs (unit, first side, second side) under
    the state, then overrides one diagonal block per measurement with
    ``np.diag`` of its marginals.
    """
    effects_a = np.vstack([m.effects for m in meas_a])
    effects_b = np.vstack([m.effects for m in meas_b])
    outcomes_a = tuple(m.n_outcomes for m in meas_a)
    outcomes_b = tuple(m.n_outcomes for m in meas_b)
    m = state.matrix
    u = state.model_a.unit_effect
    g = np.vstack([u[None, :], effects_a, effects_b])
    gamma = g @ m @ g.T
    gamma = (gamma + gamma.T) / 2.0
    marg_a = effects_a @ m @ state.model_b.unit_effect
    marg_b = u @ m @ effects_b.T
    offset = 1
    for count, marg in ((outcomes_a, marg_a), (outcomes_b, marg_b)):
        pos = 0
        for size in count:
            block = slice(offset + pos, offset + pos + size)
            gamma[block, block] = np.diag(marg[pos:pos + size])
            pos += size
        offset += pos
    return gamma, np.linalg.eigvalsh(gamma)


def assert_matches_reference(cert, state, meas_a, meas_b):
    gamma, spectrum = certificate_reference(state, meas_a, meas_b)
    assert np.array_equal(cert.gamma, gamma)
    assert np.array_equal(cert.eigen_spectrum, spectrum)


def three_of(state, dichotomic) -> Measurement:
    """A three-outcome measurement: the first effect, and its complement split in two."""
    unit, e0 = state.model_a.unit_effect, dichotomic.effects[0]
    return Measurement(np.stack([e0, (unit - e0) / 2.0, (unit - e0) / 2.0]), state.model_a)


def trit_state() -> tuple[JointState, Measurement]:
    tri = simplex_model(3)
    state = JointState(np.diag([0.5, 0.3, 0.2]), tri, tri)
    return state, Measurement(np.eye(3), tri)


def test_certificate_matches_table_entries():
    state = max_entangled(7)
    meas = ray_settings(state.model_a, 2)
    cert = certificate_from_inner_product_state(state, meas, meas)
    table = correlations_from_state(state, meas, meas)

    # gamma's labels run over settings, then outcomes within a setting:
    # with two outcomes per setting, label 2x + a is (setting x, outcome a)
    n_a = sum(cert.outcomes_a)
    probs = table.probs  # [a, b, x, y]
    marg_a = probs[:, :, :, 0].sum(axis=1).T.ravel()
    marg_b = probs[:, :, 0, :].sum(axis=0).T.ravel()
    joint = probs.transpose(2, 0, 3, 1).reshape(n_a, -1)
    assert joint[2 * 1 + 0, 2 * 0 + 1] == probs[0, 1, 1, 0]  # (x=1, a=0), (y=0, b=1)

    # first row and column carry the marginals
    np.testing.assert_allclose(cert.gamma[0, 1:1 + n_a], marg_a, atol=1e-12)
    np.testing.assert_allclose(cert.gamma[1 + n_a:, 0], marg_b, atol=1e-12)
    assert cert.gamma[0, 0] == pytest.approx(1.0, abs=1e-12)
    # cross block carries the joint probabilities
    np.testing.assert_allclose(
        cert.gamma[1:1 + n_a, 1 + n_a:], joint, atol=1e-12)
    # diagonal blocks: marginals on the diagonal, zero within a measurement
    for x in range(2):
        i0 = 1 + 2 * x
        block = cert.gamma[i0:i0 + 2, i0:i0 + 2]
        np.testing.assert_allclose(
            block, np.diag(marg_a[2 * x:2 * x + 2]), atol=1e-12)
    for y in range(2):
        j0 = 1 + n_a + 2 * y
        block = cert.gamma[j0:j0 + 2, j0:j0 + 2]
        np.testing.assert_allclose(
            block, np.diag(marg_b[2 * y:2 * y + 2]), atol=1e-12)


def test_certificate_psd_and_verdict():
    state = max_entangled(5)
    meas = ray_settings(state.model_a, 2)
    cert = certificate_from_inner_product_state(state, meas, meas)
    assert cert.psd()
    assert cert.verdict() == "in-Q1"
    spectrum = np.linalg.eigvalsh(cert.gamma)
    np.testing.assert_allclose(spectrum, cert.eigen_spectrum, atol=1e-12)


def test_certificate_classical_trit():
    state, meas = trit_state()
    cert = certificate_from_inner_product_state(state, [meas], [meas])
    assert cert.verdict() == "in-Q1"
    assert cert.outcomes_a == (3,)
    data = cert.to_dict()
    assert data["schema_version"] >= 1
    assert data["verdict"] == "in-Q1"


def test_certificate_rejects_even_polygon():
    state = max_entangled(6)
    meas = ray_settings(state.model_a, 2)
    for tol in (None, 1e-9, 1e-6, 1e-3, None):
        with pytest.raises(ValueError, match="inner-product"):
            certificate_from_inner_product_state(state, meas, meas, tol)


def count_inner_product_reports(monkeypatch) -> list:
    """Record every InnerProductReport built from here on."""
    built = []
    original = bipartite.InnerProductReport.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs)
        original(self, *args, **kwargs)

    monkeypatch.setattr(bipartite.InnerProductReport, "__init__", counting)
    return built


def test_certificate_success_builds_no_inner_product_report(monkeypatch):
    built = count_inner_product_reports(monkeypatch)
    for n in (3, 5, 7):
        state = max_entangled(n)
        meas = ray_settings(state.model_a, 2)
        for tol in (None, 0.0, 1e-3):
            certificate_from_inner_product_state(state, meas, meas, tol)
    assert built == []
    # the counter sees the report that words a failure
    even = max_entangled(8)
    with pytest.raises(ValueError, match="inner-product"):
        certificate_from_inner_product_state(even, meas, meas)
    assert len(built) == 1


def test_certificate_error_text_for_a_non_inner_product_state():
    state = max_entangled(8)
    meas = ray_settings(state.model_a, 2)
    m = state.matrix
    asymmetry = float(np.abs(m - m.T).max())
    lowest = float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])
    expected = ("certificate construction needs an inner-product state "
                f"(asymmetry {asymmetry!r}, min eigenvalue {lowest!r})")
    for tol in (None, 0.0, 1e-3):
        with pytest.raises(ValueError) as info:
            certificate_from_inner_product_state(state, meas, meas, tol)
        assert str(info.value) == expected


def test_certificate_on_dissimilar_systems_raises_the_similarity_error():
    # the 5-gon's matrix is an inner-product state of the 5-gon with itself,
    # so only the similarity test can reject it against the 7-gon
    state = JointState(max_entangled(5).matrix, polygon(5), polygon(7))
    meas_a = ray_settings(polygon(5), 2)
    meas_b = ray_settings(polygon(7), 2)
    for tol in (None, 0.0, 1e-3):
        with pytest.raises(ValueError, match="requires two similar systems"):
            certificate_from_inner_product_state(state, meas_a, meas_b, tol)


@pytest.mark.parametrize("kind", ["asymmetry", "psd"])
def test_certificate_verdict_is_the_inner_product_verdict_at_tol(kind):
    # a state that fails the test at tol = margin * (1 - 1e-6) and passes it
    # at margin * (1 + 1e-6), one margin per rule
    base = max_entangled(7)
    if kind == "asymmetry":
        matrix = base.matrix + 1e-6 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                                [0.0, 0.0, 0.0]])
    else:
        matrix = base.matrix - (np.linalg.eigvalsh(base.matrix)[0] + 1e-6) * np.eye(3)
    state = JointState(matrix, base.model_a, base.model_b)
    gap, asymmetry, lowest, highest = state._inner_product_margins
    margin = asymmetry if kind == "asymmetry" else -lowest / max(abs(lowest), abs(highest))
    meas = ray_settings(state.model_a, 2)
    for factor, passes in ((1 - 1e-6, False), (1 + 1e-6, True), (1 - 1e-6, False)):
        tol = margin * factor
        assert is_inner_product_state(state, tol).is_inner_product is passes
        if passes:
            # the override of a non-PSD pairing may itself fail the PSD check
            try:
                certificate_from_inner_product_state(state, meas, meas, tol)
            except ArithmeticError:
                assert kind == "psd"
        else:
            with pytest.raises(ValueError, match="inner-product state"):
                certificate_from_inner_product_state(state, meas, meas, tol)


def test_supplied_gamma_verdict():
    # the certificate computes its spectrum and takes none from its caller,
    # so an indefinite gamma is not PSD, whatever order its diagonal is in
    bad = np.diag([1.0, -1.0, 1.0])
    cert = Q1Certificate(bad, (1,), (1,))
    assert np.array_equal(cert.eigen_spectrum, np.linalg.eigvalsh(bad))
    assert cert.psd() is False
    assert cert.verdict() == "undetermined"
    assert cert.to_dict()["spectrum"] == [-1.0, 1.0, 1.0]
    with pytest.raises(TypeError):
        Q1Certificate(bad, np.array([1.0, -1.0, 1.0]), (1,), (1,))


def test_certificate_rejects_an_asymmetric_gamma():
    # eigvalsh would read the lower triangle only: the identity's spectrum
    # for a matrix that is not PSD
    gamma = np.array([[1.0, 0.0, 0.0], [-5.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        Q1Certificate(gamma, (1,), (1,))
    # equal values are symmetric, even where their bits differ
    gamma = np.eye(3)
    gamma[1, 0] = -0.0
    assert Q1Certificate(gamma, (1,), (1,)).psd()


def test_certificate_payload_verdict_follows_tol():
    # lowest -1e-6 against highest 1: PSD from tol = 1e-6 on
    cert = Q1Certificate(np.diag([-1e-6, 1.0, 1.0]), (1,), (1,))
    for tol, verdict in ((None, "undetermined"), (1e-9, "undetermined"),
                         (1e-3, "in-Q1"), (1e-9, "undetermined")):
        assert cert.to_dict(tol)["verdict"] == verdict == cert.verdict(tol), tol


def test_delta_decomposition_dichotomic():
    state = max_entangled(9)
    meas = dichotomic_measurement(state.model_a, 3)
    assert verify_delta_decomposition(state, meas)


def test_delta_decomposition_three_outcomes():
    state, meas = trit_state()
    assert verify_delta_decomposition(state, meas)


def test_delta_decomposition_needs_inner_product_state():
    state = max_entangled(4)
    meas = dichotomic_measurement(state.model_a, 0)
    with pytest.raises(ValueError):
        verify_delta_decomposition(state, meas)


@pytest.mark.parametrize("state", [max_entangled(4), house_joint_state()],
                         ids=["4-gon", "house"])
def test_delta_decomposition_raises_the_certificate_gate_text(state):
    meas = dichotomic_measurement(state.model_a, 0)
    m = state.matrix
    asymmetry = float(np.abs(m - m.T).max())
    lowest = float(np.linalg.eigvalsh((m + m.T) / 2.0)[0])
    expected = ("certificate construction needs an inner-product state "
                f"(asymmetry {asymmetry!r}, min eigenvalue {lowest!r})")
    for tol in (None, 0.0, 1e-3):
        with pytest.raises(ValueError) as info:
            verify_delta_decomposition(state, meas, tol)
        assert str(info.value) == expected
        with pytest.raises(ValueError) as info:
            certificate_from_inner_product_state(state, [meas], [meas], tol)
        assert str(info.value) == expected


def test_delta_decomposition_builds_no_report_for_a_passing_state(monkeypatch):
    # the report only words the gate's error
    def refuse(*args):
        raise AssertionError("is_inner_product_state was called")

    monkeypatch.setattr(q1, "is_inner_product_state", refuse)
    state = max_entangled(9)
    for tol in (None, 0.0, 1e-3):
        assert verify_delta_decomposition(state, dichotomic_measurement(state.model_a, 3), tol)


def test_necessary_conditions_pr_box():
    report = q1_necessary_conditions(pr_box_table())
    assert report.verdict == "not-in-Q1"
    assert not report.chsh_ok
    assert report.chsh_value == pytest.approx(4.0, abs=0)
    assert not report.uffink_ok
    assert report.uffink_value == pytest.approx(8.0, abs=0)


def test_necessary_conditions_quantum_like_pass():
    state = max_entangled(5)
    meas = ray_settings(state.model_a, 2)
    report = q1_necessary_conditions(correlations_from_state(state, meas, meas))
    assert report.verdict == "undetermined"
    assert report.chsh_ok and report.uffink_ok
    assert report.to_dict()["verdict"] == "undetermined"


def correlator_table(e) -> CorrelationTable:
    """The dichotomic 2x2-setting table with uniform marginals and correlators ``e[x][y]``."""
    e = np.asarray(e, dtype=float)
    same = (1.0 + e) / 4.0
    differ = (1.0 - e) / 4.0
    return CorrelationTable(np.array([[same, differ], [differ, same]]), (2, 2), (2, 2))


# v - bound for both tables below, about 7e8 times ROUNDING_TOL
SCREEN_MARGIN = 1e-5


def test_screen_chsh_verdict_flips_at_its_margin():
    c = (TSIRELSON_BOUND + SCREEN_MARGIN) / 4.0
    table = correlator_table([[c, c], [c, -c]])
    margin = q1_necessary_conditions(table).chsh_value - TSIRELSON_BOUND
    assert margin == pytest.approx(SCREEN_MARGIN, rel=1e-9)
    assert margin > 1e6 * ROUNDING_TOL
    for order in ((1 + 1e-6, 1 - 1e-6), (1 - 1e-6, 1 + 1e-6)):
        for factor in order:
            report = q1_necessary_conditions(table, tol=margin * factor)
            assert report.chsh_ok is (factor > 1)
            # CHSH above 2 sqrt 2 puts the quadratic value above 4 by more
            # (it is at least CHSH^2 / 2), so the verdict stays not-in-Q1
            assert not report.uffink_ok
            assert report.verdict == "not-in-Q1"


def test_screen_quadratic_verdict_flips_at_its_margin():
    b = math.sqrt(SCREEN_MARGIN / 4.0)
    table = correlator_table([[1.0, b], [1.0, -b]])
    first = q1_necessary_conditions(table)
    margin = first.uffink_value - first.uffink_bound
    assert first.uffink_bound == 4.0
    assert margin == pytest.approx(SCREEN_MARGIN, rel=1e-9)
    assert first.chsh_value < TSIRELSON_BOUND - 0.5
    for order in ((1 + 1e-6, 1 - 1e-6), (1 - 1e-6, 1 + 1e-6)):
        for factor in order:
            report = q1_necessary_conditions(table, tol=margin * factor)
            assert report.uffink_ok is (factor > 1)
            assert report.chsh_ok
            assert report.verdict == ("undetermined" if factor > 1 else "not-in-Q1")
            assert list(report.to_dict()) == list(first.to_dict())


def chsh_relabelled_reference(table) -> float:
    """The 16-pattern sign loop the screen used to run, kept as its oracle."""
    e = np.array([[correlator(table, x, y) for y in range(2)] for x in range(2)])
    best = 0.0
    for signs in range(16):
        s = [1 - 2 * ((signs >> k) & 1) for k in range(4)]
        if s[0] * s[1] * s[2] * s[3] != -1:
            continue
        best = max(best, s[0] * e[0, 0] + s[1] * e[0, 1] + s[2] * e[1, 0] + s[3] * e[1, 1])
    return float(best)


def test_screen_chsh_is_bitwise_the_sign_loop():
    rng = np.random.default_rng(1012)
    tables = [pr_box_table()] + [
        deterministic_table(aa, bb)
        for aa in itertools.product((0, 1), repeat=2)
        for bb in itertools.product((0, 1), repeat=2)
    ]
    for n in range(3, 40):
        state = max_entangled(n)
        rays = ray_settings(state.model_a, n)
        for _ in range(4):
            i = rng.choice(n, size=4)
            tables.append(correlations_from_state(state, [rays[i[0]], rays[i[1]]],
                                                  [rays[i[2]], rays[i[3]]]))
    for table in tables:
        assert q1_necessary_conditions(table).chsh_value == chsh_relabelled_reference(table)


def test_pushforward_certificate_roundtrip():
    sigma = max_entangled(7)
    tau = rotation_about_axis(2 * np.pi / 7)
    omega = push_local_map(sigma, tau)
    meas = ray_settings(sigma.model_a, 2)
    cert = certificate_via_pushforward(omega, tau, meas, meas, sigma=sigma)
    assert cert.verdict() == "in-Q1"


def test_pushforward_certificate_rejects_wrong_preimage():
    sigma = max_entangled(7)
    tau = rotation_about_axis(2 * np.pi / 7)
    omega = push_local_map(sigma, tau)
    other = max_entangled(7)
    wrong_tau = rotation_about_axis(4 * np.pi / 7)
    meas = ray_settings(sigma.model_a, 2)
    with pytest.raises(ValueError, match="pushforward"):
        certificate_via_pushforward(omega, wrong_tau, meas, meas, sigma=other)


def test_pushforward_certificate_needs_inner_product_preimage():
    sigma = max_entangled(6)
    tau = rotation_about_axis(2 * np.pi / 6)
    omega = push_local_map(sigma, tau)
    meas = ray_settings(sigma.model_a, 2)
    with pytest.raises(ValueError, match="inner-product"):
        certificate_via_pushforward(omega, tau, meas, meas, sigma=sigma)


def test_pushforward_certificate_pulls_back_at_its_tol(monkeypatch):
    sigma = max_entangled(7)
    tau = rotation_about_axis(2 * np.pi / 7)
    omega = push_local_map(sigma, tau)
    meas = ray_settings(sigma.model_a, 3)
    tols = []

    def recording(tau, measurement, tol=None):
        tols.append(tol)
        return pull_back_measurement(tau, measurement, tol)

    monkeypatch.setattr(q1, "pull_back_measurement", recording)
    certificate_via_pushforward(omega, tau, meas, meas, sigma=sigma, tol=1e-6)
    assert tols == [1e-6] * 3


def test_pushforward_certificate_stretched_map_meets_the_table_threshold():
    # a map stretched radially by 2e-6 passes push_local_map at tol = 1e-3, so
    # its pulled-back effects must pass at that tol too; the table's fixed
    # negativity threshold is the check that stops it
    sigma = max_entangled(5)
    tau = np.diag([1 + 2e-6, 1 + 2e-6, 1.0]) @ rotation_about_axis(2 * np.pi / 5)
    omega = push_local_map(sigma, tau, 1e-3)
    meas = ray_settings(sigma.model_a, 2)
    with pytest.raises(ValueError, match="negative probability"):
        certificate_via_pushforward(omega, tau, meas, meas, sigma=sigma, tol=1e-3)


def test_certificate_arrays_are_read_only():
    state = max_entangled(5)
    meas = ray_settings(state.model_a, 2)
    cert = certificate_from_inner_product_state(state, meas, meas)
    assert cert.outcomes_a == cert.outcomes_b == (2, 2)
    assert cert.to_dict()["free_entries_source"] == "from-state"
    for array in (cert.gamma, cert.eigen_spectrum):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # a supplied matrix is made read-only in place, not copied
    supplied = np.eye(3)
    cert = Q1Certificate(supplied, (1,), (1,))
    assert cert.gamma is supplied and np.array_equal(cert.eigen_spectrum, np.ones(3))
    assert not supplied.flags.writeable and not cert.eigen_spectrum.flags.writeable


@pytest.mark.parametrize("gamma", [[[1.0]], np.eye(3).tolist(), np.eye(3, dtype=int),
                                   np.eye(3, dtype=np.float32), np.eye(3, dtype=complex)],
                         ids=["list", "rows", "int", "float32", "complex"])
def test_certificate_refuses_a_gamma_that_is_not_a_float_array(gamma):
    # a list used to raise AttributeError, and an int array was kept as int
    # beside a float spectrum
    counts = ((), ()) if len(gamma) == 1 else ((1,), (1,))
    with pytest.raises(ValueError, match="^gamma must be a float64 numpy array, got "):
        Q1Certificate(gamma, *counts)


@pytest.mark.parametrize("count", [2.9, 2.0, True], ids=repr)
def test_certificate_outcome_counts_must_be_integers(count):
    message = f"count must be an integer, got {count!r}$"
    with pytest.raises(ValueError, match="^outcomes_a " + message):
        Q1Certificate(np.eye(4), (count,), (1,))
    with pytest.raises(ValueError, match="^outcomes_b " + message):
        Q1Certificate(np.eye(4), (1,), (count,))


def test_certificate_outcome_counts_are_positive_ints():
    cert = Q1Certificate(np.eye(4), [np.int64(2)], (np.int32(1),))
    assert cert.outcomes_a == (2,) and cert.outcomes_b == (1,)
    assert {type(k) for k in cert.outcomes_a + cert.outcomes_b} == {int}
    # (-1,) with (1,) used to pass as a 1 x 1 matrix
    for counts in (((-1,), (1,)), ((0,), (1,)), ((1,), (0, 1))):
        size = 1 + sum(counts[0]) + sum(counts[1])
        with pytest.raises(ValueError, match="^every setting needs at least one outcome$"):
            Q1Certificate(np.eye(size), *counts)


def test_gamma_shape_validation():
    with pytest.raises(ValueError):
        Q1Certificate(gamma=np.eye(4), outcomes_a=(2,), outcomes_b=(2,))


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_certificate_is_bitwise_the_reference_for_every_pair(n):
    state = max_entangled(n)
    meas = ray_settings(state.model_a, n)
    for i0, i1 in itertools.combinations(range(n), 2):
        for j0, j1 in itertools.combinations(range(n), 2):
            meas_a, meas_b = [meas[i0], meas[i1]], [meas[j0], meas[j1]]
            cert = certificate_from_inner_product_state(state, meas_a, meas_b)
            assert_matches_reference(cert, state, meas_a, meas_b)


def test_certificate_is_bitwise_the_reference_for_other_outcome_counts():
    state, trit = trit_state()
    for meas_a, meas_b in (([trit], [trit]), ([trit, trit], [trit])):
        cert = certificate_from_inner_product_state(state, meas_a, meas_b)
        assert_matches_reference(cert, state, meas_a, meas_b)

    state = max_entangled(7)
    meas = ray_settings(state.model_a, 3)
    three = three_of(state, meas[0])
    for meas_a, meas_b in (([three], [three]), ([three, meas[1]], [meas[2], three]),
                           ([meas[1]], [meas[2], meas[0], three])):
        cert = certificate_from_inner_product_state(state, meas_a, meas_b)
        assert cert.outcomes_a == tuple(m.n_outcomes for m in meas_a)
        assert_matches_reference(cert, state, meas_a, meas_b)

    # five and seven settings per side, in different orders on the two sides
    state = max_entangled(11)
    meas = ray_settings(state.model_a, 11)
    for meas_a, meas_b in ((meas[:5], meas[6:1:-1]), (meas[:7], meas[:3:-1]),
                           (meas[2:9], [meas[3], three_of(state, meas[5]), *meas[:5]])):
        cert = certificate_from_inner_product_state(state, meas_a, meas_b)
        assert cert.outcomes_a == tuple(m.n_outcomes for m in meas_a)
        assert_matches_reference(cert, state, meas_a, meas_b)


def random_pushforward_case(rng):
    """(omega, tau, meas_a, meas_b, sigma) with sigma = w0 I + sum w_k omega_k omega_k^T.

    tau is a mixture of the polygon's rotations, and two ray settings per
    side are drawn; n is drawn from the odd sizes 3..11.
    """
    n = int(rng.choice([3, 5, 7, 9, 11]))
    model = polygon(n)
    weights = rng.dirichlet(np.ones(n + 1))
    matrix = weights[0] * max_entangled(n).matrix
    for k in range(n):
        omega_k = model.extremal_states[k]
        matrix = matrix + weights[k + 1] * np.outer(omega_k, omega_k)
    sigma = JointState(matrix, model, model)
    tau = sum(w * rotation_about_axis(2.0 * math.pi * k / n)
              for k, w in enumerate(rng.dirichlet(np.ones(n))))
    meas = ray_settings(model, n)
    meas_a = [meas[i] for i in rng.choice(n, size=2, replace=False)]
    meas_b = [meas[j] for j in rng.choice(n, size=2, replace=False)]
    return push_local_map(sigma, tau), tau, meas_a, meas_b, sigma


def test_pushforward_certificate_is_bitwise_the_reference():
    rng = np.random.default_rng(515)
    for _ in range(10):
        omega, tau, meas_a, meas_b, sigma = random_pushforward_case(rng)
        cert = certificate_via_pushforward(omega, tau, meas_a, meas_b, sigma=sigma)
        pulled = [pull_back_measurement(tau, m) for m in meas_b]
        assert_matches_reference(cert, sigma, meas_a, pulled)


def test_state_spectrum_is_computed_once_per_state(monkeypatch):
    # both go through the core spectrum helper: the state's through the
    # bipartite binding, each certificate's through the q1 binding
    state = max_entangled(7)
    meas = ray_settings(state.model_a, 7)
    shapes = []

    def counting(original):
        def count(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)
        return count

    monkeypatch.setattr(bipartite, "_spectra", counting(bipartite._spectra))
    monkeypatch.setattr(q1, "_spectra", counting(q1._spectra))
    pairs = list(itertools.combinations(range(7), 2))
    for (i0, i1), (j0, j1) in itertools.islice(itertools.product(pairs, pairs), 100):
        certificate_from_inner_product_state(state, [meas[i0], meas[i1]],
                                             [meas[j0], meas[j1]])
    assert shapes.count(state.matrix.shape) == 1
    assert shapes.count((9, 9)) == 100


def test_override_layout_is_built_once_per_outcome_counts(monkeypatch):
    state = max_entangled(7)
    meas = ray_settings(state.model_a, 7)
    original = np.repeat
    builds = []
    monkeypatch.setattr(np, "repeat", lambda *args, **kwargs: builds.append(args[1])
                        or original(*args, **kwargs))
    q1._override_layout.cache_clear()
    pairs = list(itertools.combinations(range(7), 2))
    for (i0, i1), (j0, j1) in itertools.islice(itertools.product(pairs, pairs), 100):
        certificate_from_inner_product_state(state, [meas[i0], meas[i1]],
                                             [meas[j0], meas[j1]])
    assert builds == [(2, 2, 2, 2)]
    info = q1._override_layout.cache_info()
    assert (info.misses, info.hits) == (1, 99)
    # another outcome-count tuple builds its own layout, once
    for _ in range(3):
        certificate_from_inner_product_state(state, meas[:3], [three_of(state, meas[1])])
    assert builds == [(2, 2, 2, 2), (2, 2, 2, 3)]
    layout = q1._override_layout((2, 2, 2, 3))
    assert not layout.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        layout[0] = 0


def psd_reference(spectrum, tol) -> bool:
    """The rule before it read the scale off the ends: the scale is max |eigenvalue|.

    Tolerances below the rounding floor count as the floor, as in the library.
    """
    tol = max(tol, ROUNDING_TOL)
    scale = float(np.abs(spectrum).max())
    return bool(float(spectrum[0]) >= -tol * max(scale, 1e-300))


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e12])
def test_certificate_psd_flips_where_the_lowest_eigenvalue_crosses_tol(scale):
    # lowest = -tol * max|eigenvalue| * (1 -+ 1e-6) on every sign pattern;
    # where the lowest end is the largest in size the flip sits at tol = 1
    for tol in (1e-12, 1e-9, 1e-3, 0.5):
        for factor, expected in ((1 - 1e-6, True), (1 + 1e-6, False)):
            lowest = -tol * scale * factor
            spectrum = np.array([lowest, 0.1 * scale, scale])
            cert = Q1Certificate(np.diag(spectrum), (1,), (1,))
            assert cert.psd(tol) is expected, (tol, factor)
    # all negative, mixed with the lower end larger, mixed with equal ends;
    # one object per spectrum, asked in both orders
    for spectrum in (np.array([-scale, -0.5 * scale, -0.1 * scale]),
                     np.array([-scale, 0.0, 0.5 * scale]),
                     np.array([-scale, 0.0, scale])):
        cert = Q1Certificate(np.diag(spectrum), (1,), (1,))
        for factor, expected in ((1 + 1e-6, True), (1 - 1e-6, False), (1 + 1e-6, True)):
            assert cert.psd(factor) is expected, (spectrum, factor)
            assert cert.verdict(factor) == ("in-Q1" if expected else "undetermined")
    positive = np.array([0.1 * scale, 0.5 * scale, scale])
    cert = Q1Certificate(np.diag(positive), (1,), (1,))
    assert all(cert.psd(tol) for tol in (0.0, 1e-9, 0.5, 2.0))


def test_certificate_psd_is_the_max_abs_rule():
    rng = np.random.default_rng(1215)
    for _ in range(2000):
        size = int(rng.integers(1, 7))
        shift = rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0])
        spectrum = np.sort(rng.normal(size=1 + 2 * size) + shift)
        cert = Q1Certificate(np.diag(spectrum), (size,), (size,))
        margin = float(-spectrum[0] / np.abs(spectrum).max())
        for tol in (0.0, 1e-9, 0.3, abs(margin), abs(margin) * (1 + 1e-6),
                    abs(margin) * (1 - 1e-6)):
            assert cert.psd(tol) is psd_reference(spectrum, tol)


def all_pairs(n: int) -> list:
    pairs = list(itertools.combinations(range(n), 2))
    return list(itertools.product(pairs, pairs))


def assert_bitwise(cert, expected):
    assert cert.gamma.tobytes() == expected.gamma.tobytes()
    assert cert.eigen_spectrum.tobytes() == expected.eigen_spectrum.tobytes()
    assert (cert.outcomes_a, cert.outcomes_b) == (expected.outcomes_a, expected.outcomes_b)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_selections_are_bitwise_the_per_pair_path_for_every_pair(n):
    state = max_entangled(n)
    meas = ray_settings(state.model_a, n)
    selections = all_pairs(n)
    certs = certificates_for_selections(state, meas, meas, selections)
    count = 0
    for ((i0, i1), (j0, j1)), cert in zip(selections, certs, strict=True):
        expected = certificate_from_inner_product_state(
            state, [meas[i0], meas[i1]], [meas[j0], meas[j1]])
        assert_bitwise(cert, expected)
        count += 1
    assert count == (n * (n - 1) // 2) ** 2


def mixed_selections_case():
    """Nine settings per side with two and three outcomes, and selections of them.

    Each group lists the same number of settings per side; within a group
    the outcome counts change from selection to selection.
    """
    state = max_entangled(11)
    rays = ray_settings(state.model_a, 11)
    meas_a = rays[:7] + [three_of(state, rays[7]), three_of(state, rays[8])]
    meas_b = [three_of(state, rays[2])] + rays[3:11]
    groups = [
        [((0, 1), (0, 1)), ((0, 1), (2, 3)), ((8, 1), (5, 0)), ((0, 1), (3, 2)),
         ((2, 3), (4, 5)), ((3, 2), (5, 4)), ((7, 8), (0, 1)), ((1, 7), (1, 0))],
        [((7,), (0,)), ([8], [8]), ((3,), (2,)), ((8,), (0,))],
        [((8, 1, 7), (5, 0)), ((0, 1, 2), (3, 4))],
        [((6, 5, 4, 3, 2), (8, 1, 4, 0)), ((0, 1, 2, 3, 4), (1, 2, 3, 4))],
        [(range(9), range(9))],
    ]
    return state, meas_a, meas_b, groups


def test_selections_are_bitwise_the_per_pair_path_for_mixed_selections(monkeypatch):
    state, meas_a, meas_b, groups = mixed_selections_case()
    for selections in groups:
        expected = [certificate_from_inner_product_state(
            state, [meas_a[i] for i in sa], [meas_b[j] for j in sb]) for sa, sb in selections]
        # the default budget, one matrix per stack, and budgets that cut runs
        for budget in (q1._SELECTION_BLOCK_ELEMENTS, 1, 81, 200):
            monkeypatch.setattr(q1, "_SELECTION_BLOCK_ELEMENTS", budget)
            certs = certificates_for_selections(state, meas_a, meas_b, selections)
            for cert, reference in zip(certs, expected, strict=True):
                assert_bitwise(cert, reference)
        monkeypatch.undo()
        # numpy arrays of indices work as selections too
        certs = certificates_for_selections(
            state, meas_a, meas_b, [(np.array(sa), np.array(sb)) for sa, sb in selections])
        for cert, reference in zip(certs, expected, strict=True):
            assert_bitwise(cert, reference)


def test_selections_stack_within_the_element_budget(monkeypatch):
    state = max_entangled(9)
    meas = ray_settings(state.model_a, 9)
    stacks = []
    original = q1._certificates

    def recording(gammas, *args):
        stacks.append(gammas.shape)
        return original(gammas, *args)

    monkeypatch.setattr(q1, "_certificates", recording)
    selections = all_pairs(9)
    assert len(list(certificates_for_selections(state, meas, meas, selections))) == 1296
    # the first chunk is one selection; 2**16 // 81 = 809 matrices per stack
    assert stacks == [(1, 9, 9), (809, 9, 9), (1295 - 809, 9, 9)]
    stacks.clear()
    monkeypatch.setattr(q1, "_SELECTION_BLOCK_ELEMENTS", 500)
    list(certificates_for_selections(state, meas, meas, selections))
    assert stacks == [(1, 9, 9)] + [(6, 9, 9)] * 215 + [(5, 9, 9)]
    # a chunk read for small matrices that meets larger ones cuts its
    # stacks to the larger ones' budget
    state, meas_a, meas_b, groups = mixed_selections_case()
    small, large = ((0,), (1,)), ((7,), (0,))  # 5 x 5 and 7 x 7
    stacks.clear()
    monkeypatch.setattr(q1, "_SELECTION_BLOCK_ELEMENTS", 300)
    list(certificates_for_selections(state, meas_a, meas_b, [small] * 13 + [large] * 13))
    assert stacks == [(1, 5, 5), (12, 5, 5), (6, 7, 7), (6, 7, 7), (1, 7, 7)]


def test_builder_runs_the_constructor_checks_on_every_matrix_of_a_stack():
    good = np.diag([1.0, 2.0, 3.0])
    asymmetric = good.copy()
    asymmetric[2, 0] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        q1._certificates(np.stack([good, good, asymmetric]), (1,), (1,), ROUNDING_TOL)
    with pytest.raises(ValueError, match="5x5"):
        q1._certificates(np.stack([good, good]), (2,), (2,), ROUNDING_TOL)
    with pytest.raises(ArithmeticError, match="not PSD"):
        q1._certificates(np.stack([good, np.diag([-1.0, 2.0, 3.0])]), (1,), (1,),
                         ROUNDING_TOL)
    stack = np.stack([good, 2.0 * good])
    certs = q1._certificates(stack, (1,), (1,), ROUNDING_TOL)
    for cert, gamma in zip(certs, stack, strict=True):
        assert cert.gamma.tobytes() == gamma.tobytes()
        assert cert.eigen_spectrum.tobytes() == np.linalg.eigvalsh(gamma).tobytes()
        assert (cert.outcomes_a, cert.outcomes_b) == ((1,), (1,))


def test_sliced_certificates_are_read_only():
    state = max_entangled(5)
    meas = ray_settings(state.model_a, 5)
    for cert in certificates_for_selections(state, meas, meas, all_pairs(5)[:3]):
        assert cert.psd() and cert.verdict() == "in-Q1"
        for array in (cert.gamma, cert.eigen_spectrum):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_selections_reject_what_the_per_pair_path_rejects():
    state = max_entangled(7)
    meas = ray_settings(state.model_a, 7)
    # the state's errors come before any selection is read
    for bad_state, match in ((max_entangled(8), "inner-product state"),
                             (JointState(max_entangled(5).matrix, polygon(5), polygon(7)),
                              "requires two similar systems")):
        bad_meas = ray_settings(bad_state.model_a, 2)
        with pytest.raises(ValueError, match=match):
            certificates_for_selections(bad_state, bad_meas, bad_meas, iter(()))
    with pytest.raises(ValueError, match="at least one measurement"):
        certificates_for_selections(state, [], meas, [])
    # a selection's errors come from the iteration
    for selection, error, match in (
            (((0, 1), ()), ValueError, "at least one measurement"),
            (((), (0, 1)), ValueError, "at least one measurement"),
            (((0, 0), (1, 2)), ValueError, "repeats a setting"),
            (((0, 1), (2, 2)), ValueError, "repeats a setting"),
            (((0, -1), (1, 2)), IndexError, "out of range"),
            (((0, 7), (1, 2)), IndexError, "out of range"),
            (((0, 1), (1, 7)), IndexError, "out of range"),
            (((0, 1.0), (1, 2)), TypeError, "must be integers"),
            (((True, False), (1, 2)), TypeError, "must be integers"),
            ((0, (1, 2)), ValueError, "the same number in every selection")):
        for selections in ([selection], [((0, 1), (0, 1)), selection]):
            certs = certificates_for_selections(state, meas, meas, selections)
            with pytest.raises(error, match=match):
                list(certs)
    # a change in the number of settings per side, across chunks or in one
    for selections in ([((0, 1), (0, 1)), ((0, 1, 2), (1, 2))],
                       [((0, 1), (0, 1)), ((0, 1), (2, 3, 4))] * 3):
        certs = certificates_for_selections(state, meas, meas, selections)
        with pytest.raises(ValueError, match="the same number in every selection"):
            list(certs)


def selections_peak_bytes(n: int) -> tuple[int, int]:
    """The tracemalloc peak over all pair selections of the n-gon, and their count."""
    state = max_entangled(n)
    meas = ray_settings(state.model_a, n)
    pairs = list(itertools.combinations(range(n), 2))
    tracemalloc.start()
    try:
        count = 0
        for cert in certificates_for_selections(state, meas, meas,
                                                itertools.product(pairs, pairs)):
            count += 1
        return tracemalloc.get_traced_memory()[1], count
    finally:
        tracemalloc.stop()


def documented_selections_bound(n: int) -> int:
    """The docstring's memory bound in bytes, for pair selections of the n-gon.

    The full matrix is (1 + 4n)² doubles; twice that covers its build. One
    stack holds at most ``_SELECTION_BLOCK_ELEMENTS // 81`` matrices of
    9 × 9. Each takes 81 doubles, twice that for the symmetry check's byte
    copies, and 1.5 KiB for its indices, spectrum, certificate object and
    array views.
    """
    per_stack = q1._SELECTION_BLOCK_ELEMENTS // 81
    return 16 * (1 + 4 * n) ** 2 + per_stack * (3 * 8 * 81 + 1536)


def test_selections_memory_is_within_its_documented_bound():
    peak, count = selections_peak_bytes(31)
    assert count == 216225
    assert peak < documented_selections_bound(31)
    # all 216 225 matrices at once would take 140 MB
    assert peak < 8 * 81 * count / 20


# -- one pairing: every check reads the certificate's own matrix ---------------


def delta_decomposition_reference(state, measurement, tol=None) -> bool:
    """The split as checked before it read the certificate's matrix.

    Pairs the effects under the raw state matrix and takes the marginals
    from ``e M u``; the state is taken to have passed the inner-product gate.
    """
    tol = resolve_tol(tol)
    e = measurement.effects
    m = state.matrix
    pair = e @ m @ e.T
    marg = e @ m @ state.model_b.unit_effect
    correction = np.diag(marg) - pair
    upper = np.triu(pair, 1)
    off = upper + upper.T
    total = np.diag(off.sum(axis=1)) - off
    psd_ok = not np.any(off < -tol)
    return psd_ok and float(np.abs(total - correction).max()) <= 1e-12


def pushforward_gap_reference(omega, tau, meas_a, meas_b, sigma, tol=None) -> float:
    """The pushforward check before it read the certificate: raw table against raw table."""
    pulled = [pull_back_measurement(tau, m, tol) for m in meas_b]
    direct = correlations_from_state(omega, meas_a, meas_b)
    certified = correlations_from_state(sigma, meas_a, pulled)
    return float(np.abs(direct.probs - certified.probs).max())


def symmetric_states():
    """(state, measurements) for every exactly symmetric state this module uses.

    Odd polygons with every ray setting and a three-outcome split of some,
    the diagonal trit state, the preimages ``w0 I + sum w omega omega^T`` of
    the pushforward cases, and a diagonal 7-gon state whose pairings go
    negative.
    """
    cases = []
    for n in (3, 5, 7, 9, 11, 13, 15):
        state = max_entangled(n)
        rays = ray_settings(state.model_a, n)
        cases.append((state, rays + [three_of(state, m) for m in rays[:3]]))
    state, trit = trit_state()
    cases.append((state, [trit]))
    rng = np.random.default_rng(515)
    for _ in range(10):
        omega, tau, meas_a, meas_b, sigma = random_pushforward_case(rng)
        cases.append((sigma, meas_a + meas_b))
    p7 = polygon(7)
    cases.append((JointState(np.diag([1.0, 1.0, 0.0]), p7, p7), ray_settings(p7, 7)))
    return cases


def asymmetric_heptagon(size: float) -> JointState:
    """I + A on the 7-gon, A antisymmetric in (x, z) with |A| = ``size``."""
    matrix = np.eye(3)
    matrix[0, 2], matrix[2, 0] = size, -size
    return JointState(matrix, polygon(7), polygon(7))


def test_delta_decomposition_keeps_its_verdicts_on_symmetric_states():
    verdicts = set()
    for state, measurements in symmetric_states():
        assert np.array_equal(state.matrix, state.matrix.T)
        for meas in measurements:
            for tol in (None, 0.0, 1e-3):
                verdict = verify_delta_decomposition(state, meas, tol)
                assert verdict is delta_decomposition_reference(state, meas, tol)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_delta_decomposition_fails_where_a_pairing_is_negative():
    # diag(1, 1, 0) is symmetric PSD, but pairs a ray with its complement
    # at -|e_xy|^2 < 0, so the override is no sum of PSD pair matrices
    p7 = polygon(7)
    state = JointState(np.diag([1.0, 1.0, 0.0]), p7, p7)
    meas = ray_settings(p7, 1)[0]
    assert is_inner_product_state(state).is_inner_product
    e, complement = meas.effects
    assert e @ state.matrix @ complement < -0.1
    for tol in (None, 0.0, 1e-3):
        assert verify_delta_decomposition(state, meas, tol) is False


def test_delta_decomposition_holds_for_an_asymmetry_inside_tol():
    # the split used to pair under the raw M, whose asymmetry the Laplacian
    # of S = (M + M^T) / 2 does not carry
    state = asymmetric_heptagon(1e-11)
    rays = ray_settings(state.model_a, 7)
    for tol in (None, 1e-3):
        assert is_inner_product_state(state, tol).is_inner_product
        assert all(verify_delta_decomposition(state, m, tol) for m in rays)
    assert not any(delta_decomposition_reference(state, m) for m in rays)


def test_pushforward_keeps_its_verdicts_on_symmetric_states():
    rng = np.random.default_rng(2024)
    cases = [random_pushforward_case(rng) for _ in range(40)]
    for n in (3, 5, 7, 9, 11, 13, 15):
        sigma = max_entangled(n)
        tau = rotation_about_axis(2 * np.pi / n)
        meas = ray_settings(sigma.model_a, n)
        cases.append((push_local_map(sigma, tau), tau, meas[:2], meas[-3:], sigma))
    # omega moved off the pushforward, inside tol, by eps times a symmetric
    # matrix that keeps the normalisation (the unit effect is (0, 0, 1)):
    # the tables drift by about eps, so both verdicts occur
    drift = np.zeros((3, 3))
    drift[:2, :2] = 1.0
    for omega, tau, meas_a, meas_b, sigma in cases[:10]:
        assert np.array_equal(omega.model_a.unit_effect, [0.0, 0.0, 1.0])
        for eps in (1e-14, 1e-11, 1e-10):
            moved = JointState(omega.matrix + eps * drift, omega.model_a, omega.model_b)
            cases.append((moved, tau, meas_a, meas_b, sigma))
    verdicts = set()
    for omega, tau, meas_a, meas_b, sigma in cases:
        expected = pushforward_gap_reference(omega, tau, meas_a, meas_b, sigma) <= 1e-12
        try:
            certificate_via_pushforward(omega, tau, meas_a, meas_b, sigma=sigma)
            certified = True
        except ArithmeticError:
            certified = False
        assert certified is expected
        verdicts.add(certified)
    assert verdicts == {True, False}


def test_pushforward_refuses_a_certificate_that_misses_the_table():
    # sigma = omega, tau = I: the raw tables agree, but the certificate holds
    # the symmetrised pairing, 3.1e-11 away from omega's table
    state = asymmetric_heptagon(1e-10)
    meas = ray_settings(state.model_a, 2)
    assert pushforward_gap_reference(state, np.eye(3), meas, meas, state) <= 1e-12
    with pytest.raises(ArithmeticError, match=r"^certified correlations deviate by 3\.1\d*e-11$"):
        certificate_via_pushforward(state, np.eye(3), meas, meas, sigma=state)
    small = asymmetric_heptagon(1e-13)
    cert = certificate_via_pushforward(small, np.eye(3), meas, meas, sigma=small)
    assert cert.verdict() == "in-Q1"


def test_a_direct_certificate_holds_the_table_of_the_symmetric_part():
    # documented, not mended: the certificate pairs under S = (M + M^T) / 2,
    # so its joint block is S's table, and the state's own table e M f lies
    # within max|M - M^T| |e|_1 |f|_1 / 2 of it, unchecked
    state = asymmetric_heptagon(1e-10)
    meas = ray_settings(state.model_a, 2)
    cert = certificate_from_inner_product_state(state, meas, meas)
    assert cert.verdict() == "in-Q1"
    m = state.matrix
    symmetric = JointState((m + m.T) / 2, state.model_a, state.model_b)

    def joint(table):  # rows (x, a), columns (y, b): the certificate's order
        return table.probs.transpose(2, 0, 3, 1).reshape(4, 4)

    block = cert.gamma[1:5, 5:]
    np.testing.assert_allclose(block, joint(correlations_from_state(symmetric, meas, meas)),
                               rtol=0, atol=1e-15)
    gap = np.abs(block - joint(correlations_from_state(state, meas, meas)))
    norms = np.array([np.abs(e).sum() for setting in meas for e in setting.effects])
    bound = np.abs(m - m.T).max() * np.outer(norms, norms) / 2
    assert (gap <= bound).all()
    assert 3e-11 < gap.max() < 3.2e-11


def assert_unit_row_is_the_diagonal(cert):
    assert cert.gamma[0, 1:].tobytes() == np.diag(cert.gamma)[1:].tobytes()


def test_every_certificate_has_its_unit_row_on_its_diagonal():
    asymmetric = asymmetric_heptagon(1e-11)
    for state in (max_entangled(7), asymmetric):
        meas = ray_settings(state.model_a, 7)
        for (i0, i1), (j0, j1) in all_pairs(7):
            assert_unit_row_is_the_diagonal(certificate_from_inner_product_state(
                state, [meas[i0], meas[i1]], [meas[j0], meas[j1]]))
        for cert in certificates_for_selections(state, meas, meas, all_pairs(7)):
            assert_unit_row_is_the_diagonal(cert)
        mixed = [three_of(state, meas[0]), meas[1], three_of(state, meas[2])]
        assert_unit_row_is_the_diagonal(
            certificate_from_inner_product_state(state, mixed, mixed[::-1]))
    state, meas_a, meas_b, groups = mixed_selections_case()
    for selections in groups:
        for cert in certificates_for_selections(state, meas_a, meas_b, selections):
            assert_unit_row_is_the_diagonal(cert)
    rng = np.random.default_rng(515)
    for _ in range(10):
        omega, tau, meas_a, meas_b, sigma = random_pushforward_case(rng)
        assert_unit_row_is_the_diagonal(
            certificate_via_pushforward(omega, tau, meas_a, meas_b, sigma=sigma))
    small = asymmetric_heptagon(1e-13)
    meas = ray_settings(small.model_a, 2)
    assert_unit_row_is_the_diagonal(
        certificate_via_pushforward(small, np.eye(3), meas, meas, sigma=small))
    state, trit = trit_state()
    assert_unit_row_is_the_diagonal(certificate_from_inner_product_state(state, [trit], [trit]))


def test_the_gate_comes_before_the_settings_check():
    even = max_entangled(4)
    meas = ray_settings(even.model_a, 2)
    for meas_a, meas_b in (([], []), (meas, []), ([], meas)):
        with pytest.raises(ValueError, match="needs an inner-product state"):
            certificate_from_inner_product_state(even, meas_a, meas_b)
        with pytest.raises(ValueError, match="needs an inner-product state"):
            certificates_for_selections(even, meas_a, meas_b, [])
        with pytest.raises(ValueError, match="^need at least one measurement$"):
            certificate_from_inner_product_state(max_entangled(5), meas_a, meas_b)
