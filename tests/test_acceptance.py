"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion. Tolerances are stated inline; timing limits use wall-clock time.
"""

import itertools
import math
import time

import numpy as np

from polybell.bipartite import (
    JointState,
    is_inner_product_state,
    push_local_map,
    pull_back_measurement,
)
from polybell.core import simplex_model
from polybell.correlations import (
    chained,
    chsh_max_analytic,
    chsh_max_bruteforce,
    chsh_max_closed_form,
    chsh_max_over_settings,
    correlations_from_state,
    correlator,
    distill_decompose,
    ray_settings,
)
from polybell.house import house_joint_state, house_model, house_uffink_demo
from polybell.polygon import max_entangled, polygon
from polybell.q1 import (
    certificate_from_inner_product_state,
    certificate_via_pushforward,
    certificates_for_selections,
    q1_necessary_conditions,
    verify_delta_decomposition,
)
from polybell.selfdual import (
    find_cone_isomorphisms,
    is_strongly_self_dual,
    rotation_about_axis,
    state_from_isomorphism,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


def _two_setting_table(n: int):
    state = max_entangled(n)
    return correlations_from_state(
        state, ray_settings(state.model_a, 2), ray_settings(state.model_b, 2)
    )


def test_criterion_01_bruteforce_chsh_parity_split():
    start = time.perf_counter()
    values = {n: chsh_max_bruteforce(n)[0] for n in range(3, 129)}
    elapsed = time.perf_counter() - start
    for n, value in values.items():
        if n % 2 == 1:
            assert value <= TSIRELSON + 1e-9, f"odd n={n} exceeds the quantum bound"
        else:
            assert value >= TSIRELSON - 1e-9, f"even n={n} below the quantum bound"
    assert abs(values[4] - 4.0) <= 1e-12
    assert abs(values[8] - TSIRELSON) <= 1e-9
    assert elapsed < 10.0, f"scan took {elapsed:.2f}s"


def test_criterion_02_analytic_matches_bruteforce():
    for n in range(3, 129):
        brute, _ = chsh_max_bruteforce(n)
        assert abs(chsh_max_analytic(n) - brute) <= 1e-9, f"mismatch at n={n}"
        assert abs(chsh_max_closed_form(n) - brute) <= 1e-9, f"closed form mismatch at n={n}"


def test_criterion_03_chained_reaches_algebraic_maximum():
    for n_settings in range(2, 7):
        state = max_entangled(2 * n_settings)
        meas = ray_settings(state.model_a, n_settings)
        table = correlations_from_state(state, meas, meas)
        value = chained(table, n_settings)
        assert abs(value - 2 * n_settings) <= 1e-10, f"N={n_settings}: {value}"


def test_criterion_04_distillation_decomposition():
    for n in range(4, 33, 2):
        eps, p_box, p_corr = distill_decompose(n)
        assert abs(eps - (1.0 - math.cos(2.0 * math.pi / n))) <= 1e-12
        table = _two_setting_table(n)
        mixture = eps * p_box.probs + (1.0 - eps) * p_corr.probs
        assert np.abs(table.probs - mixture).max() <= 1e-10, f"n={n}"
        assert abs(correlator(table, 1, 0) - (1.0 - 2.0 * eps)) <= 1e-12


def test_criterion_05_inner_product_parity():
    for n in range(3, 33):
        report = is_inner_product_state(max_entangled(n))
        assert report.is_inner_product == (n % 2 == 1), f"n={n}"
    tri = simplex_model(3)
    classical = JointState(np.diag([0.5, 0.3, 0.2]), tri, tri)
    assert is_inner_product_state(classical).is_inner_product


def test_criterion_06_certificates_all_setting_pairs():
    start = time.perf_counter()
    checked = 0
    for n in range(3, 24, 2):
        state = max_entangled(n)
        meas = ray_settings(state.model_a, n)
        # every pair's certificate is sliced from the all-rays matrix
        pairs = list(itertools.combinations(range(n), 2))
        selections = list(itertools.product(pairs, pairs))
        certs = certificates_for_selections(state, meas, meas, selections)
        for ((i0, i1), (j0, j1)), cert in zip(selections, certs, strict=True):
            assert cert.outcomes_a == cert.outcomes_b == (2, 2)
            spectrum = cert.eigen_spectrum
            assert spectrum[0] >= -1e-9 * spectrum[-1], (n, i0, i1, j0, j1)
            checked += 1
        # the diagonal-correction split behind the certificate, for two- and
        # three-outcome measurements
        assert verify_delta_decomposition(state, meas[0])
        unit = state.model_a.unit_effect
        e0 = meas[0].effects[0]
        from polybell.core import Measurement

        three = Measurement(
            np.stack([e0, (unit - e0) / 2.0, (unit - e0) / 2.0]), state.model_a
        )
        assert verify_delta_decomposition(state, three)
    assert checked == 177826
    # Cauchy interlacing: the all-rays certificate being PSD makes every
    # selection of ray settings on either side PSD too
    for n in range(3, 128, 2):
        state = max_entangled(n)
        meas = ray_settings(state.model_a, n)
        cert = certificate_from_inner_product_state(state, meas, meas)
        assert cert.outcomes_a == cert.outcomes_b == (2,) * n
        spectrum = cert.eigen_spectrum
        assert spectrum[0] >= -1e-9 * spectrum[-1], n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"certificate sweep took {elapsed:.2f}s"


def test_criterion_07_pushforward_correlations():
    rng = np.random.default_rng(20260819)
    sizes = [3, 5, 7, 9, 11, 13, 15]
    for trial in range(100):
        n = int(rng.choice(sizes))
        model = polygon(n)
        # random inner-product preimage: mixture of the canonical entangled
        # state with symmetric product states
        weights = rng.dirichlet(np.ones(n + 1))
        matrix = weights[0] * max_entangled(n).matrix
        for k in range(n):
            omega_k = model.extremal_states[k]
            matrix = matrix + weights[k + 1] * np.outer(omega_k, omega_k)
        sigma = JointState(matrix, model, model)
        # random unit-preserving cone endomorphism: mixture of rotations
        tau_weights = rng.dirichlet(np.ones(n))
        tau = sum(
            w * rotation_about_axis(2.0 * math.pi * k / n)
            for k, w in enumerate(tau_weights)
        )
        rays_a = rng.choice(n, size=2, replace=False)
        rays_b = rng.choice(n, size=2, replace=False)
        all_meas = ray_settings(model, n)
        meas_a = [all_meas[i] for i in rays_a]
        meas_b = [all_meas[j] for j in rays_b]

        omega = push_local_map(sigma, tau)
        cert = certificate_via_pushforward(omega, tau, meas_a, meas_b, sigma=sigma)
        assert cert.verdict() == "in-Q1", f"trial {trial}"

        direct = correlations_from_state(omega, meas_a, meas_b)
        pulled = [pull_back_measurement(tau, m) for m in meas_b]
        relayed = correlations_from_state(sigma, meas_a, pulled)
        assert np.abs(direct.probs - relayed.probs).max() <= 1e-12, f"trial {trial}"
        # the certificate's own joint block holds the pushed-forward table
        # (dichotomic settings: row 2x + a is setting x, outcome a)
        joint = direct.probs.transpose(2, 0, 3, 1).reshape(4, 4)
        assert np.abs(cert.gamma[1:5, 5:] - joint).max() <= 1e-12, f"trial {trial}"


def test_criterion_08_self_duality_classification():
    def sym_psd(t):
        if np.abs(t - t.T).max() > 1e-9:
            return False
        return np.linalg.eigvalsh(t)[0] >= -1e-9

    for n in range(3, 17):
        model = polygon(n)
        isos = find_cone_isomorphisms(model)
        assert len(isos) == 2 * n, f"n={n}: found {len(isos)}"
        strong, witness = is_strongly_self_dual(model)
        assert strong == (n % 2 == 1), f"n={n}"
        if strong:
            assert witness is not None and sym_psd(witness)
        for t in isos:
            inner = is_inner_product_state(
                state_from_isomorphism(t, model)
            ).is_inner_product
            assert sym_psd(t) == inner, f"n={n}"
    for n in range(17, 129):
        model = polygon(n)
        assert len(find_cone_isomorphisms(model)) == 2 * n, f"n={n}"
        assert is_strongly_self_dual(model)[0] == (n % 2 == 1), f"n={n}"

    house = house_model()
    strong, witness = is_strongly_self_dual(house)
    assert strong and sym_psd(witness)
    isos = find_cone_isomorphisms(house)
    assert len(isos) == 2
    for t in isos:
        inner = is_inner_product_state(
            state_from_isomorphism(t, house)
        ).is_inner_product
        assert sym_psd(t) == inner


def test_criterion_09_house_demo():
    value, table = house_uffink_demo()
    assert abs(value - 17.0 / 4.0) <= 1e-10
    assert q1_necessary_conditions(table).verdict == "not-in-Q1"

    # extremality, recomputed from scratch: the certain-probability pairs
    # must span the full matrix space together with normalization
    model = house_model()
    st = house_joint_state()
    u = model.unit_effect
    rows = [np.kron(u, u)]
    for e in model.ray_effects:
        for f in model.ray_effects:
            if e @ st.matrix @ f <= 1e-9:
                rows.append(np.kron(e, f))
    assert np.linalg.matrix_rank(np.stack(rows), tol=1e-8) == 9

    best, _ = chsh_max_over_settings(st)
    assert best <= TSIRELSON + 1e-9


def test_criterion_10_triangle_is_classical():
    tri = polygon(3)
    st = max_entangled(3)
    separable = sum(
        np.outer(w, w) for w in tri.extremal_states
    ) / 3.0
    assert np.abs(st.matrix - separable).max() <= 1e-12
    brute, _ = chsh_max_bruteforce(3)
    assert brute <= 2.0 + 1e-9
