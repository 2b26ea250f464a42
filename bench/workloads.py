"""The four benchmark workloads: seeded item lists and their output checks.

Each workload is a fixed list of items. An item is one timed call into the
library (one certificate, one polygon size, one CLI call) plus an untimed
check of what it returned. The seed permutes item order within each size and
the order of the CLI calls, and it draws the pushforward instances; the
multiset of heavy work is the same for every seed.

Items look library functions up on their module at call time, so the span
wrappers installed by ``spans.py`` see every call the benchmark makes.

Checks use references that survive planned simplifications of the library:
frozen CHSH maxima instead of the analytic routes, each certificate's
eigenvalues and correlation block recomputed from its own state and
measurements, isomorphism counts, and CLI exit codes plus ``--json`` result
fields (never text wording or schema versions).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from polybell import bipartite, cli, core, correlations, house, q1, selfdual

# The package namespace binds the name ``polygon`` to the function.
polygon = importlib.import_module("polybell.polygon")

REFERENCE_PATH = Path(__file__).with_name("chsh_reference.json")

CHSH_SIZES = tuple(range(3, 53)) + (64, 96, 128)
CERT_SIZES = tuple(range(3, 16, 2))
PAIR_CERTIFICATES = 21980
PUSHFORWARD_INSTANCES = 100
SELFDUAL_SIZES = tuple(range(3, 41))
SELFDUAL_STATE_CHECK_MAX_N = 16

SMOKE_CHSH_SIZES = tuple(range(3, 9))
SMOKE_CERT_SIZES = (3, 5)
SMOKE_PUSHFORWARD_INSTANCES = 4
SMOKE_SELFDUAL_SIZES = tuple(range(3, 7))

CHSH_TOL = 1e-9
PSD_TOL = 1e-9
PAIRING_TOL = 1e-10
EXACT_TOL = 1e-12


@dataclass
class Item:
    """One timed call (``run``) and the untimed check of its result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    """The items of one pass, its host-speed kernels and the trace ratio bases.

    ``calibration`` names the host-speed kernels in ``worker.py`` whose
    work is like the items'. ``certificates`` counts the Q1 certificates the
    items request, ``models`` the models they classify for self-duality,
    ``cli_calls`` the CLI invocations.
    """

    items: list[Item]
    calibration: tuple[str, ...] = ("compute", "memory")
    certificates: int = 0
    models: int = 0
    cli_calls: int = 0


def load_reference() -> dict[int, float]:
    """Frozen brute-force CHSH maxima, keyed by polygon size."""
    raw = json.loads(REFERENCE_PATH.read_text())
    return {int(n): float(v) for n, v in raw["chsh_max"].items()}


def _sym_psd(t: np.ndarray) -> bool:
    return bool(np.abs(t - t.T).max() <= PSD_TOL
                and np.linalg.eigvalsh((t + t.T) / 2.0)[0] >= -PSD_TOL)


def _certificate_check(cert, state, meas_a, meas_b) -> bool:
    """The certificate is PSD and certifies this state's correlations.

    Recomputes what the library computed: the eigenvalues of ``gamma`` and
    its (unit, first-side effects) x (unit, second-side effects) block, which
    must equal the state's pairing of exactly these measurements. A
    certificate for another pair, or a stale one, fails here.
    """
    gamma = np.asarray(cert.gamma, dtype=float)
    rows = np.vstack([state.model_a.unit_effect] + [m.effects for m in meas_a])
    cols = np.vstack([state.model_b.unit_effect] + [m.effects for m in meas_b])
    size = len(rows) + len(cols) - 1
    if gamma.shape != (size, size) or not _sym_psd(gamma):
        return False
    col_idx = [0] + list(range(len(rows), size))
    pairing = rows @ state.matrix @ cols.T
    return bool(np.abs(gamma[:len(rows)][:, col_idx] - pairing).max() <= PAIRING_TOL)


# -- chsh-scan ----------------------------------------------------------------


def chsh_scan(seed: int, smoke: bool = False,
              reference: dict[int, float] | None = None) -> Workload:
    """Brute-force CHSH maximum per size, and the distillation split for even n."""
    reference = load_reference() if reference is None else reference
    rng = np.random.default_rng([seed, 1])
    items = []
    for n in SMOKE_CHSH_SIZES if smoke else CHSH_SIZES:
        calls = ["scan", "distill"] if n % 2 == 0 else ["scan"]
        calls = [calls[k] for k in rng.permutation(len(calls))]
        items.append(Item(
            f"chsh-scan n={n}",
            lambda n=n, calls=calls: _chsh_item(n, calls),
            lambda out, n=n: _chsh_check(n, out, reference[n]),
        ))
    # The large-n scans, most of a pass, are elementwise work on arrays of
    # up to 16 MB; the small-SVD kernel does not follow their speed.
    return Workload(items, calibration=("memory",))


def _chsh_item(n: int, calls: list[str]) -> dict:
    out = {}
    for call in calls:
        if call == "scan":
            out["scan"] = correlations.chsh_max_bruteforce(n)
        else:
            out["distill"] = correlations.distill_decompose(n)
    return out


def _chsh_check(n: int, out: dict, expected: float) -> bool:
    value, argmax = out["scan"]
    ok = abs(float(value) - expected) <= CHSH_TOL
    ok = ok and len(argmax) == 4 and all(0 <= int(i) < n for i in argmax)
    if n % 2 == 0:
        eps, p_box, p_corr = out["distill"]
        ok = ok and abs(eps - (1.0 - math.cos(2.0 * math.pi / n))) <= EXACT_TOL
        ok = ok and p_box.probs.shape == p_corr.probs.shape == (2, 2, 2, 2)
    return ok


# -- cert-pairs ---------------------------------------------------------------


def cert_pairs(seed: int, smoke: bool = False) -> Workload:
    """Every two-setting certificate on odd n, the delta splits, pushforwards."""
    rng = np.random.default_rng([seed, 2])
    sizes = SMOKE_CERT_SIZES if smoke else CERT_SIZES
    items: list[Item] = []
    pairs = 0
    for n in sizes:
        state = polygon.max_entangled(n)
        meas = correlations.ray_settings(state.model_a, n)
        per_n = []
        for (i0, i1), (j0, j1) in itertools.product(
                itertools.combinations(range(n), 2), repeat=2):
            per_n.append(Item(
                f"cert n={n} ({i0},{i1};{j0},{j1})",
                lambda s=state, a=(meas[i0], meas[i1]), b=(meas[j0], meas[j1]):
                    q1.certificate_from_inner_product_state(s, a, b),
                lambda cert, s=state, a=(meas[i0], meas[i1]), b=(meas[j0], meas[j1]):
                    _certificate_check(cert, s, a, b),
            ))
        pairs += len(per_n)
        unit = state.model_a.unit_effect
        e0 = meas[0].effects[0]
        three = core.Measurement(
            np.stack([e0, (unit - e0) / 2.0, (unit - e0) / 2.0]), state.model_a)
        for m in (meas[0], three):
            per_n.append(Item(
                f"delta n={n} outcomes={m.n_outcomes}",
                lambda s=state, m=m: q1.verify_delta_decomposition(s, m),
                lambda ok: ok is True,
            ))
        items.extend(per_n[k] for k in rng.permutation(len(per_n)))
    if not smoke and pairs != PAIR_CERTIFICATES:
        raise RuntimeError(f"built {pairs} two-setting certificates, "
                           f"expected {PAIR_CERTIFICATES}")

    count = SMOKE_PUSHFORWARD_INSTANCES if smoke else PUSHFORWARD_INSTANCES
    for trial in range(count):
        items.append(_pushforward_item(sizes[trial % len(sizes)], rng))
    return Workload(items, certificates=pairs + count)


def _pushforward_item(n: int, rng: np.random.Generator) -> Item:
    """A random inner-product preimage pushed through a random cone map."""
    model = polygon.polygon(n)
    weights = rng.dirichlet(np.ones(n + 1))
    matrix = weights[0] * polygon.max_entangled(n).matrix
    for k in range(n):
        omega_k = model.extremal_states[k]
        matrix = matrix + weights[k + 1] * np.outer(omega_k, omega_k)
    sigma = bipartite.JointState(matrix, model, model)
    tau = sum(w * selfdual.rotation_about_axis(2.0 * math.pi * k / n)
              for k, w in enumerate(rng.dirichlet(np.ones(n))))
    all_meas = correlations.ray_settings(model, n)
    meas_a = [all_meas[i] for i in rng.choice(n, size=2, replace=False)]
    meas_b = [all_meas[j] for j in rng.choice(n, size=2, replace=False)]
    omega = bipartite.push_local_map(sigma, tau)
    return Item(
        f"pushforward n={n}",
        lambda: q1.certificate_via_pushforward(omega, tau, meas_a, meas_b, sigma=sigma),
        lambda cert: _certificate_check(cert, omega, meas_a, meas_b),
    )


# -- selfdual-sweep -----------------------------------------------------------


def selfdual_sweep(seed: int, smoke: bool = False) -> Workload:
    """Isomorphism search and strong self-duality per polygon, then the house."""
    rng = np.random.default_rng([seed, 3])
    items = []
    for n in SMOKE_SELFDUAL_SIZES if smoke else SELFDUAL_SIZES:
        order = rng.permutation(2 * n) if n <= SELFDUAL_STATE_CHECK_MAX_N else None
        items.append(Item(
            f"selfdual n={n}",
            lambda n=n, order=order: _selfdual_item(polygon.polygon(n), order),
            lambda out, n=n: _selfdual_check(out, 2 * n, n % 2 == 1),
        ))
    house_order = rng.permutation(2)
    items.append(Item(
        "selfdual house",
        lambda: _selfdual_item(house.house_model(), house_order),
        lambda out: _selfdual_check(out, 2, True),
    ))
    return Workload(items, models=len(items))


def _selfdual_item(model, order) -> tuple:
    isos = selfdual.find_cone_isomorphisms(model)
    strong, witness = selfdual.is_strongly_self_dual(model)
    inner = []
    if order is not None and len(isos) == len(order):
        for k in order:
            state = selfdual.state_from_isomorphism(isos[k], model)
            inner.append((k, bipartite.is_inner_product_state(state).is_inner_product))
    return isos, strong, witness, inner, order is not None


def _selfdual_check(out: tuple, expected_isos: int, expected_strong: bool) -> bool:
    isos, strong, witness, inner, checks_states = out
    ok = len(isos) == expected_isos and strong == expected_strong
    ok = ok and (witness is not None and _sym_psd(witness)) == expected_strong
    if checks_states:
        ok = ok and len(inner) == expected_isos
        ok = ok and all(is_inner == _sym_psd(isos[k]) for k, is_inner in inner)
    return ok


# -- cli-mix ------------------------------------------------------------------


def cli_mix(seed: int, smoke: bool = False,
            reference: dict[int, float] | None = None) -> Workload:
    """In-process CLI calls in a seeded order; exit codes and --json fields.

    The mix is already small, so the smoke mode runs it unchanged.
    """
    reference = load_reference() if reference is None else reference

    def field(check: Callable[[dict], bool]) -> Callable[[str], bool]:
        return lambda stdout: check(json.loads(stdout))

    calls: list[tuple[list[str], int, Callable[[str], bool] | None]] = [
        (["polygon", "--n", "7"], 0, None),
        (["polygon", "--n", "8", "--json"], 0, field(
            lambda d: d["dim"] == 3 and len(d["extremal_states"]) == 8
            and len(d["extremal_effects"]) == 8 and all(d["ray_extremal"]))),
        (["chsh-max", "--n", "8", "--json"], 0, field(
            lambda d: len(d["rows"]) == 1 and d["rows"][0]["n"] == 8
            and abs(d["rows"][0]["S_bruteforce"] - reference[8]) <= CHSH_TOL)),
        (["chsh-max", "--n-from", "3", "--n-to", "12"], 0, None),
        (["chained", "--n", "12", "--N", "6"], 0, None),
        (["distill", "--n", "8", "--json"], 0, field(
            lambda d: abs(d["eps"] - (1.0 - math.cos(math.pi / 4.0))) <= EXACT_TOL)),
        (["q1-cert", "--model", "polygon:7", "--json"], 0, field(
            lambda d: d["verdict"] == "in-Q1"
            and d["spectrum"][0] >= -PSD_TOL * d["spectrum"][-1])),
        (["q1-cert", "--model", "polygon:6", "--json"], 0, field(
            lambda d: d["verdict"] == "not-in-Q1" and d["chsh_ok"] is False)),
        (["q1-cert", "--model", "house", "--json"], 0, field(
            lambda d: d["verdict"] == "not-in-Q1"
            and abs(d["uffink_value"] - 4.25) <= 1e-10)),
        (["selfdual", "--model", "polygon:9", "--json"], 0, field(
            lambda d: d["weak"] is True and d["strong"] is True
            and len(d["witnesses"]) == 18)),
        (["selfdual", "--model", "house", "--json"], 0, field(
            lambda d: d["strong"] is True and len(d["witnesses"]) == 2)),
        (["house", "demo"], 0, None),
        (["polygon", "--n", "2"], 1, None),
        (["distill", "--n", "7"], 1, None),
        (["chained", "--n", "12"], 2, None),
    ]
    rng = np.random.default_rng([seed, 4])
    items = []
    for k in rng.permutation(len(calls)):
        argv, code, check = calls[k]
        items.append(Item(
            "cli " + " ".join(argv),
            lambda argv=argv: _run_cli(argv),
            lambda out, code=code, check=check: _cli_check(out, code, check),
        ))
    # One certificate (q1-cert on polygon:7, the only inner-product state in
    # the mix) and two self-duality classifications per pass.
    return Workload(items, certificates=1, models=2, cli_calls=len(calls))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue()


def _cli_check(out: tuple[int, str], code: int,
               check: Callable[[str], bool] | None) -> bool:
    got, stdout = out
    return got == code and (check is None or check(stdout))


BUILDERS: dict[str, Callable[..., Workload]] = {
    "chsh-scan": chsh_scan,
    "cert-pairs": cert_pairs,
    "selfdual-sweep": selfdual_sweep,
    "cli-mix": cli_mix,
}
