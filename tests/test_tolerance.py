"""The tolerance policy: the rounding floor, the one PSD rule, and its list.

Tolerances below the floor must give the paper's verdicts, the PSD rule
must be the max-|eigenvalue| rule on floats and arrays alike, and every
threshold constant in the package must be quoted in the ``core`` docstring.
"""

import ast
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import polybell
from polybell import core
from polybell.cli import run
from polybell.core import ROUNDING_TOL, ModelSpec, psd_at, validate_model
from polybell.correlations import TSIRELSON_BOUND, ray_settings
from polybell.house import house_model
from polybell.polygon import max_entangled, polygon
from polybell.q1 import Q1Certificate, certificate_from_inner_product_state
from polybell.selfdual import self_duality

TINY_TOLS = ("0", "1e-17", "1e-16", "1e-15")


def psd_reference(lowest, highest, tol) -> bool:
    """The rule as the ``core`` docstring states it, with a max of the two ends."""
    return lowest >= -tol * max(abs(lowest), abs(highest))


def test_psd_rule_is_the_max_abs_rule_on_floats_and_arrays():
    rng = np.random.default_rng(1104)
    ends = np.sort(rng.normal(size=(4000, 2)) * 10.0 ** rng.integers(-5, 5, size=(4000, 1))
                   + rng.choice([-1.0, 0.0, 1.0], size=(4000, 1)), axis=1)
    for tol in (ROUNDING_TOL, 1e-9, 0.3, 1.0, 2.0):
        verdicts = psd_at(ends[:, 0], ends[:, 1], tol)
        assert verdicts.dtype == bool
        for (lowest, highest), verdict in zip(ends.tolist(), verdicts.tolist()):
            one = psd_at(lowest, highest, tol)
            assert type(one) is bool
            assert one is verdict is psd_reference(lowest, highest, tol)


# (argv, check of the JSON payload): the paper's verdict on the 7-gon, the
# 8-gon and the house, for every subcommand that applies
PAPER_VERDICTS = [
    (["polygon", "--n", "7"], lambda p: p["name"] == "polygon-7"),
    (["polygon", "--n", "8"], lambda p: p["name"] == "polygon-8"),
    (["chsh-max", "--n", "7"], lambda p: p["rows"][0]["S_bruteforce"] < TSIRELSON_BOUND - 0.05),
    (["chsh-max", "--n", "8"],
     lambda p: abs(p["rows"][0]["S_bruteforce"] - TSIRELSON_BOUND) <= 1e-12),
    (["chained", "--n", "8", "--N", "4"], lambda p: abs(p["value"] - 8.0) <= 1e-12),
    (["distill", "--n", "8"],
     lambda p: abs(p["eps"] - (1.0 - math.cos(math.pi / 4.0))) <= 1e-15),
    (["q1-cert", "--model", "polygon:7"], lambda p: p["verdict"] == "in-Q1"),
    (["q1-cert", "--model", "polygon:8"], lambda p: p["verdict"] == "undetermined"),
    (["q1-cert", "--model", "house"], lambda p: p["verdict"] == "not-in-Q1"),
    (["selfdual", "--model", "polygon:7"], lambda p: p["weak"] and p["strong"]),
    (["selfdual", "--model", "polygon:8"], lambda p: p["weak"] and not p["strong"]),
    (["selfdual", "--model", "house"], lambda p: p["weak"] and p["strong"]),
    (["house"], lambda p: p["verdict"] == "not-in-Q1"),
]


@pytest.mark.parametrize("tol", TINY_TOLS)
@pytest.mark.parametrize("argv, check", PAPER_VERDICTS,
                         ids=[" ".join(argv) for argv, _ in PAPER_VERDICTS])
def test_paper_verdicts_hold_below_the_rounding_floor(argv, check, tol, capsys):
    code = run([*argv, "--json", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert check(json.loads(captured.out)), captured.out


def test_odd_polygons_are_strongly_self_dual_at_tol_zero():
    for n in range(3, 130):
        report = self_duality(polygon(n), 0.0)
        assert report.weak
        assert report.strong == (n % 2 == 1), n


def _turned(spectrum: list[float]) -> np.ndarray:
    """A symmetric matrix with this spectrum, in a basis that is not the standard one."""
    basis, _ = np.linalg.qr(np.random.default_rng(1215).normal(size=(len(spectrum),) * 2))
    matrix = basis @ np.diag(spectrum) @ basis.T
    return (matrix + matrix.T) / 2.0


@pytest.mark.parametrize("spectrum", [
    [-1e-6, 1.0, 1.0], [-3e-4, 0.2, 5.0], [-0.3, 0.5, 2.0], [-2.0, 0.1, 1.0],
    [-1.0, -0.5, -0.1], [-4e-9, 1e-3, 2e-3],
])
def test_certificate_psd_margin_is_where_the_verdict_flips(spectrum):
    cert = Q1Certificate(_turned(spectrum), (1,), (1,))
    margin = cert.psd_margin
    assert margin == pytest.approx(spectrum[0] / max(abs(spectrum[0]), abs(spectrum[-1])),
                                   rel=1e-6)
    for order in ([(1 + 1e-6, "in-Q1"), (1 - 1e-6, "undetermined")],
                  [(1 - 1e-6, "undetermined"), (1 + 1e-6, "in-Q1")]):
        for factor, verdict in order:
            assert cert.verdict(-margin * factor) == verdict, factor
    assert "psd_margin" not in cert.to_dict()


def test_odd_polygon_certificates_have_no_negative_margin_above_the_floor():
    for n in (5, 7, 9):
        state = max_entangled(n)
        settings = ray_settings(state.model_a, 3)
        cert = certificate_from_inner_product_state(state, settings, settings)
        assert cert.psd_margin >= -ROUNDING_TOL
        assert cert.verdict(0.0) == "in-Q1"
    assert Q1Certificate(np.zeros((3, 3)), (1,), (1,)).psd_margin == 0.0


def _moved(model: ModelSpec, *, state=None, effect=None) -> ModelSpec:
    """``model`` with one extremal state or effect replaced by ``f(old)``."""
    states = model.extremal_states.copy()
    effects = model.extremal_effects.copy()
    if state is not None:
        states[2] = state(states[2])
    if effect is not None:
        effects[1] = effect(effects[1])
    return ModelSpec(model.name, model.dim, states, effects, model.unit_effect,
                     model.ray_extremal)


VALIDATION_MARGINS = {"normalization_margin": "state-not-normalized",
                      "range_margin": "effect-out-of-range"}


@pytest.mark.parametrize("model, expected", [
    # the state's unit pairing and its pairing with a touching effect move
    # together
    (_moved(polygon(5), state=lambda w: w * (1 + 2e-6)),
     {"normalization_margin": 2e-6, "range_margin": 2e-6}),
    (_moved(polygon(5), effect=lambda e: e * (1 + 3e-5)), {"range_margin": 3e-5}),
    # below zero on the states the effect vanished on
    (_moved(polygon(7), effect=lambda e: e - 4e-6 * polygon(7).unit_effect),
     {"range_margin": 4e-6}),
], ids=["state", "effect-above-one", "effect-below-zero"])
def test_validation_verdicts_flip_at_their_margins(model, expected):
    report = validate_model(model, 0.0)
    for name, code in VALIDATION_MARGINS.items():
        margin = getattr(report, name)
        if name not in expected:
            # rounding noise only: no failure at any tolerance
            assert margin < ROUNDING_TOL
            assert code not in {f.code for f in report.failures}
            continue
        assert margin == pytest.approx(expected[name], rel=1e-6)
        for factor, fails in ((1 + 1e-6, False), (1 - 1e-6, True)):
            codes = {f.code for f in validate_model(model, margin * factor).failures}
            assert (code in codes) == fails, (name, factor)


def test_range_margin_is_negative_when_every_pairing_is_strictly_inside():
    model = polygon(6)
    # every effect mixed with u/2: pairings lie in [5e-5, 1 - 5e-5]
    effects = (1 - 1e-4) * model.extremal_effects + 0.5e-4 * model.unit_effect
    shrunk = ModelSpec(model.name, model.dim, model.extremal_states, effects,
                       model.unit_effect, model.ray_extremal)
    assert validate_model(shrunk).range_margin == pytest.approx(-5e-5, rel=1e-6)


def test_library_models_validate_within_the_rounding_floor():
    for model in [polygon(n) for n in (*range(3, 65), 128, 256)] + [house_model()]:
        report = validate_model(model, 0.0)
        assert report.ok, (model.name, report.summary())
        assert report.normalization_margin < ROUNDING_TOL
        assert report.range_margin < ROUNDING_TOL


# module-level names that hold a fixed threshold
THRESHOLD_NAME = re.compile(r"_?[A-Z][A-Z_]*_(TOL|CUTOFF)")


def _threshold_constants() -> dict[str, float]:
    """Every module-level ``*_TOL``/``*_CUTOFF`` assignment in the package.

    Keyed by the name the ``core`` docstring quotes: the bare name for
    ``core``'s own constants, ``module.NAME`` for the others.
    """
    found = {}
    for path in sorted(Path(polybell.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"polybell.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and THRESHOLD_NAME.fullmatch(target.id):
                    key = target.id if path.stem == "core" else f"{path.stem}.{target.id}"
                    found[key] = getattr(module, target.id)
    return found


def test_every_threshold_constant_is_quoted_in_the_core_docstring():
    constants = _threshold_constants()
    assert set(constants) == {
        "DEFAULT_TOL", "ROUNDING_TOL", "correlations._DISTRIBUTION_TOL",
        "correlations._NO_SIGNALLING_TOL", "selfdual._RESIDUAL_TOL",
        "selfdual._RANK_CUTOFF", "bipartite._RANK_CUTOFF",
    }
    doc = " ".join(core.__doc__.split())
    for name, value in constants.items():
        quoted = re.findall(rf"``{re.escape(name)}`` = ([0-9][0-9.e+-]*[0-9])", doc)
        assert quoted, f"{name} is not quoted with its value"
        # quoted to two significant digits
        assert all(float(q) == float(f"{value:.2g}") for q in quoted), (name, quoted, value)
