import argparse
import ast
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polybell
from polybell import cli, correlations, selfdual
from polybell.cli import MAX_SCAN_N, run
from polybell.core import DEFAULT_TOL, ModelSpec, _model_gap, resolve_tol
from polybell.correlations import chsh_max_over_settings, ray_settings
from polybell.polygon import max_entangled, polygon
from polybell.q1 import Q1Certificate


# The child imports the same polybell as this process, installed or not.
SRC = str(Path(polybell.__file__).resolve().parent.parent)


def run_python(*args, **kwargs):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def run_cli(*args, **kwargs):
    return run_python("-m", "polybell", *args, **kwargs)


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "polybell" in result.stdout


def test_unknown_flag_is_usage_error():
    result = run_cli("polygon", "--frobnicate")
    assert result.returncode == 2


def test_invalid_polygon_size_is_reported():
    result = run_cli("polygon", "--n", "2")
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_polygon_summary_line():
    result = run_cli("polygon", "--n", "5")
    assert result.returncode == 0
    assert "5 states" in result.stdout
    assert "10 effects" in result.stdout


def test_polygon_emit_roundtrip(tmp_path):
    path = tmp_path / "heptagon.json"
    result = run_cli("polygon", "--n", "7", "--emit", str(path))
    assert result.returncode == 0
    loaded = ModelSpec.from_json(path.read_text())
    assert _model_gap(loaded, polygon(7)) <= DEFAULT_TOL


def test_house_demo_text():
    result = run_cli("house", "demo")
    assert result.returncode == 0
    assert "4.25" in result.stdout
    assert "not in Q1" in result.stdout


def test_house_demo_json():
    result = run_cli("house", "demo", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == 1
    assert payload["verdict"] == "not-in-Q1"
    assert abs(payload["uffink"] - 4.25) <= 1e-10
    assert abs(payload["chsh"] - 2.5) <= 1e-10


def test_chained_dodecagon():
    result = run_cli("chained", "--n", "12", "--N", "6")
    assert result.returncode == 0
    assert "12.0" in result.stdout


def test_chained_json_hits_algebraic_maximum():
    result = run_cli("chained", "--n", "8", "--N", "4", "--json")
    payload = json.loads(result.stdout)
    assert payload["N"] == 4
    assert abs(payload["value"] - payload["algebraic_maximum"]) <= 1e-10
    assert payload["local_bound"] == 6.0


def test_chsh_max_json_settings_are_one_based():
    result = run_cli("chsh-max", "--n", "4", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == 1
    (row,) = payload["rows"]
    assert row["S_bruteforce"] == pytest.approx(4.0, abs=1e-12)
    assert row["S_analytic"] == pytest.approx(4.0, abs=1e-12)
    assert row["settings"] == [1, 2, 2, 1]
    assert min(row["settings"]) >= 1


def test_chsh_max_csv_deterministic_and_golden(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        result = run_cli("chsh-max", "--n-from", "3", "--n-to", "12", "--out", str(path))
        assert result.returncode == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "n,parity,S_bruteforce,S_analytic,residue_class"
    assert lines[1] == "3,odd,2,2,3"
    assert lines[2] == "4,even,4,4,4"
    assert lines[3] == "5,odd,2.683281573,2.683281573,5"
    assert lines[4] == "6,even,3,3,6"


@pytest.mark.parametrize("args", [
    ["chsh-max", "--n-to", "1000000000"],
    ["chsh-max", "--n", str(MAX_SCAN_N + 1)],
    ["q1-cert", "--model", f"polygon:{MAX_SCAN_N + 2}"],
    ["q1-cert", "--model", "polygon:1000000000"],
])
def test_scan_size_cap(args, capsys):
    assert run(args) == 1
    assert "exceeds the CHSH scan limit" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["selfdual", "--model", "polygon:1000000000"], "exceeds the isomorphism search limit"),
    (["selfdual", "--model", f"polygon:{cli.MAX_SELFDUAL_N + 1}"],
     "exceeds the isomorphism search limit"),
    (["polygon", "--n", "1000000000"], "exceeds the model validation limit"),
    (["polygon", "--n", str(cli.MAX_MODEL_N + 1)], "exceeds the model validation limit"),
    (["q1-cert", "--model", f"polygon:{cli.MAX_MODEL_N + 1}"], "exceeds the model size limit"),
    (["q1-cert", "--model", "polygon:999999999"], "exceeds the model size limit"),
    (["q1-cert", "--model", "polygon:2047", "--settings", str(cli.MAX_SETTINGS + 1)],
     "exceeds the certificate settings limit"),
    (["q1-cert", "--model", "polygon:7", "--settings", "2047"],
     "exceeds the certificate settings limit"),
    (["q1-cert", "--model", "polygon:7", "--settings", "0"], "below the minimum 1"),
    (["q1-cert", "--model", "polygon:7", "--settings", "-3"], "below the minimum 1"),
    (["q1-cert", "--model", "polygon:4097", "--settings", "0"], "exceeds the model size limit"),
    (["q1-cert", "--model", "polygon:4097", "--settings", "300"],
     "exceeds the model size limit"),
    (["q1-cert", "--model", "polygon:abc", "--settings", "3"], "invalid model"),
    (["q1-cert", "--model", "cube", "--settings", "3"], "unknown model"),
    (["q1-cert", "--model", "house", "--settings", "3", "--tol", "-1"],
     "tolerance must be finite and non-negative"),
    (["chained", "--n", str(cli.MAX_MODEL_N + 1), "--N", "2"], "exceeds the model size limit"),
    (["chained", "--n", "1000000000", "--N", "2"], "exceeds the model size limit"),
    (["chained", "--n", "600", "--N", str(cli.MAX_SETTINGS + 1)],
     "N = 257 exceeds the chained settings limit 256"),
    (["chained", "--n", "12", "--N", "1000000000"], "exceeds the chained settings limit"),
    (["distill", "--n", str(cli.MAX_MODEL_N + 2)], "exceeds the model size limit"),
    (["distill", "--n", "1000000000"], "exceeds the model size limit"),
    *[([command, "--model", spec],
       f"invalid model {spec!r}; expected polygon:<n> with an integer n")
      for command in ("selfdual", "q1-cert")
      for spec in ("polygon:3.0", "polygon:", "polygon:1e3", "polygon:0x10",
                   "polygon:1_1", "polygon:+9", "polygon: 9 ", "polygon:\u0669")],
], ids=["selfdual-huge", "selfdual-cap", "polygon-huge", "polygon-cap",
        "q1-odd-cap", "q1-odd-huge", "q1-settings-cap", "q1-settings-huge",
        "q1-settings-zero", "q1-settings-negative", "q1-cap-before-settings-zero",
        "q1-cap-before-settings-cap", "q1-invalid-before-settings",
        "q1-unknown-before-settings", "q1-tol-before-settings", "chained-cap", "chained-huge",
        "chained-settings-cap", "chained-settings-huge", "distill-cap", "distill-huge",
        *[f"{command}-{spec}" for command in ("selfdual", "q1-cert")
          for spec in ("float", "empty", "exponent", "hex", "underscore", "sign",
                       "spaces", "arabic-indic")]])
def test_model_size_caps_run_before_construction(args, message, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"a {n}-gon built past the size cap")

    for name in ("polygon", "max_entangled", "distill_with_table"):
        monkeypatch.setattr(cli, name, refuse)
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert message in captured.err


@pytest.mark.parametrize("args", [
    ["chsh-max", "--n", "8", "--json", "--out", "{out}"],
    ["chsh-max", "--n", "8", "--n-from", "3"],
    ["chsh-max", "--n", "8", "--n-to", "12"],
    ["polygon", "--n", "5", "--emit", "{out}", "--json"],
    ["q1-cert", "--model", "house", "--state", "maxent"],
    ["q1-cert", "--model", "house", "--settings", "2"],
    ["q1-cert", "--model", "polygon:8", "--settings", "2"],
    ["q1-cert", "--model", "polygon:1000000000", "--settings", "2"],
    ["q1-cert", "--model", "polygon:2", "--settings", "3"],
], ids=["json-out", "n-n-from", "n-n-to", "emit-json", "no-state-flag",
        "house-settings", "even-settings", "even-huge-settings", "too-small-even-settings"])
def test_flags_that_would_be_ignored_are_usage_errors(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([a.format(out=out) for a in args]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_uses_no_private_name_of_another_module():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module is None
               for alias in node.names}
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    attributes = [node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert modules == {"house_mod"}
    assert [name for name in imported + attributes if name.startswith("_")] == []


def test_polygon_rejects_a_model_that_fails_validation(capsys, monkeypatch):
    good = polygon(5)
    states = good.extremal_states.copy()
    states[0, 2] = 1.5
    broken = ModelSpec("broken", 3, states, good.extremal_effects, good.unit_effect,
                       ray_extremal=good.ray_extremal)
    monkeypatch.setattr(cli, "polygon", lambda n: broken)
    assert run(["polygon", "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: broken failed validation: state 0 has unit pairing 1.5, expected 1;")
    assert captured.out == ""


def test_polygon_tol_reaches_validation(monkeypatch, capsys):
    original = cli.validate_model
    seen = []
    monkeypatch.setattr(cli, "validate_model",
                        lambda model, tol: seen.append(tol) or original(model, tol))
    assert run(["polygon", "--n", "7", "--tol", "0.001"]) == 0
    assert seen == [0.001]


@pytest.mark.parametrize("args, calls", [
    (["chained", "--n", "12", "--N", "6"], 1),
    # one settings list, built inside `distill_with_table`, serves both sides
    (["distill", "--n", "8"], 1),
    (["q1-cert", "--model", "polygon:7"], 1),
    # the even screen builds the scan's two settings per side, one by one
    (["q1-cert", "--model", "polygon:6"], 4),
], ids=["chained", "distill", "q1-cert-odd", "q1-cert-even"])
def test_tol_reaches_ray_settings(args, calls, monkeypatch, capsys):
    seen = []
    for module, name in ((cli, "ray_settings"), (cli, "dichotomic_measurement"),
                         (correlations, "ray_settings")):
        def recording(model, k, tol=None, original=getattr(module, name)):
            seen.append(tol)
            return original(model, k, tol=tol)

        monkeypatch.setattr(module, name, recording)
    assert run([*args, "--tol", "0.001"]) == 0
    assert seen == [0.001] * calls


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 16])
def test_q1_cert_even_screen_table_is_the_all_rays_table(n, monkeypatch, capsys):
    original = cli.correlations_from_state
    tables = []
    monkeypatch.setattr(cli, "correlations_from_state",
                        lambda *args: tables.append(original(*args)) or tables[-1])
    assert run(["q1-cert", "--model", f"polygon:{n}"]) == 0
    state = max_entangled(n)
    _, (i0, i1, j0, j1) = chsh_max_over_settings(state)
    rays = ray_settings(state.model_a, n)
    expected = original(state, [rays[i0], rays[i1]], [rays[j0], rays[j1]])
    (table,) = tables
    assert table.probs.tobytes() == expected.probs.tobytes()


def test_chsh_max_checks_scan_against_closed_form_within_tol(monkeypatch, capsys):
    original = cli.chsh_max_closed_form
    monkeypatch.setattr(cli, "chsh_max_closed_form", lambda n: original(n) + 1e-6)
    assert run(["chsh-max", "--n-from", "3", "--n-to", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: n = 3: scan maximum")
    assert captured.out == ""
    assert run(["chsh-max", "--n-from", "3", "--n-to", "6", "--tol", "1e-5"]) == 0


def test_selfdual_searches_once(monkeypatch, capsys):
    original = selfdual._frame_system
    calls = []
    monkeypatch.setattr(selfdual, "_frame_system",
                        lambda *args: calls.append(1) or original(*args))
    assert run(["selfdual", "--model", "polygon:9"]) == 0
    assert "strongly self-dual: yes" in capsys.readouterr().out
    assert len(calls) == 1


BUILDS_PER_COMMAND = [
    (["q1-cert", "--model", "polygon:7"], 1),
    (["q1-cert", "--model", "polygon:7", "--settings", "3"], 1),
    (["q1-cert", "--model", "polygon:6"], 1),
    (["q1-cert", "--model", "house"], 1),
    (["house", "demo"], 1),
    (["selfdual", "--model", "house"], 1),
    (["selfdual", "--model", "polygon:9"], 1),
    (["polygon", "--n", "7"], 1),
    (["distill", "--n", "8"], 1),
    (["chained", "--n", "12", "--N", "6"], 1),
    (["chsh-max", "--n-from", "3", "--n-to", "12"], 10),
]


@pytest.mark.parametrize("args, builds", BUILDS_PER_COMMAND,
                         ids=[" ".join(args) for args, _ in BUILDS_PER_COMMAND])
def test_each_command_builds_each_model_once(args, builds, monkeypatch, capsys):
    original, calls = ModelSpec.__post_init__, []
    monkeypatch.setattr(ModelSpec, "__post_init__",
                        lambda self: calls.append(self.name) or original(self))
    assert run(args) == 0
    capsys.readouterr()
    assert len(calls) == builds
    assert len(set(calls)) == builds


@pytest.mark.parametrize("args", [
    ["polygon", "--n", "5"],
    ["chsh-max", "--n", "8"],
    ["chained", "--n", "12", "--N", "6"],
    ["distill", "--n", "8"],
    ["q1-cert", "--model", "polygon:7"],
    ["selfdual", "--model", "polygon:9"],
    ["house", "demo"],
], ids=lambda args: args[0])
def test_negative_tol_is_rejected(args, capsys):
    assert run([*args, "--tol", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_q1_cert_constructive_for_odd():
    result = run_cli("q1-cert", "--model", "polygon:7", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "in-Q1"
    gamma = payload["gamma"]
    assert len(gamma) == 9 and all(len(row) == 9 for row in gamma)
    assert min(payload["spectrum"]) >= -1e-9


def test_q1_cert_settings_reach_odd_certificate(capsys):
    assert run(["q1-cert", "--model", "polygon:7", "--settings", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "in-Q1"
    assert payload["outcomes_A"] == [2, 2, 2]
    assert len(payload["gamma"]) == 1 + 4 * 3
    # without the flag an odd polygon gets two settings per side
    assert run(["q1-cert", "--model", "polygon:7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["outcomes_A"] == [2, 2]


@pytest.mark.parametrize("tol, verdict", [("1e-9", "undetermined"), ("1e-3", "in-Q1")])
def test_q1_cert_json_and_text_give_one_verdict_at_tol(tol, verdict, monkeypatch, capsys):
    # lowest eigenvalue -1e-6 against highest 1: PSD from tol = 1e-6 on
    def near_boundary(state, meas_a, meas_b, tol=None):
        return Q1Certificate(np.diag([-1e-6, 1.0, 1.0]), (1,), (1,))

    monkeypatch.setattr(cli, "certificate_from_inner_product_state", near_boundary)
    argv = ["q1-cert", "--model", "polygon:7", "--tol", tol]
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith(f"verdict: {verdict} ")
    assert run([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict


def test_q1_cert_screen_for_even():
    caught = json.loads(run_cli("q1-cert", "--model", "polygon:6", "--json").stdout)
    assert caught["gamma"] is None
    assert caught["verdict"] == "not-in-Q1"
    boundary = json.loads(run_cli("q1-cert", "--model", "polygon:8", "--json").stdout)
    assert boundary["verdict"] == "undetermined"


def test_selfdual_json():
    result = run_cli("selfdual", "--model", "polygon:9", "--json")
    payload = json.loads(result.stdout)
    assert payload["weak"] is True
    assert payload["strong"] is True
    assert len(payload["witnesses"]) == 18
    assert payload["strong_witness"] is not None


@pytest.mark.parametrize("model, tried, rejected, isomorphisms", [
    ("polygon:9", 18, {}, 18),
    # five rays: ten dihedral alignments, eight fail the residual check
    ("house", 10, {"residual": 8}, 2),
], ids=["polygon-9", "house"])
def test_selfdual_json_counts_candidates(model, tried, rejected, isomorphisms, capsys):
    assert run(["selfdual", "--model", model, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"schema_version", "model", "weak", "strong", "witnesses",
                            "strong_witness"}
    assert len(payload["witnesses"]) == isomorphisms
    assert payload["candidates_tried"] == tried
    rules = ["nullity", "sign", "scale", "residual", "determinant", "duplicate"]
    assert payload["candidates_rejected"] == {rule: rejected.get(rule, 0) for rule in rules}
    assert payload["strong"] is True
    assert 0.0 <= payload["witness_asymmetry"] <= 1e-9
    assert payload["witness_min_eigenvalue"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


@pytest.mark.parametrize("model, tol, asymmetry, psd", [
    # rotations are asymmetric, reflections symmetric and indefinite
    ("polygon:8", None, 8, 8),
    ("polygon:7", "1e-16", 6, 7),
    ("house", "0", 0, 1),
], ids=["polygon-8", "polygon-7", "house"])
def test_selfdual_json_counts_witness_rejections(model, tol, asymmetry, psd, capsys):
    argv = ["selfdual", "--model", model, "--json"]
    assert run(argv if tol is None else [*argv, "--tol", tol]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness_rejected"] == {"asymmetry": asymmetry, "psd": psd}
    # one isomorphism at most passes both rules, and the 8-gon has none
    assert asymmetry + psd + payload["strong"] == len(payload["witnesses"])


def test_distill_json():
    result = run_cli("distill", "--n", "8", "--json")
    payload = json.loads(result.stdout)
    assert payload["n"] == 8
    assert payload["eps"] == pytest.approx(1.0 - math.cos(math.pi / 4), abs=1e-15)
    assert payload["E_2_1"] == pytest.approx(1.0 - 2.0 * payload["eps"], abs=1e-12)


# sha256 of `distill --n 8 --json` stdout from before the two component
# tables were shared between calls
DISTILL_8_JSON_SHA256 = "2b9cf932b11dedfc956834f5a688983523aa2172817cfb43f77e4ecee0bf0cfa"


def test_distill_json_bytes_are_unchanged_by_shared_components(capsys):
    # the second call reads the components the first one built
    for _ in range(2):
        assert run(["distill", "--n", "8", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DISTILL_8_JSON_SHA256


# sha256 of stdout from before the CHSH scan visited each unordered pair of
# second-side settings once; even-n `q1-cert` screens the scan's argmax
SCAN_STDOUT_SHA256 = {
    ("chsh-max", "--n-from", "3", "--n-to", "70"):
        "d56ff362817468ebb2b33d324335a318824ff29964ac1c1c0778125207082146",
    ("chsh-max", "--n-from", "3", "--n-to", "70", "--json"):
        "2f070990171d76bd6fa91f67289ed14ac8f4e67498e39139a584d1ee7022cf46",
    ("q1-cert", "--model", "polygon:6", "--json"):
        "ce593c218b0f6ea069709bb80df6042a4d1db9641e0259c2fd05d89d744bceaf",
    ("q1-cert", "--model", "polygon:64", "--json"):
        "39f946375836a241a2b3490301f84af4e7d6918adc1b378d383d6ca9bca42314",
}


@pytest.mark.parametrize("argv", list(SCAN_STDOUT_SHA256), ids=" ".join)
def test_scan_output_bytes_are_unchanged_by_the_unordered_scan(argv, capsys):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_STDOUT_SHA256[argv]


# sha256 of odd-n `q1-cert --json` stdout from before the certificate's
# matrix build and its spectrum were split into private helpers
Q1_CERT_STDOUT_SHA256 = {
    ("q1-cert", "--model", "polygon:7", "--json"):
        "694270a72c226463dd363624fad6ccaf151aa1ca63b89ed474ac94cc04f1a0f4",
    ("q1-cert", "--model", "polygon:9", "--settings", "4", "--json"):
        "4e58b91c70042ef448cf5a53c063389192ccb09980d341de69cba821ab1be15c",
    ("q1-cert", "--model", "polygon:15", "--settings", "15", "--json"):
        "2c679bed90a41f94c5cd75fcfa0a0ca97df8a582a4bb83319aed1308775155bc",
}


@pytest.mark.parametrize("argv", list(Q1_CERT_STDOUT_SHA256), ids=" ".join)
def test_odd_q1_cert_output_bytes_are_unchanged(argv, capsys):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == Q1_CERT_STDOUT_SHA256[argv]


# sha256 of `selfdual --json` stdout from before the report took witness
# spectra of the symmetric isomorphisms alone
SELFDUAL_JSON_SHA256 = {
    ("selfdual", "--model", "polygon:7", "--json"):
        "cbc6d87ed48583489062629867f08e29889ca287775fa69e6099870dcf7db48f",
    ("selfdual", "--model", "polygon:9", "--json"):
        "84a71064d13b20e2e8cea5619746b91260b8ba5bb252dfc4a5943cf28690935b",
    ("selfdual", "--model", "polygon:64", "--json"):
        "3304755e4df5ec541e31b985eefd978f5177cb20a96d9c4bed107305116cc402",
    ("selfdual", "--model", "house", "--json"):
        "f571de1e692d3b51471530f67599e75ad0b51f775bf6b567e4747cb0aa7f1c8c",
    ("selfdual", "--model", "polygon:7", "--tol", "0", "--json"):
        "cbc6d87ed48583489062629867f08e29889ca287775fa69e6099870dcf7db48f",
}


@pytest.mark.parametrize("argv", list(SELFDUAL_JSON_SHA256), ids=" ".join)
def test_selfdual_json_bytes_are_unchanged(argv, capsys):
    assert run(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFDUAL_JSON_SHA256[argv]


def test_distill_rejects_odd():
    result = run_cli("distill", "--n", "7")
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_package_and_every_subcommand_run_without_scipy():
    # numpy is the one runtime dependency
    script = """
import contextlib, io, json, sys
import polybell
from polybell.cli import run
calls = [["polygon", "--n", "5"], ["chsh-max", "--n", "8"], ["chained", "--n", "12", "--N", "6"],
         ["distill", "--n", "8"], ["q1-cert", "--model", "polygon:7"],
         ["q1-cert", "--model", "polygon:6"], ["q1-cert", "--model", "house"],
         ["selfdual", "--model", "polygon:9"], ["selfdual", "--model", "house"],
         ["house", "demo"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in calls]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"codes": [0] * 10, "scipy": False}


def readme_commands() -> list[str]:
    """The `polybell ...` lines of README's "Command line" code block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("polybell ")]


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)
    assert run(argv[1:]) == 0, capsys.readouterr().err


# README's command lines plus a usage error (exit 2), a validation error
# (exit 1) and --help (exit 0).
REPEATED_CALLS = ([shlex.split(line)[1:] for line in readme_commands()]
                  + [["polygon", "--frobnicate"], ["polygon", "--n", "2"], ["--help"]])


def _take_files(directory: Path) -> dict[str, bytes]:
    """The files ``directory`` holds, by name, removed as they are read."""
    files = {}
    for path in sorted(directory.iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return files


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # help text wraps at the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    fresh_dir, here = tmp_path / "fresh", tmp_path / "here"
    fresh_dir.mkdir()
    here.mkdir()
    fresh = []
    for argv in REPEATED_CALLS:
        result = run_cli(*argv, cwd=fresh_dir)
        fresh.append((result.returncode, result.stdout, result.stderr,
                      _take_files(fresh_dir)))
    assert [r[0] for r in fresh].count(2) == 1 and [r[0] for r in fresh].count(1) == 1
    monkeypatch.chdir(here)
    order = list(range(len(REPEATED_CALLS)))
    # forward then backward: every call twice, --help twice in a row
    for k in order + order[::-1]:
        code = run(REPEATED_CALLS[k])
        out, err = capsys.readouterr()
        assert (code, out, err, _take_files(here)) == fresh[k], REPEATED_CALLS[k]


def test_many_runs_build_the_parser_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    try:
        for argv in REPEATED_CALLS[:3] * 10 + [REPEATED_CALLS[-1]]:
            run(argv)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 30)
        per_build = len(built)
        cli._build_parser.__wrapped__()  # one uncached build, for its count
        assert len(built) == 2 * per_build
        assert built[0] == "polybell"
    finally:
        cli._build_parser.cache_clear()
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    result = run_python("-c", "from polybell import cli; "
                              "print(cli._build_parser.cache_info().currsize)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


# One call per subcommand, with the headline numbers that text and --json
# must agree on: text -> the values it shows, payload -> the same values.
HEADLINES = {
    "polygon": (["polygon", "--n", "7"],
                lambda text: re.fullmatch(r"(\S+): (\d+) states, (\d+) effects .*\n", text).groups(),
                lambda p: (p["name"], str(len(p["extremal_states"])),
                           str(len(p["extremal_effects"])))),
    "chsh-max": (["chsh-max", "--n-from", "3", "--n-to", "9"],
                 lambda text: text.splitlines()[1:],
                 lambda p: [cli._csv_row([r["n"], r["parity"], r["S_bruteforce"],
                                          r["S_analytic"], r["residue_class"]])
                            for r in p["rows"]]),
    "chained": (["chained", "--n", "12", "--N", "6"],
                lambda text: float(re.search(r"-gon: (\S+) ", text).group(1)),
                lambda p: round(p["value"], 12)),
    "distill": (["distill", "--n", "8"],
                lambda text: re.search(r"eps = (\S+),", text).group(1),
                lambda p: f"{p['eps']:.12g}"),
    "q1-cert-odd": (["q1-cert", "--model", "polygon:7"],
                    lambda text: text.split()[1],
                    lambda p: p["verdict"]),
    "q1-cert-even": (["q1-cert", "--model", "polygon:6"],
                     lambda text: text.split()[1],
                     lambda p: p["verdict"]),
    "q1-cert-house": (["q1-cert", "--model", "house"],
                      lambda text: text.split()[1],
                      lambda p: p["verdict"]),
    "selfdual": (["selfdual", "--model", "polygon:9"],
                 lambda text: re.fullmatch(r"\S+: weakly self-dual: (yes|no) \((\d+) "
                                           r"isomorphisms\); strongly self-dual: (yes|no)\n",
                                           text).groups(),
                 lambda p: ("yes" if p["weak"] else "no", str(len(p["witnesses"])),
                            "yes" if p["strong"] else "no")),
    "selfdual-house": (["selfdual", "--model", "house"],
                       lambda text: re.search(r"\((\d+) isomorphisms", text).group(1),
                       lambda p: str(len(p["witnesses"]))),
    "house": (["house", "demo"],
              lambda text: re.search(r"^CHSH value: (\S+) ", text, re.M).group(1),
              lambda p: str(round(p["chsh"], 12))),
}


@pytest.mark.parametrize("name", HEADLINES)
def test_json_output_is_one_sorted_object(name, capsys):
    argv = HEADLINES[name][0]
    assert run([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert isinstance(payload, dict)
    assert payload["schema_version"] == 1
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", HEADLINES)
def test_text_output_holds_no_json(name, capsys):
    assert run(HEADLINES[name][0]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and not out.endswith("\n\n")
    assert not set(out) & set('{}[]"')
    assert "schema_version" not in out


@pytest.mark.parametrize("name", HEADLINES)
def test_text_and_json_agree_on_headline_numbers(name, capsys):
    argv, from_text, from_payload = HEADLINES[name]
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert run([*argv, "--json"]) == 0
    assert from_text(text) == from_payload(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("name", HEADLINES)
def test_subcommands_return_results_and_print_nothing(name, capsys):
    args = cli._build_parser().parse_args(HEADLINES[name][0])
    args.tol = resolve_tol(args.tol)
    payload, text = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(payload, dict) and isinstance(text, str)


def test_written_files_hold_the_printed_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for printing, writing, name in [
        (["polygon", "--n", "7", "--json"], ["polygon", "--n", "7", "--emit"], "heptagon.json"),
        (["chsh-max", "--n-from", "3", "--n-to", "9"],
         ["chsh-max", "--n-from", "3", "--n-to", "9", "--out"], "chsh.csv"),
    ]:
        assert run(printing) == 0
        printed = capsys.readouterr().out
        assert run([*writing, name]) == 0
        assert capsys.readouterr().out == f"wrote {name}\n"
        assert (tmp_path / name).read_bytes() == printed.encode()
