"""Self-checks of the benchmark harness, on the reduced (smoke) item lists."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from worker import layer_units, run_pass, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

correlations = importlib.import_module("polybell.correlations")
core = importlib.import_module("polybell.core")
q1 = importlib.import_module("polybell.q1")
selfdual = importlib.import_module("polybell.selfdual")


def launch(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_launcher_prints_the_contracted_result(workload, trace):
    proc = launch("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in out["metrics"].items()}
    assert info["seed"] == 3 and info["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_per_layer_metrics_match_the_declared_list():
    assert list(layer_units()) == [m["name"] for m in SPEC["per_layer"]]


def test_launcher_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = launch("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_reference_shows_up_as_failed_items():
    reference = workloads.load_reference()
    reference[5] += 1e-6
    reference[6] -= 0.1
    result = run_pass(workloads.chsh_scan(7, smoke=True, reference=reference).items)
    assert len(result.samples) == len(workloads.SMOKE_CHSH_SIZES)
    assert [f.split(":")[0] for f in result.failures] == ["chsh-scan n=5", "chsh-scan n=6"]


def test_stale_certificate_shows_up_as_failed_items(monkeypatch):
    original = q1.certificate_from_inner_product_state
    first = {}

    def stale(state, meas_a, meas_b, tol=None):
        # Hand back the first certificate built for this state, whatever the pair.
        return first.setdefault(id(state), original(state, meas_a, meas_b, tol))

    monkeypatch.setattr(q1, "certificate_from_inner_product_state", stale)
    workload = workloads.cert_pairs(5, smoke=True)
    result = run_pass(workload.items)
    failed = {f.split(":")[0] for f in result.failures}
    certs = {item.label for item in workload.items if item.label.startswith("cert ")}
    # Pairs related to the first one by a symmetry of the polygon share its
    # correlations, so a few stale certificates are still right.
    assert len(failed & certs) >= 0.9 * len(certs)
    assert all(label.startswith(("cert ", "pushforward ")) for label in failed)


def test_wrong_isomorphism_count_shows_up_as_failed_items(monkeypatch):
    original = selfdual.find_cone_isomorphisms
    monkeypatch.setattr(selfdual, "find_cone_isomorphisms", lambda m: original(m)[1:])
    result = run_pass(workloads.selfdual_sweep(2, smoke=True).items)
    assert len(result.failures) == len(workloads.SMOKE_SELFDUAL_SIZES) + 1


def test_wrong_cli_reference_shows_up_as_a_failed_item():
    reference = workloads.load_reference()
    reference[8] += 1e-6
    result = run_pass(workloads.cli_mix(4, reference=reference).items)
    assert [f.split(":")[0] for f in result.failures] == ["cli chsh-max --n 8 --json"]


def test_raising_item_counts_and_the_pass_goes_on(monkeypatch):
    def broken(n):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(correlations, "distill_decompose", broken)
    result = run_pass(workloads.chsh_scan(7, smoke=True).items)
    assert len(result.samples) == len(workloads.SMOKE_CHSH_SIZES)
    assert len(result.failures) == sum(1 for n in workloads.SMOKE_CHSH_SIZES if n % 2 == 0)


def test_cert_pairs_builds_every_two_setting_certificate():
    workload = workloads.cert_pairs(1)
    labels = [item.label for item in workload.items]
    assert sum(label.startswith("cert ") for label in labels) == workloads.PAIR_CERTIFICATES
    assert sum(label.startswith("pushforward ") for label in labels) == 100


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_traced_counts_repeat_across_seeds(workload):
    counts = []
    for seed in (1, 2, 1):
        tracer = spans.Tracer()
        tracer.install()
        try:
            result = run_pass(workloads.BUILDERS[workload](seed, smoke=True).items)
        finally:
            tracer.uninstall()
        assert not result.failures
        counts.append(dict(tracer.calls))
    assert counts[0] == counts[1] == counts[2]
    assert sum(counts[0].values()) > 0


def test_uninstall_restores_every_original():
    originals = (q1.certificate_from_inner_product_state, q1.is_inner_product_state,
                 core.Measurement.__post_init__)
    tracer = spans.Tracer()
    tracer.install()
    assert q1.is_inner_product_state is not originals[1]
    tracer.uninstall()
    assert (q1.certificate_from_inner_product_state, q1.is_inner_product_state,
            core.Measurement.__post_init__) == originals


def test_removed_name_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(selfdual, "state_from_isomorphism")
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_pass(workloads.chsh_scan(1, smoke=True).items)
    finally:
        tracer.uninstall()
    assert tracer.calls.get("selfdual.state_from_isomorphism", 0) == 0
    assert tracer.calls["correlations.chsh_max_over_settings"] > 0


@pytest.mark.parametrize("count, percentile, beyond", [
    (100, 90.0, 10), (999, 90.0, 99), (1000, 99.0, 10), (10000, 99.9, 10),
])
def test_tail_is_the_nearest_rank_percentile(count, percentile, beyond):
    value, got_beyond = tail([float(k) for k in range(count)], percentile)
    assert got_beyond == beyond
    assert sum(1 for k in range(count) if k > value) == beyond
