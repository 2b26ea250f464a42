"""Command-line frontend: model emission, Bell scans, certificates, demos.

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
Each subcommand returns a JSON payload and its text rendering and writes
nothing; ``run`` writes one of the two to stdout, or to the file named by
``--emit`` (the JSON) or ``--out`` (the text) and then prints which file it
wrote. A file that cannot be written is an error (exit 1). All JSON output
carries a schema_version field, and its bytes are those of
``json.dumps(payload, sort_keys=True, indent=2)``, streamed by the encoder
below rather than by json's pure-Python one. Its one fast rule is that a
list of floats is one join over ``float.__repr__``; a float matrix is a
list of such rows, with no special case of its own. CSV floats are rendered
with %.12g. Setting labels in human-readable and JSON output are 1-based
(matching the way the models are usually drawn), while the Python API
stays 0-based.

The argument parser is built once per process, on the first call rather
than at import, and every later ``run`` reuses it, so a repeated in-process
call pays only for parsing and its own work. Callers must not mutate what
``_build_parser()`` returns.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _json_str
from typing import IO

import numpy as np

from . import house as house_mod
from .bipartite import is_inner_product_state
from .core import DEFAULT_TOL, dichotomic_measurement, resolve_tol, validate_model
from .correlations import (
    TSIRELSON_BOUND,
    chained,
    chained_local_bound,
    chsh,
    chsh_max_closed_form,
    chsh_max_over_settings,
    correlations_from_state,
    correlator,
    distill_with_table,
    ray_settings,
)
from .polygon import max_entangled, polygon
from .q1 import certificate_from_inner_product_state, q1_necessary_conditions
from .selfdual import self_duality

CLI_SCHEMA_VERSION = 1

# Largest polygon the CHSH scan accepts. The scan holds n x n correlators
# plus O(n^2) scratch and runs in O(n^3) time: at this size `chsh-max`
# peaks at about 55 MB resident and takes about 3 s on one Xeon core.
MAX_SCAN_N = 1024

# Largest polygon that `polygon` builds and validates: validation pairs
# every extremal effect with every extremal state, up to 2n^2 doubles
# (64 MB at this size). Odd-n `q1-cert`, `chained` and `distill` share the
# cap; they build O(n) model arrays and check each measurement against
# every state.
MAX_MODEL_N = 2048

# Most settings per side that odd-n `q1-cert --settings` and `chained --N`
# accept. The certificate's moment matrix is (1 + 4k)^2 doubles: at this
# size 1025^2, about 8 MB; with its eigendecomposition about 0.3 s and
# 80 MB peak RSS in-process on one core. With --json (28 MB of text) a
# fresh process writing to a file takes 1.0-1.3 s wall and 79 MB peak RSS
# with one BLAS thread (Xeon, Python 3.11, numpy 2.4); json.dump took
# 2.1-2.7 s at the same peak. The chained table holds k^2 setting pairs,
# built and checked as whole arrays: `chained --n 2048 --N 256` takes
# about 0.05 s and 41 MB in-process, most of it building the 256
# measurements.
MAX_SETTINGS = 256

# Largest polygon `selfdual` accepts. The isomorphism search runs in O(n^2)
# time and O(n) memory per block of candidates: at this size
# `polybell selfdual --model polygon:2048` takes about 1.1 s wall and 37 MB
# peak RSS in a fresh process with one BLAS thread (Xeon, Python 3.11,
# numpy 2.4), about 0.7 s of it the search.
MAX_SELFDUAL_N = 2048


def _write(stream: IO[str], payload: dict, text: str, as_json: bool) -> None:
    """Write ``payload`` as JSON, or ``text``, and a newline, to ``stream``."""
    if as_json:
        payload.setdefault("schema_version", CLI_SCHEMA_VERSION)
        stream.writelines(_json_chunks(payload))
    else:
        stream.write(text)
    stream.write("\n")


def _json_chunks(value) -> Iterator[str]:
    """Chunks that join to ``json.dumps(value, sort_keys=True, indent=2)``.

    Each item of a top-level dict is one chunk, and so is each element of a
    list in it, whatever that element holds: a large certificate streams one
    moment-matrix row at a time, as ``json.dump`` does. Raises what
    ``json.dumps`` raises for a value it refuses.
    """
    markers: set[int] = set()
    if not isinstance(value, dict) or not value:
        yield _json_text(value, "\n", markers)
        return
    markers.add(id(value))
    opening = "{"
    for key, item in sorted(value.items()):
        head = f"{opening}\n  {_json_key(key)}: "
        opening = ","
        if not isinstance(item, (list, tuple)) or not item:
            yield head + _json_text(item, "\n  ", markers)
        else:
            _json_mark(item, markers)
            head += "["
            for element in item:
                yield head + "\n    " + _json_text(element, "\n    ", markers)
                head = ","
            yield "\n  ]"
            markers.discard(id(item))
    yield "\n}"


def _json_text(value, pad: str, markers: set[int]) -> str:
    """json's text of ``value`` at indent ``pad`` (a newline and the spaces of its line).

    The checks follow ``json.encoder._make_iterencode`` in order, so
    subclasses of str, int and float, tuples, non-str keys, cycles and
    refused types come out, or raise, as json's own encoder has them.
    ``markers`` holds the ids of the containers being encoded. The one fast
    rule: a list or tuple of exact ``float`` is one join over
    ``float.__repr__``, so a float matrix is a list of such rows.
    """
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if set(map(type, value)) == {float}:
            text = ("," + inner).join(map(float.__repr__, value))
            if "n" in text:  # nan or inf, which json spells its own way
                text = ("," + inner).join(map(_json_float, value))
        else:
            _json_mark(value, markers)
            text = ("," + inner).join([_json_text(element, inner, markers) for element in value])
            markers.discard(id(value))
        return "[" + inner + text + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        _json_mark(value, markers)
        text = "{" + inner + ("," + inner).join(
            [f"{_json_key(key)}: {_json_text(item, inner, markers)}"
             for key, item in sorted(value.items())]) + pad + "}"
        markers.discard(id(value))
        return text
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    if isinstance(key, str):
        return _json_str(key)
    if isinstance(key, float):
        return _json_str(_json_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _json_str(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_mark(container, markers: set[int]) -> None:
    if id(container) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(container))


def _model_size(spec: str) -> int | None:
    """The n of ``polygon:<n>``, or None for ``house``."""
    if spec == "house":
        return None
    if spec.startswith("polygon:"):
        digits = spec[len("polygon:"):]
        # int() would also take signs, spaces, underscores and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"invalid model {spec!r}; expected polygon:<n> with an integer n")
        return int(digits)
    raise ValueError(f"unknown model {spec!r}; expected polygon:<n> or house")


def _csv_row(values) -> str:
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in values)


def _check_size(n: int, limit: int, what: str, name: str = "n") -> None:
    if n > limit:
        raise ValueError(f"{name} = {n} exceeds the {what} limit {limit}")


def _chsh_rows(n_from: int, n_to: int, tol: float) -> list[dict]:
    """Scan and closed-form maxima per n; they must agree within ``tol``."""
    rows = []
    for n in range(n_from, n_to + 1):
        brute, settings = chsh_max_over_settings(max_entangled(n))
        analytic = chsh_max_closed_form(n)
        if abs(float(brute) - analytic) > tol:
            raise ArithmeticError(
                f"n = {n}: scan maximum {float(brute)!r} and closed form "
                f"{analytic!r} differ by more than {tol:g}"
            )
        rows.append({
            "n": n,
            "parity": "even" if n % 2 == 0 else "odd",
            "S_bruteforce": float(brute),
            "S_analytic": analytic,
            "residue_class": n % 8,
            "settings": [int(s) + 1 for s in settings],
        })
    return rows


def _chsh_csv(rows: list[dict]) -> str:
    """The CSV table of ``rows``: a header line, then one line per n, no final newline."""
    columns = ["n", "parity", "S_bruteforce", "S_analytic", "residue_class"]
    return "\n".join([",".join(columns)]
                     + [_csv_row([row[c] for c in columns]) for row in rows])


def _cmd_polygon(args: argparse.Namespace) -> tuple[dict, str]:
    _check_size(args.n, MAX_MODEL_N, "model validation")
    model = polygon(args.n)
    report = validate_model(model, args.tol)
    if not report.ok:
        raise ValueError(f"{model.name} failed validation: {report.summary()}")
    ray_count = int(np.sum(model.ray_extremal))
    return model.to_dict(), (f"{model.name}: {model.n_states} states, {model.n_effects} "
                             f"effects ({ray_count} ray-extremal), dim {model.dim}")


def _cmd_chsh_max(args: argparse.Namespace) -> tuple[dict, str]:
    if args.n is None:
        n_from = 3 if args.n_from is None else args.n_from
        n_to = 52 if args.n_to is None else args.n_to
    elif args.n_from is None and args.n_to is None:
        n_from = n_to = args.n
    else:
        raise argparse.ArgumentError(None, "--n cannot be combined with --n-from or --n-to")
    if n_from < 3 or n_to < n_from:
        raise ValueError("need 3 <= n-from <= n-to")
    _check_size(n_to, MAX_SCAN_N, "CHSH scan")
    rows = _chsh_rows(n_from, n_to, args.tol)
    return {"rows": rows, "tsirelson": TSIRELSON_BOUND}, _chsh_csv(rows)


def _cmd_chained(args: argparse.Namespace) -> tuple[dict, str]:
    n, big_n = args.n, args.N
    _check_size(n, MAX_MODEL_N, "model size")
    _check_size(big_n, MAX_SETTINGS, "chained settings", "N")
    if big_n < 2:
        raise ValueError("need at least N = 2 settings")
    if n < big_n:
        raise ValueError("polygon needs at least one ray per setting")
    state = max_entangled(n)
    meas = ray_settings(state.model_a, big_n, tol=args.tol)
    value = chained(correlations_from_state(state, meas, meas), big_n)
    local_bound = chained_local_bound(big_n)
    payload = {
        "n": n,
        "N": big_n,
        "value": value,
        "local_bound": local_bound,
        "algebraic_maximum": 2 * big_n,
    }
    return payload, (f"chained value for N={big_n} settings on the {n}-gon: "
                     f"{round(value, 12)} (local bound {local_bound})")


def _cmd_distill(args: argparse.Namespace) -> tuple[dict, str]:
    _check_size(args.n, MAX_MODEL_N, "model size")
    eps, p_box, p_corr, table = distill_with_table(args.n, args.tol)
    e10 = correlator(table, 1, 0)
    payload = {
        "n": args.n,
        "eps": eps,
        "E_2_1": e10,
        "p_box": p_box.probs.tolist(),
        "p_corr": p_corr.probs.tolist(),
    }
    return payload, f"n={args.n}: eps = {eps:.12g}, correlator E(2,1) = {e10:.12g}"


def _cmd_q1_cert(args: argparse.Namespace) -> tuple[dict, str]:
    n, k = _model_size(args.model), args.settings
    if k is not None and (n is None or n % 2 == 0):
        raise argparse.ArgumentError(None, "--settings applies to odd polygons only")
    # the state carries the model, so each command builds it once
    if n is None:
        state = house_mod.house_joint_state()
        meas_a, meas_b = house_mod.house_demo_measurements(state.model_a)
    elif n % 2 == 0:
        # even polygons are screened through the CHSH scan at its argmax pair
        _check_size(n, MAX_SCAN_N, "CHSH scan")
        state = max_entangled(n)
        _, (i0, i1, j0, j1) = chsh_max_over_settings(state)
        meas_a = [dichotomic_measurement(state.model_a, i, tol=args.tol) for i in (i0, i1)]
        meas_b = [dichotomic_measurement(state.model_a, j, tol=args.tol) for j in (j0, j1)]
    else:
        _check_size(n, MAX_MODEL_N, "model size")
        k = 2 if k is None else k
        if k < 1:
            raise ValueError(f"settings = {k} is below the minimum 1")
        _check_size(k, MAX_SETTINGS, "certificate settings", "settings")
        state = max_entangled(n)
        meas_a = meas_b = ray_settings(state.model_a, k, tol=args.tol)

    if is_inner_product_state(state, args.tol).is_inner_product:
        cert = certificate_from_inner_product_state(state, meas_a, meas_b, args.tol)
        return cert.to_dict(args.tol), (f"verdict: {cert.verdict(args.tol)} "
                                        f"(min eigenvalue {cert.eigen_spectrum[0]:.3e})")
    report = q1_necessary_conditions(correlations_from_state(state, meas_a, meas_b),
                                     tol=args.tol)
    return {"gamma": None, "spectrum": None, **report.to_dict()}, (
        f"verdict: {report.verdict} "
        f"(CHSH {report.chsh_value:.6g} vs {report.chsh_bound:.6g}, "
        f"quadratic {report.uffink_value:.6g} vs {report.uffink_bound:.6g})")


def _cmd_selfdual(args: argparse.Namespace) -> tuple[dict, str]:
    n = _model_size(args.model)
    if n is None:
        model = house_mod.house_model()
    else:
        _check_size(n, MAX_SELFDUAL_N, "isomorphism search")
        model = polygon(n)
    report = self_duality(model, args.tol)
    witnesses = report.isomorphisms
    payload = {
        "model": model.name,
        "weak": report.weak,
        "strong": report.strong,
        "witnesses": [w.tolist() for w in witnesses],
        "strong_witness": None if report.witness is None else report.witness.tolist(),
        "witness_asymmetry": report.witness_asymmetry,
        "witness_min_eigenvalue": report.witness_min_eigenvalue,
        "candidates_tried": report.candidates,
        "candidates_rejected": report.rejected,
        "witness_rejected": report.witness_rejected,
    }
    return payload, (f"{model.name}: weakly self-dual: {'yes' if report.weak else 'no'} "
                     f"({len(witnesses)} isomorphisms); strongly self-dual: "
                     f"{'yes' if report.strong else 'no'}")


def _cmd_house(args: argparse.Namespace) -> tuple[dict, str]:
    value, table = house_mod.house_uffink_demo()
    chsh_value = chsh(table)
    report = q1_necessary_conditions(table, tol=args.tol)
    payload = {
        "uffink": value,
        "chsh": chsh_value,
        "tsirelson": TSIRELSON_BOUND,
        "verdict": report.verdict,
    }
    verdict = report.verdict
    if verdict == "not-in-Q1":
        verdict = "not in Q1 (quadratic bound exceeded, CHSH bound respected)"
    return payload, (f"quadratic correlator value: {value}\n"
                     f"CHSH value: {round(chsh_value, 12)} (Tsirelson {TSIRELSON_BOUND:.12g})\n"
                     f"verdict: {verdict}")


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help=f"numeric tolerance override (default {DEFAULT_TOL:g})")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``polybell`` parser, built on first use and kept; do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="polybell",
        description="Polygon and house models, Bell functionals, certificates.",
    )
    # --emit and --out name a file; run writes it
    parser.set_defaults(emit=None, out=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polygon", help="construct a polygon model")
    p.add_argument("--n", type=int, required=True)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--emit", metavar="PATH", help="write model JSON to a file")
    output.add_argument("--json", action="store_true", help="print model JSON to stdout")
    _add_tol(p)
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("chsh-max", help="maximal CHSH value over all settings")
    p.add_argument("--n", type=int, help="a single polygon size")
    p.add_argument("--n-from", type=int, help="first size of a range (default 3)")
    p.add_argument("--n-to", type=int, help="last size of a range (default 52)")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    output.add_argument("--json", action="store_true")
    _add_tol(p)
    p.set_defaults(func=_cmd_chsh_max)

    p = sub.add_parser("chained", help="chained Bell value with canonical settings")
    p.add_argument("--n", type=int, required=True, help="polygon size")
    p.add_argument("--N", type=int, required=True,
                   help=f"settings per side (at most {MAX_SETTINGS})")
    p.add_argument("--json", action="store_true")
    _add_tol(p)
    p.set_defaults(func=_cmd_chained)

    p = sub.add_parser("distill", help="split the two-setting table into box + classical parts")
    p.add_argument("--n", type=int, required=True, help="even polygon size")
    p.add_argument("--json", action="store_true")
    _add_tol(p)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("q1-cert", help="first-level certificate or necessary-condition screen")
    p.add_argument("--model", required=True, help="polygon:<n> or house")
    p.add_argument("--settings", type=int, default=None,
                   help="settings per side for an odd polygon (default 2, "
                        f"at most {MAX_SETTINGS})")
    p.add_argument("--json", action="store_true")
    _add_tol(p)
    p.set_defaults(func=_cmd_q1_cert)

    p = sub.add_parser("selfdual", help="weak/strong self-duality classification")
    p.add_argument("--model", required=True, help="polygon:<n> or house")
    p.add_argument("--json", action="store_true")
    _add_tol(p)
    p.set_defaults(func=_cmd_selfdual)

    p = sub.add_parser("house", help="house-model demonstrations")
    p.add_argument("action", nargs="?", default="demo", choices=["demo"])
    p.add_argument("--json", action="store_true")
    _add_tol(p)
    p.set_defaults(func=_cmd_house)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.tol = resolve_tol(args.tol)
        payload, text = args.func(args)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = args.emit if args.emit is not None else args.out
    if path is not None:
        # --emit writes what --json prints, --out the text
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write(fh, payload, text, args.emit is not None)
        except OSError as exc:
            print(f"error: cannot write {path!r}: {exc.strerror}", file=sys.stderr)
            return 1
        text = f"wrote {path}"
    _write(sys.stdout, payload, text, args.json)
    return 0


def main() -> None:
    sys.exit(run())
