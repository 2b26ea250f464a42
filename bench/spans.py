"""Per-layer spans around calls into the library's public functions.

The wrappers live in the benchmark, not in the library: ``install`` replaces
each listed function wherever a ``polybell`` module (or the package
namespace) binds it, and the validating ``__post_init__`` of the listed
classes, so calls across modules get spans too. ``cli.run`` gets one span
per subcommand, named after its first argument. A name that no longer
exists is skipped and reports zero calls. ``Tracer.uninstall`` puts every
original back.

A span's self time is its duration minus the durations of the spans it
directly encloses. Counts and self times are aggregated in memory by span
name; ``top_s`` is the total duration of outermost spans, which the worker
subtracts from the pass time to get the time no span covers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

# module -> public names; classes are wrapped at ``__post_init__``.
TARGETS: dict[str, tuple[str, ...]] = {
    "core": ("Measurement", "dichotomic_measurement", "models_similar"),
    "polygon": ("polygon", "max_entangled"),
    "bipartite": ("is_inner_product_state", "in_max_tensor_product",
                  "push_local_map", "pull_back_measurement"),
    "correlations": ("CorrelationTable", "correlations_from_state", "ray_settings",
                     "chsh_max_over_settings", "distill_decompose"),
    "q1": ("certificate_from_inner_product_state", "verify_delta_decomposition",
           "certificate_via_pushforward", "q1_necessary_conditions"),
    "selfdual": ("find_cone_isomorphisms", "is_strongly_self_dual",
                 "state_from_isomorphism"),
    "house": ("house_uffink_demo",),
    "cli": (),
}
CLI_SUBCOMMANDS = ("polygon", "chsh-max", "chained", "distill", "q1-cert",
                   "selfdual", "house")


def span_names() -> list[tuple[str, str]]:
    """Every (module, span name) pair the trace reports, in report order."""
    names = [(mod, f"{mod}.{name}") for mod, names in TARGETS.items() for name in names]
    names += [("cli", f"cli.{sub}") for sub in CLI_SUBCOMMANDS]
    return names


class Tracer:
    """Span counts and self times for one pass; wrappers while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._child_s: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.top_s = 0.0

    def _wrap(self, fn: Callable, span: str | None) -> Callable:
        """Wrap ``fn`` in a span; ``None`` names it after the CLI subcommand."""
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                name = span or _cli_span_name(*args, **kwargs)
                calls[name] += 1
                self_s[name] += duration - child_s.pop()
                if child_s:
                    child_s[-1] += duration
                else:
                    self.top_s += duration

        return wrapper

    def _rebind(self, original: object, wrapper: object, modules: list) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("spans are already installed")
        package = importlib.import_module("polybell")
        for mod in TARGETS:
            importlib.import_module(f"polybell.{mod}")
        modules = [package] + [m for key, m in sorted(sys.modules.items())
                               if key.startswith("polybell.")]
        for mod, names in TARGETS.items():
            defining = sys.modules[f"polybell.{mod}"]
            for name in names:
                target = getattr(defining, name, None)
                span = f"{mod}.{name}"
                if isinstance(target, type):
                    post_init = target.__dict__.get("__post_init__")
                    if post_init is not None:
                        self._restore.append((target, "__post_init__", post_init))
                        setattr(target, "__post_init__", self._wrap(post_init, span))
                elif callable(target):
                    self._rebind(target, self._wrap(target, span), modules)
        run = getattr(sys.modules["polybell.cli"], "run", None)
        if run is not None:
            self._rebind(run, self._wrap(run, None), modules)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _cli_span_name(argv=None, *args, **kwargs) -> str:
    return f"cli.{argv[0]}" if argv else "cli.run"
