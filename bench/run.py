"""polybell benchmark launcher.

Run from the root of a checkout:

    python3 bench/run.py --workload cert-pairs --seed 1 --seconds 25 --trace 0

Workloads: ``chsh-scan``, ``cert-pairs``, ``selfdual-sweep``, ``cli-mix``
(see ``workloads.py``). Each run starts fresh worker processes with the
checkout's ``src`` on the import path and BLAS/OpenMP pinned to one thread.
With ``--trace 0`` the worker is set up ``SETUP_REPEATS`` times in all and
``setup_s`` is the median; the middle worker also measures. With
``--trace 1`` one worker measures the per-layer metrics. Item times and
``setup_s`` are scaled to a reference host speed; ``worker.py`` says how and
why.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
seed, the environment and the run's details. ``--smoke`` runs reduced item
lists for the benchmark's own tests. The exit code is 0 when a result was
printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("chsh-scan", "cert-pairs", "selfdual-sweep", "cli-mix")
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    # Compile the library's sources at every start, whatever the caller's
    # setting, so that ``setup_s`` always measures the same work.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def start_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run one worker to completion and return the JSON on its last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *(["--smoke"] if args.smoke else []), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {name: "1" for name in THREAD_VARIABLES},
        "bytecode_cache": "off",
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced item lists and a single set-up")
    args = parser.parse_args()

    if not (SRC / "polybell" / "__init__.py").is_file():
        print(f"error: no polybell sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        info = {"seed": args.seed, "workload": args.workload, "trace": args.trace,
                "seconds": args.seconds, "smoke": args.smoke, **environment()}
        if args.trace:
            out = start_worker(args, deadline)
        else:
            repeats = 1 if args.smoke else SETUP_REPEATS
            # Set-ups on both sides of the measuring run, so that the median
            # spans the same stretch of host speed as ``setup_scale``.
            before = [start_worker(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(repeats // 2)]
            out = start_worker(args, deadline)
            after = [start_worker(args, deadline, "--setup-only")["setup_s"]
                     for _ in range(repeats - 1 - len(before))]
            setups = before + [out["metrics"]["setup_s"]["value"]] + after
            out["metrics"]["setup_s"]["value"] = (statistics.median(setups)
                                                  * out["info"]["setup_scale"])
            info["raw_setup_s_samples"] = setups
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError, OSError,
            metadata.PackageNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info.update(out.pop("info"))
    print(json.dumps({"info": info}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
