"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fc-poisson --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  ``--short``
runs a reduced smoke version of the workload (one set-up, a small pool
and, on fc-poisson, a 1/8-width stack); its results are stored apart
from full ones and never replace them.

Every metric is printed with its unit and clock, followed by the
environment, and the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any correctness check failed.  It is also 1, with no
result printed, when ``repro`` does not import from this checkout's
``src/`` (an installed copy is not the program under test).  A full
record (environment, every metric, failure reasons, run details) is
written to ``perfbench/out/results/<mode>/`` (``--out`` moves it); traced
runs also write their spans to ``perfbench/out/traces/<mode>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# One BLAS thread, as the servers run one host thread: on a shared 2-CPU
# host a second BLAS thread competes with the main one, and it more than
# doubled the run-to-run spread of compress-fc's job and cold-start times.
# Set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402

# The benchmark measures the program of the checkout it sits in.  Where
# that checkout has no src/repro, an installed or otherwise importable
# copy must not stand in for it.
if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    sys.exit(f"run.py: repro was imported from {repro.__file__}, not from "
             f"{ROOT / 'src' / 'repro'}; the benchmark measures only its own checkout")

from repro.core import (  # noqa: E402
    BlockPermutedDiagonalMatrix,
    default_value_dtype,
    set_default_value_dtype,
)

from perfbench import catalog  # noqa: E402
from perfbench.workloads import VALUE_DTYPE, WORKLOAD_NAMES, run_workload  # noqa: E402

# The measured program stores values in one fixed dtype, whatever
# REPRO_VALUE_DTYPE the environment sets.
set_default_value_dtype(VALUE_DTYPE)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text(encoding="utf-8").strip()
            packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
            for line in packed.splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    probe = BlockPermutedDiagonalMatrix.random((8, 8), 2, rng=0)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "mode": "short" if args.short else "full",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": probe.resolved_backend(),
        "value_dtype": default_value_dtype(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="reduced smoke run, stored apart from full results")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for records, traces and scratch bundles")
    args = parser.parse_args(argv)
    env = environment(args)
    out = args.out

    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), env["mode"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end, per_layer = catalog.load()
    wanted = per_layer if args.trace else end_to_end
    units = {metric["name"]: metric["unit"] for metric in end_to_end + per_layer}
    tally = outcome.tally
    correct = tally.failed == 0
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        print(f"{args.workload:<14} {name:<26} {outcome.metrics[name]:>16.6f} "
              f"{unit:<7} {catalog.CLOCKS[name]}")
    print(f"requests/jobs attempted={tally.attempted} failed={tally.failed} "
          f"details={json.dumps(outcome.details)}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"env {json.dumps(env)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = out / "results" / env["mode"]
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "env": env,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "details": outcome.details,
        "metrics": {
            name: {"value": value, "unit": units[name], "clock": catalog.CLOCKS[name]}
            for name, value in outcome.metrics.items()
        },
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if outcome.tracers:
        traces = out / "traces" / env["mode"]
        traces.mkdir(parents=True, exist_ok=True)
        for index, tracer in enumerate(outcome.tracers):
            tracer.write(traces / f"{stem}-{index}.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": outcome.metrics[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
