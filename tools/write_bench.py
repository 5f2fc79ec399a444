"""Write a BENCH_<label>.json: the end-to-end numbers of this tree on this
machine, in one file next to the results table.

    python3 tools/write_bench.py --out BENCH_<label>.json --seconds 5

Run it from anywhere; it uses the repository it sits in. It does three
things, each in a child process:

- runs `exitsteal run-experiment --config configs/toy.cfg` with the BLAS
  thread variables pinned to 1, and keeps the stage wall times from the
  run's status.json, the child's peak RSS (`RUSAGE_CHILDREN`, read before
  any other child runs) and the rows of its reports.csv;
- runs `perfbench/run.py --workload <w> --seed 101 --seconds <seconds>
  --trace 0` for each workload, as perfbench runs (BLAS threads as the
  environment sets them), and keeps its final JSON line;
- records the machine facts: cpu count, platform, Python, numpy and its
  BLAS, and the BLAS thread variables of the environment.

The file has a schema version. `check` lists how an object departs from
the schema and checks no value: the numbers depend on the machine.
tests/test_bench_files.py applies it to every BENCH_*.json in the
repository root.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_VERSION = 1
CONFIG = "configs/toy.cfg"
SEED = 101  # perfbench --seed, recorded in the file
WORKLOADS = ("toy_pipeline", "timing_sweep", "wide_batch")
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# the layout of a BENCH file: a dict maps its keys to their layouts, a type
# or tuple of types admits those types, a one-item list is a list of items
# of that layout, and (dict, layout) a dict whose keys are free and whose
# values have the layout
_NUMBER = (int, float)
_PERFBENCH_LINE = {
    "correct": bool,
    "attempted": int,
    "failed": int,
    "metrics": (dict, {"value": _NUMBER, "unit": str}),
}
SCHEMA = {
    "schema_version": int,
    "machine": {
        "cpu_count": int,
        "platform": str,
        "python": str,
        "numpy": str,
        "blas": str,
        "blas_env": (dict, (str, type(None))),
    },
    "pipeline": {
        "config": str,
        "blas_threads": int,
        "stage_wall_s": (dict, _NUMBER),
        "peak_rss_mb": _NUMBER,
        "reports": [(dict, str)],
    },
    "perfbench": {
        "seed": int,
        "seconds": _NUMBER,
        "trace": int,
        "workloads": (dict, _PERFBENCH_LINE),
    },
}


def check(obj, layout=SCHEMA, where="BENCH") -> list[str]:
    """How `obj` departs from `layout` (see SCHEMA), one line per place;
    empty when it fits."""
    if isinstance(layout, dict):
        if not isinstance(obj, dict):
            return [f"{where} must be an object"]
        odd = sorted(set(obj) ^ set(layout))
        problems = [f"{where} {'lacks' if k in layout else 'has undeclared'} {k!r}" for k in odd]
        for key in sorted(set(obj) & set(layout)):
            problems += check(obj[key], layout[key], f"{where}.{key}")
        return problems
    if isinstance(layout, list):
        if not isinstance(obj, list):
            return [f"{where} must be a list"]
        return [p for i, item in enumerate(obj) for p in check(item, layout[0], f"{where}[{i}]")]
    if isinstance(layout, tuple) and layout[:1] == (dict,):
        if not isinstance(obj, dict):
            return [f"{where} must be an object"]
        return [p for key, value in obj.items() for p in check(value, layout[1], f"{where}.{key}")]
    kinds = layout if isinstance(layout, tuple) else (layout,)
    # a bool is an int to isinstance; here it is only a bool
    if isinstance(obj, bool) != (bool in kinds) or not isinstance(obj, kinds):
        names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        return [f"{where} must be {names}, got {obj!r}"]
    return []


def _blas() -> str:
    """numpy's BLAS, by name and version."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def machine() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count() or 0,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def pipeline() -> dict:
    """One BLAS-pinned `exitsteal run-experiment` on configs/toy.cfg."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    run_dir = tempfile.mkdtemp(prefix="exitsteal-bench-")
    try:
        command = [sys.executable, "-m", "exitsteal", "run-experiment",
                   "--config", os.path.join(ROOT, CONFIG), "--out", run_dir]
        subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        with open(os.path.join(run_dir, "status.json")) as fh:
            stages = json.load(fh)["stages"]
        with open(os.path.join(run_dir, "reports.csv"), newline="") as fh:
            reports = list(csv.DictReader(fh))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "config": CONFIG,
        "blas_threads": 1,
        "stage_wall_s": {name: stage["wall_time_s"] for name, stage in stages.items()},
        "peak_rss_mb": peak,
        "reports": reports,
    }


def perfbench(seconds: float) -> dict:
    """The final JSON line of perfbench/run.py for each workload."""
    lines = {}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
                   "--trace", "0"]
        out = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        lines[workload] = json.loads(out.strip().splitlines()[-1])
    return {"seed": SEED, "seconds": seconds, "trace": 0, "workloads": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the file to write, BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=5.0, help="perfbench --seconds")
    args = parser.parse_args(argv)
    bench = {
        "schema_version": SCHEMA_VERSION,
        "machine": machine(),
        "pipeline": pipeline(),  # first: RUSAGE_CHILDREN must see only its child
        "perfbench": perfbench(args.seconds),
    }
    problems = check(bench)
    if problems:
        raise SystemExit("write_bench: " + "; ".join(problems))
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
