"""Trace the pipeline's stages in one process: time, memory and page faults
per stage, over several passes.

    python3 tools/trace_stages.py --workload wide_batch --passes 4
    OPENBLAS_NUM_THREADS=1 python3 tools/trace_stages.py --workload wide_batch --tracemalloc

Run it from anywhere; it uses the repository it sits in. The config is
configs/toy.cfg with a perfbench workload's overrides
(`perfbench/workloads.py` `WORKLOADS[name].overrides`), then perfbench's
seed streams at its default seed (`seed_streams(DEFAULT_SEED)`), as
perfbench's own runs build it. Each pass runs every stage of
`experiment.STAGE_ORDER` through `run_stage` in a fresh run directory, as
perfbench's pipeline workloads do, and prints one JSON line per stage and
pass:

- `wall_s`: the stage's wall seconds;
- `rss_mib`: the process's current resident set (VmRSS) after the stage;
- `maxrss_mib`: its high-water mark (VmHWM) after the stage, from the same
  read of /proc/self/status, so it never reads below `rss_mib` (the kernel
  reports VmHWM as the larger of its recorded mark and that VmRSS);
- `minflt`: the minor page faults the stage took (`ru_minflt` delta);
- with `--tracemalloc`, `traced_peak_mib`: the peak of the memory
  tracemalloc traced during the stage (numpy's buffers included). Tracing
  slows every allocation, so `wall_s` is then no timing.

The BLAS thread count is the environment's: set OPENBLAS_NUM_THREADS
before the run to pin it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "toy.cfg")
MIB = 1024.0 * 1024.0

for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import workloads  # noqa: E402  (perfbench/, on the path above)


def _memory_mib() -> tuple[float | None, float | None]:
    """(VmRSS, VmHWM) of this process in MiB, from one read of
    /proc/self/status; Nones where /proc is not there."""
    found = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(("VmRSS:", "VmHWM:")):
                    found[line[:5]] = int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return found.get("VmRSS"), found.get("VmHWM")


def trace(cfg, passes: int, traced: bool = False):
    """Run every stage of the pipeline on `cfg` in a fresh run directory,
    `passes` times, yielding one record (a dict) per stage and pass."""
    from exitsteal.harness import experiment

    for n in range(1, passes + 1):
        with tempfile.TemporaryDirectory(prefix="exitsteal-trace-") as run_dir:
            for stage in experiment.STAGE_ORDER:
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                if traced:
                    tracemalloc.start()
                t0 = time.perf_counter()
                try:
                    experiment.run_stage(stage, cfg, run_dir)
                    wall = time.perf_counter() - t0
                    peak = tracemalloc.get_traced_memory()[1] if traced else None
                finally:
                    if traced:
                        tracemalloc.stop()
                rss, maxrss = _memory_mib()
                record = {
                    "pass": n,
                    "stage": stage,
                    "wall_s": round(wall, 4),
                    "rss_mib": rss,
                    "maxrss_mib": maxrss,
                    "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt,
                }
                if traced:
                    record["traced_peak_mib"] = round(peak / MIB, 3)
                yield record


def main(argv=None) -> int:
    from exitsteal.harness import load_config

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS),
                        help="take this perfbench workload's overrides")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--tracemalloc", action="store_true",
                        help="also record each stage's tracemalloc peak")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    cfg = load_config(CONFIG, {
        **workloads.WORKLOADS[args.workload].overrides,
        **workloads.seed_streams(workloads.DEFAULT_SEED),
    })
    for record in trace(cfg, args.passes, args.tracemalloc):
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
