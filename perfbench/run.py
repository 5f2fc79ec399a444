"""exitsteal benchmark: one command that runs a workload, checks its
outputs, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload toy_pipeline --seed 101 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ./src and
writes only under ./.perfbench (scratch run directories, result files,
spans). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 sets the workload up three times (set-up time is the median) and
then repeats the timed part until --seconds have passed (the last
repetition is finished, so a run measures up to one repetition more); the
end-to-end metrics are medians over repetitions. --trace 1 runs set-up and
one repetition untraced to warm up, then again with the public library
functions listed in perfbench/layers.py wrapped in spans, then one more
untraced repetition; it reports the per-layer metrics of the traced pass and
the tracing overhead (traced minus untraced repetition time).

At --seed 101 (the seed streams of configs/toy.cfg) the outputs are compared
with perfbench/reference/<workload>.json, within the tolerance stored there;
at every seed the invariants of the outputs are checked. A mismatch counts
as a failed operation and is printed. `--record-reference` rewrites the
reference from this run (default seed only).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

import spec  # noqa: E402  (perfbench/ is on sys.path as the script's directory)


def _import_library() -> None:
    """Import the library from ./src."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "exitsteal")):
        raise SystemExit(f"perfbench: no exitsteal package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads  # noqa: F401


# ---------------------------------------------------------------------------
# provenance


def git_commit(root: str) -> str:
    """HEAD of the repository the benchmark sits in, read from .git without
    running git; 'unknown' in an exported tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, streams: dict) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "workload": workload,
        "seed": seed,
        "seed_streams": streams,
    }


# ---------------------------------------------------------------------------
# reference outputs


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.json")


def reference_view(out: dict, pipeline: bool) -> dict:
    """The outputs the reference pins down."""
    if pipeline:
        keys = ("reports", "thresholds", "boundaries", "label_acc")
        return {k: out[k] for k in keys}
    return {
        "levels": {
            level: {k: row[k] for k in ("boundaries", "exit_count", "label_acc")}
            for level, row in out["levels"].items()
        }
    }


def _mismatches(got, want, tol: float, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: {got!r} does not have the keys {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], tol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [
            m
            for i, (g, w) in enumerate(zip(got, want))
            for m in _mismatches(g, w, tol, f"{path}[{i}]")
        ]
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers) and not isinstance(want, bool):
        ok = got == want if tol == 0.0 else abs(got - want) <= tol
        return [] if ok else [f"{path}: {got!r} != reference {want!r} (tolerance {tol})"]
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]


def check_reference(view: dict, ref: dict, ops) -> None:
    """One operation per top-level output; tolerance 0 means bit for bit."""
    tol = float(ref["tolerance"])
    for key, want in ref["outputs"].items():
        problems = _mismatches(view.get(key), want, tol, key)
        ops.check(not problems, "reference mismatch: " + "; ".join(problems[:5]))


# ---------------------------------------------------------------------------
# the run


def _median(values):
    return float(statistics.median(values))


def _fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _results_table(out: dict, pipeline: bool) -> list:
    if pipeline:
        columns = ("model", "acc", "clo", "cc_gflops", "cc_ratio")
        return [dict(zip(columns, r)) for r in out["reports"]]
    return [
        {"noise_over_gap": float(level), "exit_count": r["exit_count"], "label_acc": r["label_acc"]}
        for level, r in out["levels"].items()
    ]


def _label_acc(out: dict, pipeline: bool) -> float:
    if pipeline:
        return out["label_acc"]
    return statistics.fmean(row["label_acc"] for row in out["levels"].values())


def _one_pass(wl, overrides, scratch, ops, tag: str):
    """One set-up and one repetition; returns (state, rep dir, rep result,
    repetition seconds)."""
    state = wl.setup(overrides, _fresh_dir(scratch, f"setup-{tag}"), ops)
    rep_dir = _fresh_dir(scratch, f"rep-{tag}")
    t0 = time.perf_counter()
    result = wl.rep(state, rep_dir, ops)
    return state, rep_dir, result, time.perf_counter() - t0


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    extra_overrides: dict | None = None,
    reference: str | None = None,
    import_s: float = 0.0,
) -> dict:
    """Run one workload; returns {'result': final JSON object, 'outputs',
    'provenance', 'table', 'tracer'}. `reference` overrides the reference
    file; by default it is used at the default seed without overrides."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    streams = workloads.seed_streams(seed)
    overrides = {**wl.overrides, **streams, **(extra_overrides or {})}
    if reference is None and seed == workloads.DEFAULT_SEED and not extra_overrides:
        reference = reference_path(workload)
    # an empty reference path means: do not compare (used while recording)
    ops = workloads.Ops()
    scratch = _fresh_dir(OUT_DIR, f"run-{workload}-{seed}-{os.getpid()}")
    tracer = None
    last = None
    try:
        if trace:
            metrics, last, tracer = _traced(wl, overrides, scratch, ops)
        else:
            metrics, last = _untraced(wl, overrides, scratch, ops, seconds, import_s)
    except Exception as exc:  # a failed operation ends the run; it is already counted
        if not ops.errors:
            ops.fail(f"{type(exc).__name__}: {exc}")
        metrics = {}

    outputs = None
    if last is not None:
        state, rep_dir, rep_result = last
        try:
            outputs = wl.outputs(state, rep_dir, rep_result)
        except Exception as exc:
            ops.fail(f"reading outputs: {type(exc).__name__}: {exc}")
    if outputs is not None:
        wl.checks(outputs, ops)
        if reference:
            try:
                with open(reference) as fh:
                    ref = json.load(fh)
            except (OSError, ValueError) as exc:
                ops.fail(f"reference {reference}: {exc}")
            else:
                check_reference(reference_view(outputs, wl.pipeline), ref, ops)
        if trace:
            metrics.update(_output_layer_metrics(outputs, wl.pipeline))
        else:
            metrics["label_acc"] = _label_acc(outputs, wl.pipeline)
    shutil.rmtree(scratch, ignore_errors=True)

    names = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    units = {m[0]: m[1] for m in spec.PER_LAYER + spec.END_TO_END}
    missing = [n for n in names if n not in metrics]
    if missing and not ops.failed:
        ops.fail(f"metrics not measured: {missing}")
    result = {
        "correct": ops.failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    return {
        "result": result,
        "outputs": outputs,
        "provenance": provenance(workload, seed, streams),
        "table": _results_table(outputs, wl.pipeline) if outputs else [],
        "tracer": tracer,
        "errors": ops.errors,
    }


def _untraced(wl, overrides, scratch, ops, seconds, import_s):
    setups = []
    state = None
    for i in range(SETUP_REPS):
        setup_dir = _fresh_dir(scratch, f"setup-{i}")
        t0 = time.perf_counter()
        state = wl.setup(overrides, setup_dir, ops)
        setups.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPS:
            shutil.rmtree(setup_dir)
    walls = []
    started = time.perf_counter()
    last = None
    while True:
        rep_dir = _fresh_dir(scratch, f"rep-{len(walls)}")
        if last is not None:
            shutil.rmtree(last[1], ignore_errors=True)
        t0 = time.perf_counter()
        result = wl.rep(state, rep_dir, ops)
        walls.append(time.perf_counter() - t0)
        last = (state, rep_dir, result)
        if time.perf_counter() - started >= seconds:
            break
    metrics = {
        "wall_s": _median(walls),
        "setup_s": import_s + _median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"repetitions: {len(walls)}  wall_s each: {walls}  set-ups: {setups}", flush=True)
    if wl.pipeline:
        print("stage seconds, last repetition: " + json.dumps(last[2]), flush=True)
    return metrics, last


def _traced(wl, overrides, scratch, ops):
    import layers
    import tracing

    # the first pass warms caches, the allocator and BLAS threads; the
    # overhead compares the traced pass with an untraced repetition after it
    warm_state, *_ = _one_pass(wl, overrides, scratch, ops, "warm-up")
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        state, rep_dir, result, traced_wall = _one_pass(wl, overrides, scratch, ops, "traced")
    finally:
        tracer.uninstall()
    untraced_dir = _fresh_dir(scratch, "rep-untraced")
    t0 = time.perf_counter()
    wl.rep(warm_state, untraced_dir, ops)
    untraced_wall = time.perf_counter() - t0
    tracer.measure_allocations()
    metrics = layers.metrics(tracer)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, (state, rep_dir, result), tracer


def _output_layer_metrics(out: dict, pipeline: bool) -> dict:
    m = {f"changepoint.label_acc.nog{lv}": 0.0 for lv in spec.NOISE_LEVELS}
    m.update({f"changepoint.exit_count.nog{lv}": 0 for lv in spec.NOISE_LEVELS})
    if pipeline:
        rows = {r[0]: r for r in out["reports"]}
        m.update(
            {
                "search.agreement": out["search_agreement"],
                "metrics.clo_ours": rows["ours"][2],
                "metrics.acc_ours": rows["ours"][1],
                "metrics.clo_no_strategy_loss": rows["no_strategy_loss"][2],
                "changepoint.exit_count_err": abs(out["exit_count"] - out["victim_exits"]),
            }
        )
        return m
    for level, row in out["levels"].items():
        m[f"changepoint.label_acc.nog{level}"] = row["label_acc"]
        m[f"changepoint.exit_count.nog{level}"] = row["exit_count"]
    m["changepoint.exit_count_err"] = sum(
        abs(row["exit_count"] - out["victim_exits"]) for row in out["levels"].values()
    )
    m.update({"search.agreement": 0.0, "metrics.clo_ours": 0.0, "metrics.acc_ours": 0.0,
              "metrics.clo_no_strategy_loss": 0.0})
    return m


# ---------------------------------------------------------------------------


def _print_report(run: dict) -> None:
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    for row in run["table"]:
        print("result " + json.dumps(row))
    better = {m[0]: m[2] for m in spec.PER_LAYER + spec.END_TO_END}
    for name, m in run["result"]["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']} ({better[name]} is better)")


def _write_result(run: dict, workload: str, seed: int, trace: bool) -> None:
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}")
    record = {k: run[k] for k in ("result", "provenance", "table", "errors")}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if run["tracer"] is not None:
        run["tracer"].write(stem + ".spans.json")


def _record_reference(run: dict, workload: str) -> None:
    import workloads

    ref = {
        "workload": workload,
        "seed": workloads.DEFAULT_SEED,
        "tolerance": 0.0,
        "outputs": reference_view(run["outputs"], workloads.WORKLOADS[workload].pipeline),
    }
    with open(reference_path(workload), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {reference_path(workload)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    _import_library()
    import_s = time.perf_counter() - _START
    import workloads

    if args.record_reference and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"references are recorded at --seed {workloads.DEFAULT_SEED}")
    os.makedirs(OUT_DIR, exist_ok=True)
    run = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s=import_s,
        reference="" if args.record_reference else None,
    )
    if args.record_reference and run["outputs"] is not None:
        _record_reference(run, args.workload)
    _print_report(run)
    _write_result(run, args.workload, args.seed, bool(args.trace))
    print(json.dumps(run["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
