"""The benchmark's own tests: tiny-size runs of every workload, traced and
untraced, plus the reference check and the no-library failure mode.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

_SMALL_DATA = {
    "dataset.n_train": "400",
    "dataset.n_test": "200",
    "dataset.n_iid_pool": "200",
    "unrelated.n": "400",
    "attack.n_iid": "100",
    "attack.n_unrelated": "300",
    "victim.epochs": "6",
    "attack.epochs": "2",
}
TINY = {
    "toy_pipeline": {**_SMALL_DATA, "dataset.n_calibration": "80", "attack.n_search": "40"},
    "wide_batch": {**_SMALL_DATA, "dataset.n_calibration": "80", "attack.n_search": "40"},
    "timing_sweep": {**_SMALL_DATA, "dataset.n_calibration": "200"},
}

_runs: dict = {}


def tiny_run(workload: str, trace: bool, reference: str | None = None) -> dict:
    key = (workload, trace, reference)
    if key not in _runs:
        _runs[key] = run.measure(
            workload,
            workloads.DEFAULT_SEED,
            0.0,
            trace,
            extra_overrides=TINY[workload],
            reference=reference,
        )
    return _runs[key]


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == spec.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    setup = next(m for m in on_disk["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in on_disk["end_to_end"])
    every = on_disk["end_to_end"] + on_disk["per_layer"]
    assert all(m["better"] in ("higher", "lower") for m in every)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    result = tiny_run(workload, trace)["result"]
    assert result["correct"], tiny_run(workload, trace)["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        table = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        # label_acc may be 0 at tiny sizes, where the victim exits late
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_span_self_times_are_bounded(workload):
    traced = tiny_run(workload, True)
    tracer = traced["tracer"]
    assert tracer.spans
    first = min(s[1] for s in tracer.spans)
    last = max(s[2] for s in tracer.spans)
    covered = last - first
    child = [0.0] * len(tracer.spans)
    for _, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    own = [(end - start) - c for (_, start, end, _), c in zip(tracer.spans, child)]
    assert min(own) >= -1e-9
    # self times partition the time the outermost spans cover, so their sum
    # cannot exceed it
    assert sum(own) <= covered + 1e-6
    assert sum(tracer.self_times().values()) == pytest.approx(sum(own))
    assert traced["result"]["metrics"]["trace.wall_s"]["value"] <= covered


def test_corrupted_reference_is_a_failure(tmp_path):
    clean = tiny_run("timing_sweep", False)
    view = run.reference_view(clean["outputs"], pipeline=False)
    good = {"workload": "timing_sweep", "seed": 101, "tolerance": 0.0, "outputs": view}
    bad = copy.deepcopy(good)
    level = next(iter(bad["outputs"]["levels"].values()))
    level["boundaries"][0] = level["boundaries"][0] * (1 + 1e-12)
    for name, ref in (("good", good), ("bad", bad)):
        with open(tmp_path / f"{name}.json", "w") as fh:
            json.dump(ref, fh)
    ok = tiny_run("timing_sweep", False, reference=str(tmp_path / "good.json"))["result"]
    assert ok["correct"] and ok["failed"] == 0
    broken = tiny_run("timing_sweep", False, reference=str(tmp_path / "bad.json"))
    assert not broken["result"]["correct"] and broken["result"]["failed"] == 1
    assert "reference mismatch: levels" in broken["errors"][0]


def test_pipeline_reference_mismatch_counts_once_per_output():
    outputs = tiny_run("toy_pipeline", False)["outputs"]
    view = run.reference_view(outputs, pipeline=True)
    ref = {"tolerance": 0.0, "outputs": copy.deepcopy(view)}
    ops = workloads.Ops()
    run.check_reference(view, ref, ops)
    assert (ops.attempted, ops.failed) == (4, 0)
    ref["outputs"]["thresholds"]["ours"][0] += 1e-9
    ref["outputs"]["reports"][2][2] += 1e-9
    ops = workloads.Ops()
    run.check_reference(view, ref, ops)
    assert ops.failed == 2
    # within a stated tolerance the same differences pass
    ref["tolerance"] = 1e-6
    ops = workloads.Ops()
    run.check_reference(view, ref, ops)
    assert ops.failed == 0


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_skipped_stage_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["toy_pipeline"]
    streams = workloads.seed_streams(workloads.DEFAULT_SEED)
    overrides = {**wl.overrides, **streams, **TINY["toy_pipeline"]}
    ops = workloads.Ops()
    state = wl.setup(overrides, tmp_path, ops)
    wl.rep(state, tmp_path, ops)
    assert ops.failed == 0
    # a second repetition in the same directory resumes: every stage skips
    wl.rep(state, tmp_path, ops)
    assert ops.failed == len(spec.STAGES)


def test_a_raising_operation_is_counted_and_ends_the_run():
    bad = {**TINY["toy_pipeline"], "attack.n_search": "1000"}  # > n_calibration
    run_ = run.measure("toy_pipeline", 7, 0.0, False, extra_overrides=bad)
    assert not run_["result"]["correct"]
    assert run_["result"]["failed"] == 1 and run_["result"]["attempted"] == 1
    assert "ContractError" in run_["errors"][0]
