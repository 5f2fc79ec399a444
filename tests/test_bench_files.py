"""Every committed BENCH_*.json fits the layout tools/write_bench.py
writes. No value is checked: the numbers depend on the machine."""

import glob
import json
import os

import pytest

from _utils import load_tool

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
write_bench = load_tool("write_bench")


def a_bench() -> dict:
    """The smallest object that fits the schema."""
    return {
        "schema_version": write_bench.SCHEMA_VERSION,
        "machine": {
            "cpu_count": 2,
            "platform": "Linux",
            "python": "3.11.7",
            "numpy": "2.4.6",
            "blas": "scipy-openblas 0.3.31",
            "blas_env": {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "1"},
        },
        "pipeline": {
            "config": "configs/toy.cfg",
            "blas_threads": 1,
            "stage_wall_s": {"dataset": 0.02},
            "peak_rss_mb": 47.6,
            "reports": [{"model": "victim", "acc": "0.9"}],
        },
        "perfbench": {
            "seed": 101,
            "seconds": 5.0,
            "trace": 0,
            "workloads": {
                "wide_batch": {
                    "correct": True,
                    "attempted": 31,
                    "failed": 0,
                    "metrics": {"wall_s": {"value": 4.8, "unit": "s"}},
                }
            },
        },
    }


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_fits_the_schema(path):
    with open(path) as fh:
        bench = json.load(fh)
    assert write_bench.check(bench) == []
    assert bench["schema_version"] == write_bench.SCHEMA_VERSION


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda b: b.pop("machine"), "BENCH lacks 'machine'"),
        (lambda b: b.update(extra=1), "BENCH has undeclared 'extra'"),
        (
            lambda b: b["pipeline"].update(peak_rss_mb="47"),
            "BENCH.pipeline.peak_rss_mb must be int or float, got '47'",
        ),
        (
            lambda b: b["pipeline"]["reports"].append([]),
            "BENCH.pipeline.reports[1] must be an object",
        ),
        (
            lambda b: b["perfbench"]["workloads"]["wide_batch"].update(correct=1),
            "BENCH.perfbench.workloads.wide_batch.correct must be bool, got 1",
        ),
        (
            lambda b: b["perfbench"].update(trace=True),
            "BENCH.perfbench.trace must be int, got True",
        ),
        (
            lambda b: b["machine"]["blas_env"].update(OMP_NUM_THREADS=1),
            "BENCH.machine.blas_env.OMP_NUM_THREADS must be str or null, got 1",
        ),
    ],
)
def test_schema_check_names_each_departure(edit, problem):
    bench = a_bench()
    assert write_bench.check(bench) == []
    edit(bench)
    assert write_bench.check(bench) == [problem]
