"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps library
functions and methods by name. Installing its hooks must find every name,
and removing them must leave the library exactly as it was."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def library_attributes():
    """(module, attribute[, class attribute]) -> object, over every loaded
    exitsteal module and the classes defined in it."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("exitsteal"):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def changed(before, after):
    return {key for key in before if after.get(key) is not before[key]}


def test_benchmark_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import tracing

    before = library_attributes()
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        during = changed(before, library_attributes())
    finally:
        tracer.uninstall()
    for key in (
        ("exitsteal.search", "build_calibration_points"),
        ("exitsteal.search", "candidate_thresholds"),
        ("exitsteal.search", "search_strategy"),
        ("exitsteal.search", "evaluate_strategy"),
        ("exitsteal.victimlab", "query_timed_many"),
        ("exitsteal.changepoint", "assign_exits"),
        ("exitsteal.attack", "RecordBatch", "from_records"),
        ("exitsteal.multiexit", "MultiExitNet", "forward_exit_logits"),
        ("exitsteal.harness.experiment", "search_strategy"),
    ):
        assert key in during, key
    assert changed(before, library_attributes()) == set()
