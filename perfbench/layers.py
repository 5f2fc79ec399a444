"""Which library functions a traced run wraps, and how the per-layer
metrics of perfbench/spec.py are derived from the spans and counters."""

from __future__ import annotations

import math
from collections import Counter

from exitsteal import attack, changepoint, multiexit, numerics, search, victimlab
from exitsteal import metrics as xmetrics
from exitsteal.harness import config as hconfig
from exitsteal.harness import datasets, experiment

from spec import OPS, LAYERS, STAGES

_GENERATORS = (
    "generate_tiered_dataset",
    "generate_unrelated_blobs",
    "generate_unrelated_uniform",
)


def install(tr) -> None:
    """Wrap every measured function in the tracer `tr`."""
    pending_candidates: list[int] = []

    def candidates_hook(result, args):
        pending_candidates.append(len(result))

    def search_hook(result, args):
        tr.counts["search.candidate_product"] += math.prod(pending_candidates)
        pending_candidates.clear()

    def rows_hook(name):
        def hook(result, args):
            tr.counts[name] += len(args[1])

        return hook

    def detect_hook(result, args):
        key = "changepoint.detect.n_max"
        tr.maxima[key] = max(tr.maxima[key], len(args[0]))

    def span(module, attr, **kw):
        layer = module.__name__.rsplit(".", 1)[-1]
        tr.install(module, attr, lambda f: tr.span(f"{layer}.{attr}", f, layer=layer, **kw))

    def stage_name(args):
        return f"experiment.stage.{args[0]}"

    tr.install(experiment, "run_stage", lambda f: tr.span("experiment.stage", f, label=stage_name))
    span(hconfig, "load_config")
    for attr in _GENERATORS:
        span(datasets, attr)
    for op in OPS:
        if op != "kl_div":
            tr.install(numerics, op, lambda f, op=op: tr.count(f"numerics.op.{op}", f))
    tr.install(
        numerics, "kl_div", lambda f: tr.span("numerics.kl_div", tr.count("numerics.op.kl_div", f))
    )
    span(numerics, "grad")
    tr.install_method(
        multiexit.MultiExitNet,
        "forward_exit_logits",
        lambda f: tr.span("numerics.forward", f),
    )
    span(multiexit, "cascade", hook=rows_hook("multiexit.cascade_rows"))
    span(multiexit, "forward_all_exits")
    span(multiexit, "save_checkpoint")
    span(multiexit, "load_checkpoint")
    span(victimlab, "train_victim", training=True)
    span(victimlab, "query_timed_many", hook=rows_hook("victimlab.query_rows"))
    span(victimlab, "select_traditional_strategy")
    span(attack, "train_substitute", training=True)
    span(attack, "train_baseline")
    span(attack, "build_query_set")
    for attr in ("from_records", "subset"):
        tr.install_method(
            attack.RecordBatch, attr, lambda f, attr=attr: tr.span(f"attack.RecordBatch.{attr}", f)
        )
    span(search, "build_calibration_points")
    span(search, "candidate_thresholds", hook=candidates_hook)
    span(search, "search_strategy", alloc=True, hook=search_hook)
    span(search, "evaluate_strategy")
    span(changepoint, "detect_changepoints", alloc=True, hook=detect_hook)
    span(changepoint, "assign_exits")
    span(xmetrics, "make_report")


def metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced set-up plus one traced repetition,
    except those read from the outputs (quality and per-level labels)."""
    total = tracer.totals()
    own = tracer.self_times()
    calls = Counter(s[0] for s in tracer.spans)
    c = tracer.counts
    m = {f"experiment.stage.{s}_s": total[f"experiment.stage.{s}"] for s in STAGES}
    steps = calls["numerics.grad"]
    m.update(
        {
            "numerics.grad_s": total["numerics.grad"],
            "numerics.forward_s": total["numerics.forward"],
            "numerics.grad.calls": steps,
            "numerics.ops_per_step": c["numerics.train_ops"] / steps if steps else 0.0,
            "numerics.kl_div_s": total["numerics.kl_div"],
        }
    )
    m.update({f"numerics.op.{op}.calls": c[f"numerics.op.{op}"] for op in OPS})
    m.update(
        {
            "attack.train_substitute.self_s": own["attack.train_substitute"],
            "attack.record_batch_s": total["attack.RecordBatch.from_records"]
            + total["attack.RecordBatch.subset"],
            "victimlab.train_victim.self_s": own["victimlab.train_victim"],
            "search.points_build_s": total["search.build_calibration_points"],
            "search.candidates_s": total["search.candidate_thresholds"],
            "search.traversal_s": own["search.search_strategy"],
            "search.candidate_product": c["search.candidate_product"],
            "search.evaluate_strategy_s": total["search.evaluate_strategy"],
            "search.select_traditional_s": total["victimlab.select_traditional_strategy"],
            "search.peak_alloc_mb": tracer.maxima["search.search_strategy.peak_alloc_mb"],
            "changepoint.detect_s": total["changepoint.detect_changepoints"],
            "changepoint.detect.calls": calls["changepoint.detect_changepoints"],
            "changepoint.detect.n_max": tracer.maxima["changepoint.detect.n_max"],
            "changepoint.detect_peak_alloc_mb": tracer.maxima[
                "changepoint.detect_changepoints.peak_alloc_mb"
            ],
            "changepoint.assign_s": total["changepoint.assign_exits"],
            "multiexit.cascade_s": total["multiexit.cascade"],
            "multiexit.cascade_rows": c["multiexit.cascade_rows"],
            "multiexit.forward_all_exits_s": total["multiexit.forward_all_exits"],
            "multiexit.checkpoint_io_s": total["multiexit.save_checkpoint"]
            + total["multiexit.load_checkpoint"],
            "victimlab.query_timed_many_s": total["victimlab.query_timed_many"],
            "victimlab.query_rows": c["victimlab.query_rows"],
            "metrics.make_report_s": total["metrics.make_report"],
            "datasets.generate_s": sum(total[f"datasets.{g}"] for g in _GENERATORS),
            "config.load_s": total["config.load_config"],
        }
    )
    m.update({f"{layer}.failed": c[f"{layer}.failed"] for layer in LAYERS})
    return m
