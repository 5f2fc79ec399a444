"""What the benchmark measures: workloads, end-to-end metrics with their
regression bounds, and per-layer metrics with the end-to-end metric each one
should move. BENCHMARK.json at the repository root is generated from this
module (`python3 perfbench/spec.py > BENCHMARK.json`) and the benchmark's
tests check that the two agree.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# name -> why the workload is in the benchmark (one line each)
WORKLOADS = {
    "toy_pipeline": (
        "every run-experiment stage on configs/toy.cfg, n_search 100, 10 attack epochs: "
        "what users run; tape-bound SGD on narrow nets dominates"
    ),
    "timing_sweep": (
        "victim timing channel at noise/gap 0.1-0.6 on 2000 probes: changepoint DP "
        "dominates; no training or search in the timed part"
    ),
    "wide_batch": (
        "full pipeline, 256-wide nets, batch 512, 4 epochs, n_search 50: BLAS-bound training, so "
        "tape-overhead cuts barely move it and BLAS regressions show"
    ),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. Times
# get the 0.25 cap: on a shared 2-core VM the same 0.9 s of training varies
# with an interquartile range of 8-14% of its median from minute to minute.
# label_acc is exact at each seed but differs between seeds on timing_sweep
# (interquartile range 8% over ten seeds), so it gets the cap as well; the
# reference check at the default seed pins it bit for bit. Training time is
# not an end-to-end metric of its own: timing_sweep trains only in set-up.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("label_acc", "ratio", "higher", 0.25),
]

STAGES = (
    "dataset",
    "train_victim",
    "deploy",
    "query",
    "estimate_exits",
    "train_substitute",
    "train_baseline",
    "search_searched",
    "search_traditional",
    "evaluate",
)
OPS = (
    "add",
    "mul",
    "matmul",
    "relu",
    "softmax",
    "kl_div",
    "cross_entropy",
    "max_last",
    "take_rows",
    "hinge",
    "hinge_excess",
    "mean_all",
)
NOISE_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.6)
LAYERS = (
    "experiment",
    "numerics",
    "attack",
    "victimlab",
    "search",
    "changepoint",
    "multiexit",
    "metrics",
    "datasets",
    "config",
)

_PIPELINES = "toy_pipeline, wide_batch"
_TRAIN = f"wall_s on {_PIPELINES}; setup_s on timing_sweep"


def _per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, which end-to-end metric it should move, on
    which workloads)."""
    rows = [
        (f"experiment.stage.{s}_s", "s", "lower", f"wall_s on {_PIPELINES}")
        for s in STAGES
    ]
    rows += [
        ("numerics.grad_s", "s", "lower", f"{_TRAIN}; most on toy_pipeline"),
        ("numerics.forward_s", "s", "lower", f"{_TRAIN}; most on toy_pipeline"),
        ("numerics.grad.calls", "count", "lower", "none: SGD steps, fixed by the config"),
    ]
    rows += [
        (f"numerics.op.{op}.calls", "count", "lower", f"{_TRAIN} (tape ops recorded)")
        for op in OPS
    ]
    rows += [
        ("numerics.ops_per_step", "count", "lower", f"{_TRAIN} (ops per SGD step)"),
        ("numerics.kl_div_s", "s", "lower", f"wall_s on {_PIPELINES}"),
        ("attack.train_substitute.self_s", "s", "lower", f"wall_s on {_PIPELINES}"),
        ("attack.record_batch_s", "s", "lower", f"wall_s on {_PIPELINES}"),
        ("victimlab.train_victim.self_s", "s", "lower", _TRAIN),
        ("search.points_build_s", "s", "lower", "wall_s on toy_pipeline"),
        ("search.candidates_s", "s", "lower", "wall_s on toy_pipeline"),
        ("search.traversal_s", "s", "lower", "wall_s on toy_pipeline; none on timing_sweep"),
        ("search.candidate_product", "count", "lower", "wall_s on toy_pipeline"),
        ("search.evaluate_strategy_s", "s", "lower", "wall_s on toy_pipeline"),
        ("search.select_traditional_s", "s", "lower", "wall_s on toy_pipeline"),
        ("search.peak_alloc_mb", "MB", "lower", "peak_rss_mb on toy_pipeline"),
        ("search.agreement", "ratio", "higher", "quality of the ours strategy"),
        ("metrics.clo_ours", "ratio", "higher", "quality: CLO of ours"),
        ("metrics.acc_ours", "ratio", "higher", "quality: accuracy of ours"),
        ("metrics.clo_no_strategy_loss", "ratio", "higher", "quality: ablation CLO"),
        ("changepoint.detect_s", "s", "lower", "wall_s on timing_sweep; ~0 on pipelines"),
        ("changepoint.detect.calls", "count", "lower", "none: fixed by the workload"),
        ("changepoint.detect.n_max", "count", "lower", "none: fixed by the workload"),
        ("changepoint.detect_peak_alloc_mb", "MB", "lower", "peak_rss_mb on timing_sweep"),
        ("changepoint.assign_s", "s", "lower", "wall_s on timing_sweep"),
        ("changepoint.exit_count_err", "count", "lower", "label_acc on timing_sweep"),
    ]
    for level in NOISE_LEVELS:
        rows.append(
            (f"changepoint.label_acc.nog{level}", "ratio", "higher", "label_acc on timing_sweep")
        )
    for level in NOISE_LEVELS:
        rows.append(
            (f"changepoint.exit_count.nog{level}", "count", "higher", "label_acc on timing_sweep")
        )
    rows += [
        ("multiexit.cascade_s", "s", "lower", "wall_s on timing_sweep"),
        ("multiexit.cascade_rows", "count", "lower", "none: fixed by the workload"),
        ("multiexit.forward_all_exits_s", "s", "lower", "wall_s on toy_pipeline"),
        ("multiexit.checkpoint_io_s", "s", "lower", "wall_s on toy_pipeline"),
        ("victimlab.query_timed_many_s", "s", "lower", "wall_s on timing_sweep"),
        ("victimlab.query_rows", "count", "lower", "none: fixed by the workload"),
        ("metrics.make_report_s", "s", "lower", f"wall_s on {_PIPELINES}"),
        ("datasets.generate_s", "s", "lower", "wall_s on pipelines; setup_s on timing_sweep"),
        ("config.load_s", "s", "lower", "setup_s on every workload"),
    ]
    rows += [(f"{layer}.failed", "count", "lower", "failed/attempted") for layer in LAYERS]
    rows += [
        ("trace.wall_s", "s", "lower", "none: traced wall_s, for the overhead"),
        ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
        ("trace.spans", "count", "lower", "none: spans recorded"),
    ]
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
