"""tools/trace_stages.py: one record per stage and pass."""

from exitsteal.harness import experiment, load_config

from _utils import load_tool
from test_experiment import TINY, TOY_CFG

trace_stages = load_tool("trace_stages")


def test_one_pass_gives_one_record_per_stage():
    records = list(trace_stages.trace(load_config(TOY_CFG, TINY), 1, True))
    assert [r["stage"] for r in records] == list(experiment.STAGE_ORDER)
    for r in records:
        assert r["pass"] == 1
        assert set(r) == {
            "pass", "stage", "wall_s", "rss_mib", "maxrss_mib", "minflt", "traced_peak_mib"
        }
        assert r["wall_s"] >= 0 and r["minflt"] >= 0
        assert r["maxrss_mib"] >= r["rss_mib"]
        assert r["traced_peak_mib"] > 0
