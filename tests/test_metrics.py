"""Metric tests: hand-counted closeness/accuracy fixtures, cost additivity,
self-comparison exactness, and report serialization. Every count goes
through `make_report`, the one metrics path."""

import json

import numpy as np
import pytest

from exitsteal.errors import ContractError
from exitsteal.metrics import CSV_COLUMNS, EvalReport, make_report
from exitsteal.multiexit import OutputStrategy, cascade
from exitsteal.victimlab import TimingModel, VictimDeployment

from _utils import binary_conf_logit
from test_attack import conf_driven_net


def confs(*ps):
    """Inputs to conf_driven_net whose confidence at both exits is p."""
    return np.array([[binary_conf_logit(p)] for p in ps])


def test_closeness_hand_count():
    # victim thresholds at 0.9: confidences 0.99 / 0.95 / 0.60 stop at
    # exits 1 / 1 / 2; a substitute at 0.97 stops at 1 / 2 / 2. The middle
    # sample agrees on the class but not the exit: 2 of 3 count
    dep = fixture_deployment()
    xs = confs(0.99, 0.95, 0.60)
    y = np.zeros(3, int)
    rep = make_report(dep.net, OutputStrategy.uniform(0.97, 2), xs, y, victim_of(dep, xs))
    assert rep.clo == pytest.approx(2.0 / 3.0)
    assert rep.per_exit_agreement == (1, 1)
    assert make_report(dep.net, dep.strategy, xs, y, victim_of(dep, xs)).clo == 1.0


def test_closeness_requires_both_class_and_exit():
    # the victim answers class 0 at exit 1 for this sample
    dep = fixture_deployment()
    x = confs(0.99)
    y = np.zeros(1, int)
    victim = victim_of(dep, x)
    same_class_later_exit = make_report(dep.net, OutputStrategy.uniform(0.995, 2), x, y, victim)
    assert same_class_later_exit.clo == 0.0
    other_class = conf_driven_net(predicted_class=1)
    other_class_same_exit = make_report(other_class, dep.strategy, x, y, victim)
    assert other_class_same_exit.clo == 0.0
    assert make_report(dep.net, dep.strategy, x, y, victim).clo == 1.0


def test_closeness_validation():
    # closeness is defined per test sample, so an empty set has none; the
    # victim and the substitute always answer the same inputs, so their
    # outcome counts cannot differ
    dep = fixture_deployment()
    empty = np.zeros((0, 1))
    with pytest.raises(ContractError):
        make_report(dep.net, dep.strategy, empty, np.zeros(0, int), victim_of(dep, empty))


def test_accuracy_hand_count():
    # the substitute always predicts class 1; 3 of the 5 labels are 1
    dep = fixture_deployment()
    sub = conf_driven_net(predicted_class=1)
    xs = confs(0.99, 0.95, 0.6, 0.7, 0.92)
    rep = make_report(sub, dep.strategy, xs, np.array([0, 1, 0, 1, 1]), victim_of(dep, xs))
    assert rep.acc == pytest.approx(0.6)
    empty = np.zeros((0, 1))
    with pytest.raises(ContractError):
        make_report(sub, dep.strategy, empty, np.zeros(0, int), victim_of(dep, empty))
    with pytest.raises(ContractError):
        make_report(sub, dep.strategy, xs, np.array([0, 1]), victim_of(dep, xs))


def test_computation_cost_additivity():
    # exits 1 / 2 / 1 / 2 under the 0.9 bar
    dep = fixture_deployment()
    xs = confs(0.99, 0.6, 0.95, 0.7)
    y = np.zeros(4, int)
    f1, f2 = dep.net.exit_flops
    total = make_report(dep.net, dep.strategy, xs, y, victim_of(dep, xs))
    assert total.cc_flops == 2 * f1 + 2 * f2
    assert total.cc_gflops == pytest.approx(total.cc_flops * 1e-9)
    a = make_report(dep.net, dep.strategy, xs[:2], y[:2], victim_of(dep, xs[:2]))
    b = make_report(dep.net, dep.strategy, xs[2:], y[2:], victim_of(dep, xs[2:]))
    assert a.cc_flops + b.cc_flops == total.cc_flops
    with pytest.raises(ContractError):
        make_report(dep.net, dep.strategy, xs[:0], y[:0], victim_of(dep, xs[:0]))


def test_cascade_cost_equals_exit_histogram_dot_product():
    net = conf_driven_net()
    xs = confs(0.99, 0.95, 0.6, 0.7, 0.92, 0.55)
    exits, _, flops, _ = cascade(net, xs, OutputStrategy.uniform(0.9, 2))
    per_exit = np.array(net.exit_flops)
    hist = np.bincount(exits, minlength=3)[1:]
    assert int(flops.sum()) == int(hist @ per_exit)


def fixture_deployment():
    net = conf_driven_net()
    timing = TimingModel.proportional(net, per_flop=1e-3, noise_sigma=0.0, seed=0)
    return VictimDeployment(net, OutputStrategy.uniform(0.9, 2), timing)


def victim_of(dep, xs):
    """The deployment's cascade outcome on xs, as the evaluate stage
    computes it once for every report."""
    return cascade(dep.net, xs, dep.strategy)


def test_make_report_self_comparison_is_exact():
    dep = fixture_deployment()
    xs = np.array([[binary_conf_logit(p)] for p in (0.99, 0.95, 0.6, 0.7)])
    labels = np.array([0, 1, 0, 1])
    rep = make_report(dep.net, dep.strategy, xs, labels, victim_of(dep, xs))
    assert rep.clo == 1.0
    assert rep.cc_ratio == 1.0
    # this net predicts class 0 whenever x > 0
    assert rep.acc == 0.5
    assert rep.sample_count == 4
    f1, f2 = dep.net.exit_flops
    assert rep.cc_flops == 2 * f1 + 2 * f2
    assert rep.per_exit_agreement == (2, 2)


def test_make_report_counts_exit_mismatches():
    dep = fixture_deployment()
    xs = np.array([[binary_conf_logit(p)] for p in (0.99, 0.95, 0.6, 0.7)])
    labels = np.array([0, 0, 0, 0])
    # same net, stricter thresholds: the 0.95 sample now falls through to
    # exit 2 while the victim stops at exit 1
    rep = make_report(dep.net, OutputStrategy.uniform(0.97, 2), xs, labels, victim_of(dep, xs))
    assert rep.clo == 0.75
    assert rep.per_exit_agreement == (1, 2)
    f1, f2 = dep.net.exit_flops
    assert rep.cc_ratio == pytest.approx((f1 + 3 * f2) / (2 * f1 + 2 * f2))
    assert rep.acc == 1.0


def test_make_report_validation():
    dep = fixture_deployment()
    empty, two = np.zeros((0, 1)), np.zeros((2, 1))
    with pytest.raises(ContractError):
        make_report(dep.net, dep.strategy, empty, np.zeros(0), victim_of(dep, empty))
    with pytest.raises(ContractError):
        make_report(dep.net, dep.strategy, two, np.zeros(3), victim_of(dep, two))
    # the victim's outcome must be on the same inputs
    with pytest.raises(ContractError):
        make_report(dep.net, dep.strategy, two, np.zeros(2), victim_of(dep, np.zeros((3, 1))))


def test_report_json_roundtrip_is_byte_stable():
    rep = EvalReport(
        acc=0.8125,
        clo=2.0 / 3.0,
        cc_flops=123456,
        cc_gflops=123456e-9,
        cc_ratio=1.0 / 3.0,
        per_exit_agreement=(5, 3, 1),
        sample_count=16,
    )
    text = rep.to_json()
    again = EvalReport(**json.loads(text))
    assert again == rep
    assert again.to_json() == text
    # keys are sorted, so the exact byte layout is reproducible
    assert text == (
        '{\n  "acc": 0.8125,\n  "cc_flops": 123456,\n  "cc_gflops": 0.000123456,\n'
        '  "cc_ratio": 0.3333333333333333,\n  "clo": 0.6666666666666666,\n'
        '  "per_exit_agreement": [\n    5,\n    3,\n    1\n  ],\n  "sample_count": 16\n}'
    )


def test_csv_row_matches_column_order():
    assert CSV_COLUMNS == ("acc", "clo", "cc_gflops", "cc_ratio")
    rep = EvalReport(
        acc=0.5,
        clo=0.25,
        cc_flops=1000,
        cc_gflops=1e-6,
        cc_ratio=0.75,
        per_exit_agreement=(1,),
        sample_count=4,
    )
    row = rep.csv_row()
    assert row == [repr(0.5), repr(0.25), repr(1e-6), repr(0.75)]
    assert [float(v) for v in row] == [0.5, 0.25, 1e-6, 0.75]
