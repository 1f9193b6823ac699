import pytest

from repro.analysis.calibration import PrimitiveCosts, calibrate
from repro.analysis.costmodel import (
    Workload,
    modeled_time,
    predicted_time,
    table2_prediction_counts,
    table2_training_counts,
)
from repro.network.bus import NetworkModel

COSTS = PrimitiveCosts(ce=1e-5, cd=1e-3, cs=2e-5, cc=5e-4, keysize=512, n_parties=3)


def test_workload_derived_quantities():
    w = Workload(n=100, m=4, d_bar=5, b=8, h=3)
    assert w.d == 20
    assert w.t == 7


def test_training_counts_scale_linearly_in_n_only_for_ce():
    w1 = Workload(n=100, m=3, d_bar=5, b=8, h=4)
    w2 = Workload(n=200, m=3, d_bar=5, b=8, h=4)
    c1 = table2_training_counts(w1, "basic")
    c2 = table2_training_counts(w2, "basic")
    assert c2["ce"] == 2 * c1["ce"]
    assert c2["cd"] == c1["cd"]  # Table 2: conversions independent of n


def test_enhanced_adds_n_dependent_decryptions():
    w = Workload(n=100, m=3, d_bar=5, b=8, h=4)
    basic = table2_training_counts(w, "basic")
    enhanced = table2_training_counts(w, "enhanced")
    assert enhanced["cd"] - basic["cd"] == w.n * w.t
    assert enhanced["ce"] > basic["ce"]


def test_prediction_counts():
    w = Workload(n=1, m=5, d_bar=2, b=4, h=3)
    basic = table2_prediction_counts(w, "basic")
    assert basic["ce"] == 5 * 7 and basic["cd"] == 1
    enhanced = table2_prediction_counts(w, "enhanced")
    assert enhanced["cs"] == 7 and enhanced["cc"] == 7


def test_unknown_protocol_rejected():
    w = Workload(n=1, m=2, d_bar=1, b=1, h=1)
    with pytest.raises(ValueError):
        table2_training_counts(w, "quantum")
    with pytest.raises(ValueError):
        table2_prediction_counts(w, "quantum")


def test_predicted_time_positive_and_additive():
    counts = {"ce": 10, "cd": 2, "cs": 5, "cc": 1}
    t = predicted_time(counts, COSTS)
    assert t == pytest.approx(10e-5 + 2e-3 + 10e-5 + 5e-4)


def test_modeled_time_includes_network():
    counts = {"ce": 0, "cd": 0, "cs": 0, "cc": 0}
    model = NetworkModel(latency_seconds=1e-3, bandwidth_bytes_per_second=1e6)
    t = modeled_time(counts, COSTS, rounds=10, n_bytes=1_000_000, network=model)
    assert t == pytest.approx(10e-3 + 1.0)


def test_calibration_returns_sane_costs():
    costs = calibrate(2, 256, repeats=3)
    assert 0 < costs.ce < 1e-2
    assert 0 < costs.cd < 1.0
    assert costs.cd > costs.ce  # threshold decryption dominates (paper §8.3)
    # cs vs cc is not ordered here: a comparison is only a few
    # multiplications' worth, within one scheduler hiccup of a 30 us mul.
    assert costs.cs > 0 and costs.cc > 0
