"""The summary and verdict rules of tools/pairs.py on fixed numbers; the tool
itself runs the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [2106, 1983, 2090, 2063, 2170, 2078, 2128, 2043, 2201, 2057]
CHANGE = [2395, 2365, 2481, 2414, 2221, 2262, 2316, 2488, 2461, 2257]


def test_summary_of_a_clear_gain():
    s = pairs.summary(PARENT, CHANGE, "higher")
    assert s["parent_median"] == 2084 and s["change_median"] == 2380
    assert (s["parent_q1"], s["parent_q3"]) == (2053.5, 2138.5)
    assert s["wins"] == 10 and s["pairs"] == 10 and s["claim_met"]
    # the same runs read as a time, where lower is better, are a loss
    s = pairs.summary(PARENT, CHANGE, "lower")
    assert s["wins"] == 0 and not s["claim_met"]


def test_summary_needs_nine_tenths_of_ten_pairs():
    # 8 of 10 won: not met however large the gap
    change = CHANGE[:8] + [p - 1 for p in PARENT[8:]]
    assert pairs.summary(PARENT, change, "higher")["wins"] == 8
    assert not pairs.summary(PARENT, change, "higher")["claim_met"]
    # 9 of 10 won, a tie counting for neither side
    change = CHANGE[:9] + [PARENT[9]]
    assert pairs.summary(PARENT, change, "higher")["wins"] == 9
    assert pairs.summary(PARENT, change, "higher")["claim_met"]
    # 5 of 5 won is too few pairs
    assert not pairs.summary(PARENT[:5], CHANGE[:5], "higher")["claim_met"]


def test_summary_needs_a_gap_wider_than_the_parent_quartiles():
    # every pair won by 10, the parent's quartile spread 85
    s = pairs.summary(PARENT, [p + 10 for p in PARENT], "higher")
    assert s["wins"] == 10 and not s["claim_met"]
    s = pairs.summary(PARENT, [p + 86 for p in PARENT], "higher")
    assert s["wins"] == 10 and s["claim_met"]


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        pairs.summary(PARENT, CHANGE[:9], "higher")


def test_verdict_within_bound():
    # the parent's quartile spread is 85, 4.1% of its median 2084
    assert pairs.verdict(PARENT, CHANGE, "higher", 0.18) == "within bound"
    # 10% worse is still inside an 18% bound
    assert pairs.verdict(PARENT, [0.9 * p for p in PARENT], "higher", 0.18) == "within bound"


def test_verdict_worse_by_more_than_bound():
    assert (pairs.verdict(PARENT, [0.8 * p for p in PARENT], "higher", 0.18)
            == "worse by more than bound")
    # as times, 20% longer is worse
    assert (pairs.verdict(PARENT, [1.2 * p for p in PARENT], "lower", 0.18)
            == "worse by more than bound")


def test_verdict_unresolved_when_the_spread_passes_the_bound():
    # a 3% bound is narrower than the 4.1% spread: a 10-point loss and a
    # 200-point gain both stay unresolved while some parent run beats some
    # change run (2183 against 2201)
    assert pairs.verdict(PARENT, [p - 10 for p in PARENT], "higher", 0.03) == "unresolved"
    assert pairs.verdict(PARENT, [p + 200 for p in PARENT], "higher", 0.03) == "unresolved"
    # unless every change run beats every parent run
    assert pairs.verdict(PARENT, [p + 300 for p in PARENT], "higher", 0.03) == "within bound"
