"""``tools/bench_pairs.py``: the rule that judges a metric's paired series
from two checkouts, on synthetic series."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

PARENT = [30.0, 31.0, 32.0, 33.0, 34.0, 35.0, 36.0, 37.0, 38.0, 39.0]  # IQR 4.5


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ten_wins_with_a_gap_above_the_iqr_hold(bench_pairs):
    v = bench_pairs.verdict(PARENT, [p + 5.0 for p in PARENT], "higher", 0.25)
    assert (v.wins, v.losses) == (10, 0)
    assert v.parent == (32.25, 34.5, 36.75)
    assert v.change[1] == 39.5
    assert v.claim_holds and v.bound_holds


def test_ten_wins_within_the_iqr_do_not_hold(bench_pairs):
    v = bench_pairs.verdict(PARENT, [p + 4.0 for p in PARENT], "higher", 0.25)
    assert v.wins == 10
    assert not v.claim_holds


def test_eight_wins_do_not_hold(bench_pairs):
    change = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    v = bench_pairs.verdict(PARENT, change, "higher", 0.25)
    assert (v.wins, v.losses) == (8, 2)
    assert not v.claim_holds


def test_ties_count_for_neither_side(bench_pairs):
    change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9]]
    v = bench_pairs.verdict(PARENT, change, "higher", 0.25)
    assert (v.wins, v.losses) == (9, 0)
    assert v.claim_holds
    v = bench_pairs.verdict(PARENT, list(PARENT), "higher", 0.01)
    assert (v.wins, v.losses) == (0, 0)
    assert not v.claim_holds and v.bound_holds


def test_lower_is_better(bench_pairs):
    faster = [p - 5.0 for p in PARENT]
    v = bench_pairs.verdict(PARENT, faster, "lower", 0.25)
    assert (v.wins, v.losses) == (10, 0)
    assert v.claim_holds and v.bound_holds
    v = bench_pairs.verdict(faster, PARENT, "lower", 0.25)
    assert (v.wins, v.losses) == (0, 10)
    assert not v.claim_holds and v.bound_holds


@pytest.mark.parametrize("better, scale, holds", [
    ("higher", 0.95, True), ("higher", 0.85, False),
    ("lower", 1.05, True), ("lower", 1.15, False)])
def test_bound_is_relative_to_the_parent_median(bench_pairs, better, scale, holds):
    v = bench_pairs.verdict(PARENT, [p * scale for p in PARENT], better, 0.1)
    assert v.bound_holds is holds
