"""`tools/bench_pairs.py`'s summary of alternating benchmark pairs, which
decides every performance claim: wins, ties, the parent's interquartile
range, the median ratio and the regression verdict."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

LOWER = {"name": "m", "better": "lower", "bound": 0.25}
HIGHER = {"name": "m", "better": "higher", "bound": 0.25}


def pairs_of(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]


def test_wins_count_the_better_side_and_ties_count_for_neither():
    pairs = pairs_of([10, 10, 10, 10, 10], [9, 8, 11, 10, 10])
    lower, higher = bench_pairs.summarize(pairs, LOWER), bench_pairs.summarize(pairs, HIGHER)
    assert (lower["change_wins"], higher["change_wins"]) == (2, 1)
    assert lower["ties"] == higher["ties"] == 2
    assert lower["pairs"] == higher["pairs"] == 5


@pytest.mark.parametrize("shift, beyond", [(2.5, True), (2, False), (1.5, False),
                                           (-1.5, False), (-2.5, True)])
def test_a_gap_counts_only_beyond_the_parents_iqr(shift, beyond):
    # The parent's quartiles are 11 and 13: an interquartile range of 2.
    parent = [10, 11, 12, 13, 14]
    summary = bench_pairs.summarize(pairs_of(parent, [p + shift for p in parent]), LOWER)
    assert (summary["parent"]["q1"], summary["parent"]["q3"]) == (11, 13)
    assert summary["change"]["median"] == 12 + shift
    assert summary["gap_beyond_parent_iqr"] is beyond


def test_the_median_ratio_needs_a_nonzero_parent_median():
    ratio = "median_ratio_change_over_parent"
    assert bench_pairs.summarize(pairs_of([0, 0, 0], [1, 2, 3]), LOWER)[ratio] is None
    assert bench_pairs.summarize(pairs_of([2, 4, 6], [3, 6, 9]), LOWER)[ratio] == 1.5


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("bound, worse_by, verdict", [
    # The parent's median is 12 and its interquartile range 2.
    (0.25, 4, "worse"),  # beyond the bound of 3
    (0.25, 3, "ok"),  # at the bound, with the range inside it
    (0.25, -4, "ok"),
    (0.1, 3, "worse"),  # beyond the bound of 1.2, whose range is wider
    (0.1, 0, "unresolved"),
    (0.1, -2, "unresolved"),  # better, but a change run meets a parent run
    (0.1, -5, "ok"),  # every change run beats every parent run
])
def test_a_regression_is_judged_by_the_bound_and_the_parents_iqr(better, bound, worse_by,
                                                                  verdict):
    parent = [10, 11, 12, 13, 14]
    step = worse_by if better == "lower" else -worse_by
    metric = {"name": "m", "better": better, "bound": bound}
    summary = bench_pairs.summarize(pairs_of(parent, [p + step for p in parent]), metric)
    assert summary["regression"] == verdict


def test_main_refuses_a_single_pair(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "steady",
                          "--pairs", "1", "--seconds", "1"])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
