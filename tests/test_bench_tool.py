"""Tests of the summary that ``tools/bench.py`` prints and records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def _result(jobs_per_s, p50_ms, failed=0):
    """A result line of perfbench/run.py, parsed, with two metrics."""
    return {
        "correct": failed == 0,
        "failed": failed,
        "metrics": {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_p50_ms": {"value": p50_ms, "unit": "ms"},
        },
    }


# ten pairs: the change has 10 more jobs/s in nine and 1 fewer in the first;
# its p50 is lower in five, equal in one and higher in four
BASE = [100 + i for i in range(10)]
CHANGE = [99] + [110 + i for i in range(1, 10)]
BASE_P50 = [2.0] * 10
CHANGE_P50 = [1.5] * 5 + [2.0] + [2.5] * 4
PAIRS = [
    (_result(b, bp, failed=i == 3), _result(c, cp))
    for i, (b, c, bp, cp) in enumerate(zip(BASE, CHANGE, BASE_P50, CHANGE_P50))
]
BETTER = {"jobs_per_s": "higher", "job_p50_ms": "lower"}


def test_quartiles_and_ratio_of_medians():
    summary = bench.summarize(PAIRS, BETTER)["jobs_per_s"]
    assert summary["base"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert summary["change"] == {"median": 114.5, "q1": 112.25, "q3": 116.75}
    assert summary["ratio"] == pytest.approx(114.5 / 104.5)


def test_nine_wins_of_ten_have_sign_p_0_0215():
    summary = bench.summarize(PAIRS, BETTER)["jobs_per_s"]
    assert (summary["wins"], summary["losses"], summary["pairs"]) == (9, 1, 10)
    assert round(summary["sign_p"], 4) == 0.0215


def test_lower_is_better_and_a_tie_counts_for_neither():
    summary = bench.summarize(PAIRS, BETTER)["job_p50_ms"]
    assert (summary["wins"], summary["losses"], summary["pairs"]) == (5, 4, 10)
    assert summary["sign_p"] == 1.0
    assert summary["change"]["median"] == 1.75


def test_failed_operations_are_summed_per_side():
    assert bench.summarize(PAIRS, BETTER)["failed"] == {"base": 1, "change": 0}


@pytest.mark.parametrize("wins, losses, p", [(10, 0, 2 / 1024), (0, 10, 2 / 1024),
                                             (0, 0, 1.0), (3, 1, 0.625)])
def test_sign_test_is_two_sided(wins, losses, p):
    assert bench.sign_test_p(wins, losses) == pytest.approx(p)


def test_a_single_pair_has_its_value_as_quartiles():
    assert bench.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
