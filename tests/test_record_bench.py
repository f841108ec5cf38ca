"""tools/record_bench.py's summary of paired runs, on synthetic runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import record_bench  # noqa: E402


def _run(side, rnd, op_s=None, attempted=None, failed=0):
    """A run as run_workload records it: a crashed one (no op_s) carries
    only its return code."""
    run = ({"returncode": 1, "correct": False} if op_s is None else
           {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"op_s": op_s}})
    return {**run, "side": side, "round": rnd, "seed": rnd}


def test_summarize_counts_failed_operations_and_runs_per_side():
    runs = [_run("base", 0, 1.0, 10), _run("head", 0, 0.5, 10, failed=2),
            _run("head", 1), _run("base", 1, 1.2, 6),
            _run("base", 2, 1.1, 4), _run("head", 2, 1.0, 5)]
    summary = record_bench.summarize(runs)
    assert summary["failures"] == {
        "base": {"attempted": 20, "failed": 0, "runs_not_correct": 0,
                 "failed_share": 0.0},
        "head": {"attempted": 15, "failed": 2, "runs_not_correct": 2,
                 "failed_share": 2 / 15}}
    # the crashed round pairs with nothing
    assert summary["head_lower_rounds"] == {"op_s": 2}
    assert summary["medians"]["head"] == {"op_s": 0.75}


def test_summarize_leaves_the_share_open_when_nothing_was_attempted():
    summary = record_bench.summarize([_run("base", 0), _run("head", 0)])
    for side in ("base", "head"):
        assert summary["failures"][side] == {
            "attempted": 0, "failed": 0, "runs_not_correct": 1,
            "failed_share": None}
