"""The benchmark's contract with the library. perfbench/ runs its workloads
against src/ in two ways that no other test covers: its tracer patches
seqtag functions and reads their arguments by position, and TagBulk
hand-builds the pipeline record that `seqtag tag` rebuilds its extractor
from. Each workload runs here at a reduced size, once untraced and once
inside the tracer.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {"TRAIN_SENTENCES": 6, "DEV_SENTENCES": 3, "EPOCHS": 2,
         "TAG_SENTENCES": 20, "GRADIENT_SEEDS": 1}
# per workload, the traced counts that must show its hot path was reached
COUNTS = {"train-paper": ("train.steps", "features.assemble.tokens"),
          "tag-bulk": ("features.assemble.tokens",),
          "selfcheck-grad": ("numerics.finite_diff_grad.evals",)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_untraced_and_traced(tmp_path, monkeypatch, name):
    for constant, value in SMALL.items():
        monkeypatch.setattr(workloads, constant, value)
    workload = workloads.WORKLOADS[name]()
    workload.setup(0, str(tmp_path))
    assert workload.run_op().failed == 0
    assert workload.check_output() == 0

    tracer = tracing.Tracer()
    targets = tracer._targets()
    originals = [owner.__dict__[attr] for owners, attr, *_ in targets
                 for owner in owners]
    with tracer.patched():
        result = workload.run_op()
    assert result.failed == 0
    assert workload.check_output() == 0
    for count in COUNTS[name]:
        assert tracer.counts[count] > 0, count
    # every patched function is restored
    assert originals == [owner.__dict__[attr] for owners, attr, *_ in targets
                         for owner in owners]
