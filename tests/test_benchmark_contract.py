"""The benchmark in perfbench/ drives bookrel through its public functions.

One shrunken traced round of its `demo` workload, checked by its own
independent checks, keeps the two in step: every function the tracer wraps
must still exist, and the set-up's corpus manifest must round-trip.
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_shrunken_demo_round_passes_the_benchmark_checks(tmp_path):
    w = dataclasses.replace(
        workloads.WORKLOADS["demo"],
        n_works=8, pages=16, combined_works=2, sample_diff=40,
        synth_counts={"anthology": 2, "combined": 2, "split": 2, "overlap": 1},
        chunk_size=200, matrix_size=16, featurize_repeats=1, load_repeats=1,
    )
    rec = checks.Recorder()
    with tracing.Tracer():
        inputs = workloads.setup(w, 0, tmp_path / "setup")
        r = workloads.run_round(w, 0, inputs, tmp_path / "round")
    checks.check_round(rec, w, 0, inputs, r, tmp_path)
    assert sum(rec.ran.values()) > 0
    assert rec.total_failed == 0, rec.failures
    assert all(stage.failed == 0 for stage in r.stages.values())
