"""The benchmark's own seed-0 checks pass.

``perfbench/workloads.py`` defines the benchmark's CLI calls and checks each
output against ``perfbench/references.json``.  Running the seed-0 calls here
through ``cli.main`` on one worker makes a miss on a reference, which the
benchmark counts as a failed operation, fail the test suite as well.
"""

import pytest

from starkladder.cli import main


@pytest.fixture(scope="module")
def workloads(perfbench):
    return perfbench("workloads")


@pytest.mark.parametrize("workload", ["crossings", "transfer", "eigensweep"])
def test_seed_zero_calls_pass_their_checks(workloads, tmp_path, workload):
    refs = workloads.load_references()
    calls = workloads.calls_for(workload, workloads.CANONICAL_SEED)
    assert calls
    for call in calls:
        out = tmp_path / f"{call.key}.csv"
        assert main(call.argv(out, 1)) == 0, call.key
        failed = [(c.name, c.err, c.tol)
                  for c in workloads.check_call(call, out, refs, canonical=True)
                  if not c.ok]
        assert not failed
