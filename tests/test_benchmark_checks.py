"""The benchmark's own checks pass at the canonical seed and at a jittered one.

``perfbench/workloads.py`` defines the benchmark's CLI calls and checks each
output against ``perfbench/references.json``.  Running the seed-0 calls here
through ``cli.main`` on one worker makes a miss on a reference, which the
benchmark counts as a failed operation, fail the test suite as well.  Any
other seed shifts each call's 1/F window and checks the outputs against the
seed-independent answers and invariants (ladder spacing, E -> -E symmetry,
populations inside [0, 1]); one such seed runs here too.
"""

import pytest

from starkladder.cli import main

WORKLOADS = ["crossings", "transfer", "eigensweep"]
JITTERED_SEED = 7


@pytest.fixture(scope="module")
def workloads(perfbench):
    return perfbench("workloads")


def failed_checks(workloads, tmp_path, workload, seed):
    """(call, check, error, tolerance) of every check the seed's calls miss."""
    refs = workloads.load_references()
    calls = workloads.calls_for(workload, seed)
    assert calls
    failed = []
    for call in calls:
        out = tmp_path / f"{call.key}.csv"
        assert main(call.argv(out, 1)) == 0, call.key
        failed += [(call.key, c.name, c.err, c.tol)
                   for c in workloads.check_call(call, out, refs,
                                                 canonical=seed == workloads.CANONICAL_SEED)
                   if not c.ok]
    return failed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_zero_calls_pass_their_checks(workloads, tmp_path, workload):
    assert not failed_checks(workloads, tmp_path, workload, workloads.CANONICAL_SEED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jittered_seed_calls_pass_their_invariant_checks(workloads, tmp_path, workload):
    assert JITTERED_SEED != workloads.CANONICAL_SEED
    assert not failed_checks(workloads, tmp_path, workload, JITTERED_SEED)
