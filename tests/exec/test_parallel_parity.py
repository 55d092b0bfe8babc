"""Parity suite: the pool must never change results.

The contract of the parallel execution engine is that worker count is
invisible in the output: for a fixed root seed, ``jobs=1`` (in-process),
``jobs=2``, and ``jobs=4`` produce byte-identical artifacts, and a
parallel-mode comparison still passes every Section V claim check.
"""

import json

import pytest

from repro.core.experiments import (
    run_comparison,
    run_load_sweep,
    verify_paper_claims,
)

PACKETS = 150
PAYLOADS = (64, 1024)
SEED = 7


@pytest.fixture(scope="module", params=[1, 2, 4])
def table1_rows_by_jobs(request):
    comparison = run_comparison(
        payload_sizes=PAYLOADS, packets=PACKETS, seed=SEED, jobs=request.param
    )
    return request.param, comparison.table1_rows()


@pytest.fixture(scope="module")
def reference_rows():
    comparison = run_comparison(
        payload_sizes=PAYLOADS, packets=PACKETS, seed=SEED, jobs=1
    )
    return comparison.table1_rows()


class TestComparisonParity:
    def test_table1_rows_identical_across_worker_counts(
        self, table1_rows_by_jobs, reference_rows
    ):
        jobs, rows = table1_rows_by_jobs
        # Byte-identical, not merely approximately equal: serialize and
        # compare the bytes.
        assert json.dumps(rows) == json.dumps(reference_rows), (
            f"jobs={jobs} changed the Table I artifact"
        )


class TestClaimsInParallelMode:
    def test_parallel_comparison_passes_paper_claims(self):
        comparison = run_comparison(
            payload_sizes=(64, 256, 1024), packets=700, seed=42, jobs=2
        )
        failures = [c for c in verify_paper_claims(comparison) if not c.holds]
        assert not failures, "\n".join(
            f"{c.claim}: {c.evidence}" for c in failures
        )


class TestLoadSweepParity:
    def test_open_loop_knee_identical_across_worker_counts(self):
        renders = []
        knees = []
        for jobs in (1, 3):
            results, text = run_load_sweep(
                drivers=("virtio",), packets=60, seed=3, jobs=jobs
            )
            knees.append(results["virtio"].knee_pps())
            renders.append(text)
        assert knees[0] == knees[1]
        assert renders[0] == renders[1]

    def test_closed_loop_identical_across_worker_counts(self):
        dicts = []
        for jobs in (1, 2, 4):
            results, _ = run_load_sweep(
                drivers=("virtio", "xdma"), packets=50, seed=0,
                outstanding=(1, 2), jobs=jobs,
            )
            dicts.append(
                {name: result.as_dict() for name, result in results.items()}
            )
        assert dicts[0] == dicts[1] == dicts[2]
