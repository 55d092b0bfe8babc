"""Self-tests of the benchmark harness at ``--scale 0.02``.

    python -m pytest bench/tests -q
"""

import dataclasses
import json
import subprocess
import sys

import pytest

import child
import compare
import run
import tracing
import workloads

SCALE = 0.02
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--scale", str(SCALE), "--seconds", "0.3",
         *args],
        capture_output=True, text=True, timeout=600,
    )
    # Tail claims are skipped at this scale, but mean-based ones can
    # still fail on a handful of packets: exit 1 is a failed check.
    assert proc.returncode in (0, 1), proc.stderr
    assert not list(run.ROOT.glob(".bench_run-*"))  # the children's scratch is gone
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    metrics = _bench("--trace", str(trace))["metrics"]
    for workload in run.WORKLOADS:
        for metric in SPEC[section]:
            entry = metrics[f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    assert len(metrics) == len(run.WORKLOADS) * len(SPEC[section])


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)


def _first_pass(name: str, seed: int, tally: child.Tally) -> dict:
    # Per-cell checks only: at this scale the mean-based paper claims
    # rest on four packets a cell and fail on some seeds.
    workload = dataclasses.replace(workloads.WORKLOADS[name], check=lambda outcomes: [])
    return child.timed(workload, workload.make_cells(seed, SCALE), 0.0, tally)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(name):
    tally = child.Tally()
    digests = [_first_pass(name, seed, tally)["sim_digest"] for seed in (0, 0, 1)]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
    assert tally.failed == 0


def test_warm_cache_pass_has_no_misses():
    workload = workloads.WORKLOADS["fault_sweep_cached"]
    cells = workload.make_cells(0, SCALE)
    tally = child.Tally()
    record = child.run_pass(workload, cells, tally)
    assert record["cache_misses"] == len(cells)  # the cold pass only
    assert record["cache_hits"] == len(cells)  # the warm pass, all of it
    assert tally.failed == 0 and not tally.problems
    assert record["boot_reuses"] > 0


def test_fail_frac_counts_a_failing_check(monkeypatch):
    # One cell fails its own check on every pass.  The workload-level
    # check, run on the warm-up pass only, fails too, which fails the
    # warm-up pass's other cells; the broken cell is counted once there.
    workload = dataclasses.replace(workloads.WORKLOADS["guest_trap"],
                                   check=lambda outcomes: ["forced failure"])
    cells = workload.make_cells(0, SCALE)
    broken = cells[3].label
    cell_ok = workloads.cell_ok
    monkeypatch.setattr(workloads, "cell_ok", lambda o: o.cell.label != broken and cell_ok(o))
    tally = child.Tally()
    timed = child.timed(workload, cells, 1e-3, tally)
    passes = len(timed["passes"])
    assert passes >= 2
    failed = len(cells) + passes - 1
    assert (tally.failed, tally.attempted) == (failed, passes * len(cells))
    assert "forced failure" in tally.problems
    timed.update(packets=1, peak_rss_kb=1, failed=tally.failed, attempted=tally.attempted)
    _, raw = run.end_to_end(timed, (1.0, 1.0))
    assert raw["fail_frac"] == pytest.approx(failed / (passes * len(cells)))


def test_attribution_charges_builtins_to_their_callers():
    root = "/x/repro"
    sim = (f"{root}/sim/kernel.py", 1, "run")
    pcie = (f"{root}/pcie/link.py", 1, "send")
    builtin = ("~", 0, "<built-in method len>")
    harness = ("/x/bench/child.py", 1, "run_pass")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        sim: (1, 1, 4.0, 9.5, {harness: (1, 1, 4.0, 9.5)}),
        pcie: (5, 5, 2.0, 3.0, {sim: (5, 5, 2.0, 3.0)}),
        builtin: (8, 8, 3.0, 3.0, {sim: (2, 2, 1.0, 1.0), pcie: (6, 6, 2.0, 2.0)}),
    }
    out = tracing.attribute(stats, repro_dir=root)
    assert out["self_s"]["sim"] == pytest.approx(5.0)
    assert out["self_s"]["pcie"] == pytest.approx(4.0)
    assert out["unattributed_s"] == pytest.approx(0.5)
    assert out["total_s"] == pytest.approx(sum(out["self_s"].values()) + 0.5)
    assert out["calls"]["pcie"] == 5


def _record(seed, started, value, digest="d"):
    return {
        "seed": seed, "seconds": 15.0, "trace": 0, "scale": 1.0, "started_unix": started,
        "workloads": {"w": {"sim_digest": digest, "metrics": {
            "sim_pps": {"value": value, "unit": "packets/s"}}}},
    }


def _pairs(parent_values, change_values, digest="d"):
    parent, change = [], []
    for i, (p, c) in enumerate(zip(parent_values, change_values)):
        first, second = (2 * i, 2 * i + 1) if i % 2 == 0 else (2 * i + 1, 2 * i)
        parent.append(_record(i, first, p))
        change.append(_record(i, second, c, digest))
    return parent, change


SIM_PPS = {"end_to_end": [{"name": "sim_pps", "better": "higher", "bound": 0.05}]}


@pytest.mark.parametrize("change_values, verdict, passes", [
    ([110 + i for i in range(10)], "gain", True),
    ([90 + i * 0.1 for i in range(10)], "regressed", False),
    ([100 + (i % 2) for i in range(10)], "within bound", True),
])
def test_compare_applies_the_pairwise_rule(change_values, verdict, passes):
    parent, change = _pairs([100 + (i % 2) * 0.5 for i in range(10)], change_values)
    lines, passed = compare.compare(parent, change, SIM_PPS)
    assert lines[1].endswith(verdict) and passed is passes


def test_compare_reports_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent, change = _pairs([80, 120] * 5, [98, 122] * 5)
    lines, _ = compare.compare(parent, change, SIM_PPS)
    assert lines[1].endswith("unresolved")


def test_compare_needs_ten_alternating_pairs_and_repeating_counts():
    parent, change = _pairs([100] * 9, [100] * 9)
    parent[1]["started_unix"], change[1]["started_unix"] = 100, 101  # parent first twice
    change[0]["workloads"]["w"]["sim_digest"] = "other"
    change[2]["seed"] = change[0]["seed"] = parent[2]["seed"] = 0
    lines, passed = compare.compare(parent, change, SIM_PPS)
    problems = [line for line in lines if line.startswith("problem")]
    assert not passed
    assert any("fewer than 10 pairs" in p for p in problems)
    assert any("alternate" in p for p in problems)
    assert any("did not repeat" in p for p in problems)
