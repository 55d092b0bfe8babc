"""Byte-identity of every CLI artifact through the topology builder.

The golden files under ``golden/`` were captured from the pre-topology
builders (the exact commands are recorded below).  The refactor routed
all four legacy testbed builders through
:func:`repro.topology.builder.build_from_spec`; these tests prove the
delegation is invisible: every artifact's JSON is byte-identical with
``--jobs`` unset, at ``--jobs 1`` and at ``--jobs 4``.

Every artifact runs through the cell engine, and ``--jobs`` unset means
one in-process worker, so the default output *is* the ``-j1`` output;
the no-``-j`` case pins the command a user runs by default.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: golden file -> CLI argv *without* the -j value (appended per case).
COMMANDS = {
    "fig3.json": ["fig3", "--packets", "60", "--payloads", "64", "1024",
                  "--seed", "7", "--json"],
    "fig4.json": ["fig4", "--packets", "60", "--payloads", "64", "1024",
                  "--seed", "7", "--json"],
    "fig5.json": ["fig5", "--packets", "60", "--payloads", "64", "1024",
                  "--seed", "7", "--json"],
    "table1.json": ["table1", "--packets", "60", "--payloads", "64", "1024",
                    "--seed", "7", "--json"],
    "loadsweep_open.json": ["loadsweep", "--json", "--packets", "40",
                            "--rate", "20000", "60000", "--seed", "7"],
    "loadsweep_closed.json": ["loadsweep", "--json", "--packets", "40",
                              "--outstanding", "1", "2", "--seed", "7"],
    # The auto-placed open-loop sweep: calibration cells measure each
    # driver's base rate, and the points sit at multiples of it.
    "loadsweep_auto.json": ["loadsweep", "--json", "--packets", "40",
                            "--seed", "7"],
    "faultsweep.json": ["faultsweep", "--json", "--packets", "40",
                        "--fault-rates", "0", "0.01", "--seed", "7"],
    # E-F2, the reset storm.  Captured while it still booted its own
    # testbed, so it pins that the cell path (one faultlat cell carrying
    # the plan) kept its bytes.
    "faultsweep_reset.json": ["faultsweep", "--scenario", "reset", "--every",
                              "20", "--packets", "100", "--seed", "7",
                              "--json"],
    "overload.json": ["overload", "--json", "--packets", "40",
                      "--multipliers", "0.5", "2", "--seed", "7"],
    # E-S1: the only artifact driving the open-loop drop paths under
    # faults (txq_full and queue_full drops on both drivers).
    "overload_soak.json": ["overload", "--soak", "--json", "--packets", "120",
                           "--seed", "7"],
    "fleetsweep.json": ["fleetsweep", "--json", "--pods", "2", "--tenants",
                        "4", "--packets", "20", "--seed", "7"],
    # The guest layer's backstop: the E-V1 sweep (all three modes; the
    # bare column's numbers double as the legacy-latency-cell pin).
    "guestsweep.json": ["guestsweep", "--json", "--packets", "20",
                        "--payloads", "64", "--seed", "7"],
    # The virtio-mmio transport (virtio driver only, all three modes).
    "guestsweep_mmio.json": ["guestsweep", "--json", "--transport", "mmio",
                             "--packets", "20", "--payloads", "64", "--seed",
                             "7"],
}


@pytest.mark.parametrize("golden_name", sorted(COMMANDS))
@pytest.mark.parametrize("jobs", [None, 1, 4])
def test_artifact_matches_golden(golden_name, jobs, capsys):
    argv = COMMANDS[golden_name] + ([] if jobs is None else ["-j", str(jobs)])
    main(argv)  # overload may exit 1 on its verdict; bytes are what matter
    out = capsys.readouterr().out
    expected = (GOLDEN / golden_name).read_text()
    where = "without -j" if jobs is None else f"at -j{jobs}"
    assert out == expected, (
        f"{golden_name} diverged from the pre-topology builder {where}"
    )
