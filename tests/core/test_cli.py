"""Tests for the CLI entry point."""

import json

import pytest

from repro.cli import main
from repro.core.calibration import PAPER_PAYLOAD_SIZES


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1", "--packets", "30", "--payloads", "64"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "VirtIO" in out

    def test_fig4(self, capsys):
        assert main(["fig4", "--packets", "20", "--payloads", "64"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5", "--packets", "20", "--payloads", "64"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["fig3", "--packets", "20", "--payloads", "64"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "#" in out  # histogram bars

    def test_claims(self, capsys):
        status = main(["claims", "--packets", "30", "--payloads", "64"])
        out = capsys.readouterr().out
        assert "claims" in out.lower()
        # 30 samples are too few for p99.9 (it is their maximum), so a
        # claim may fail here; the exit status must say so.
        assert status == (1 if "[FAIL]" in out else 0)

    @pytest.mark.parametrize("artifact", ["claims", "all"])
    def test_failing_claim_exits_nonzero(self, artifact, monkeypatch, capsys):
        from repro.core.experiments import ClaimCheck

        monkeypatch.setattr(
            "repro.cli.verify_paper_claims",
            lambda comparison: [ClaimCheck("a claim", False, "forced")],
        )
        assert main([artifact, "--packets", "10", "--payloads", "64"]) == 1
        assert "[FAIL] a claim" in capsys.readouterr().out

    def test_seed_flag(self, capsys):
        main(["table1", "--packets", "10", "--payloads", "64", "--seed", "9"])
        first = capsys.readouterr().out
        main(["table1", "--packets", "10", "--payloads", "64", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


LOADSWEEP_FAST = [
    "loadsweep", "--packets", "40", "--rate", "5000", "20000",
]


class TestLoadsweepCli:
    def test_text_output(self, capsys):
        assert main(LOADSWEEP_FAST) == 0
        out = capsys.readouterr().out
        assert "Load sweep (open loop)" in out
        assert "Throughput vs offered load (virtio" in out
        assert "Throughput vs offered load (xdma" in out
        assert "Latency vs offered load" in out

    def test_deterministic_across_repeats(self, capsys):
        main(LOADSWEEP_FAST + ["--seed", "4"])
        first = capsys.readouterr().out
        main(LOADSWEEP_FAST + ["--seed", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_output(self, capsys):
        assert main(LOADSWEEP_FAST + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifact"] == "loadsweep"
        assert doc["mode"] == "open"
        assert set(doc["drivers"]) == {"virtio", "xdma"}
        points = doc["drivers"]["virtio"]["points"]
        assert [p["offered_pps"] for p in points] == [5000.0, 20000.0]
        assert all("p99" in p["latency_us"] for p in points)

    def test_closed_loop_json(self, capsys):
        argv = ["loadsweep", "--packets", "40", "--outstanding", "1", "2", "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "closed"
        assert [p["outstanding"] for p in doc["drivers"]["xdma"]["points"]] == [1, 2]

    def test_bursty_distribution(self, capsys):
        assert main(LOADSWEEP_FAST + ["--distribution", "bursty"]) == 0
        assert "bursty arrivals" in capsys.readouterr().out


class TestJsonFlag:
    def test_table1_json(self, capsys):
        assert main(["table1", "--packets", "30", "--payloads", "64", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifact"] == "table1"
        assert doc["rows"][0]["payload"] == 64
        assert {"virtio", "xdma"} <= set(doc["rows"][0])
        assert "p99_us" in doc["rows"][0]["virtio"]

    def test_fig3_json(self, capsys):
        argv = ["fig3", "--json", "--packets", "10", "--payloads", "64"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifact"] == "fig3"
        assert set(doc["drivers"]) == {"virtio", "xdma"}
        assert "p99_us" in doc["drivers"]["virtio"]["64"]

    @pytest.mark.parametrize("artifact", ["fig4", "fig5"])
    def test_breakdown_json(self, artifact, capsys):
        argv = [artifact, "--json", "--packets", "10", "--payloads", "64"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifact"] == artifact
        assert doc["driver"] == ("virtio" if artifact == "fig4" else "xdma")
        row = doc["breakdown"][0]
        assert row["payload"] == 64
        assert {"hw_mean_us", "sw_mean_us", "total_mean_us"} <= set(row)

    def test_json_rejected_for_other_artifacts(self, capsys):
        for artifact in ("claims", "all"):
            with pytest.raises(SystemExit):
                main([artifact, "--json", "--packets", "10", "--payloads", "64"])
            assert artifact in capsys.readouterr().err


class TestParallelCli:
    def test_jobs_flag_output_matches_single_worker(self, capsys):
        argv = ["table1", "--packets", "40", "--payloads", "64", "--seed", "2"]
        assert main(argv + ["--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["-j", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_jobs_zero_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--packets", "10", "--payloads", "64", "--jobs", "0"])

    def test_bench_and_its_flags_rejected(self, capsys):
        # The simulator benchmark is bench/run.py; the CLI has no bench
        # artifact and none of the old harness's flags.
        with pytest.raises(SystemExit):
            main(["bench", "--packets", "10"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        for flag in ("--check", "--baseline=x", "--tolerance=0.1", "--profile"):
            with pytest.raises(SystemExit):
                main(["table1", "--packets", "10", "--payloads", "64", flag])
            assert "unrecognized arguments" in capsys.readouterr().err


class TestArgumentValidation:
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_packets_below_one_rejected(self, count, capsys):
        # 0 used to run the default count and label the artifact 0;
        # negatives ended in a ValueError traceback.
        for artifact in ("table1", "loadsweep"):
            with pytest.raises(SystemExit) as excinfo:
                main([artifact, "--packets", count, "--payloads", "64", "--json"])
            assert excinfo.value.code == 2
            assert "--packets must be >= 1" in capsys.readouterr().err

    def test_cache_dir_that_is_a_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--packets", "10", "--payloads", "64",
                  "--cache", "--cache-dir", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-dir" in err and "not a directory" in err

    @pytest.mark.parametrize("argv", [
        ["table1", "--payloads", "0"],
        ["table1", "--payloads", "-5"],
        ["table1", "--payloads", "64", "7"],
        ["fig3", "--payloads", "100000"],
        ["loadsweep", "--payloads", "2"],
        ["overload", "--payloads", "2"],
        ["fleetsweep", "--payloads", "2"],
        ["guestsweep", "--payloads", "1473"],
    ], ids=lambda argv: "-".join(argv[0:1] + argv[2:]))
    def test_payloads_outside_range_rejected(self, argv, capsys):
        # Past the parser, each of these is a traceback from deep inside
        # the model (ValueError, ProcessError, OverflowError, WorkloadError).
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--packets", "5"])
        assert excinfo.value.code == 2
        assert "--payloads values must be in [8, 1472]" in capsys.readouterr().err

    def test_payload_range_ends_accepted(self, capsys):
        assert main(["table1", "--packets", "3", "--payloads", "8", "1472",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["payload"] for row in rows] == [8, 1472]

    @pytest.mark.parametrize("artifact", ["faultsweep", "fleetsweep"])
    def test_single_payload_artifacts_reject_several(self, artifact, capsys):
        # Both measure one size; the rest used to be ignored without a word.
        with pytest.raises(SystemExit) as excinfo:
            main([artifact, "--packets", "5", "--payloads", "64", "1024"])
        assert excinfo.value.code == 2
        assert f"{artifact} takes one --payloads size" in capsys.readouterr().err

    def test_soak_runs_the_payload_mix(self, monkeypatch, capsys):
        # The soak calibrates on the --payloads mix; its phases must
        # draw from the same mix, not run at 64 B.
        from repro.health import soak
        from repro.workload.sizes import EmpiricalMix

        seen = []
        real = soak.OpenLoopGenerator

        def spy(*args, **kwargs):
            seen.append(kwargs["sizes"])
            return real(*args, **kwargs)

        monkeypatch.setattr(soak, "OpenLoopGenerator", spy)
        main(["overload", "--soak", "--packets", "20", "--payloads", "64", "1024",
              "--json"])
        capsys.readouterr()
        assert len(seen) == 6  # three phases x two drivers
        assert all(sizes == EmpiricalMix((64, 1024)) for sizes in seen)


GUESTSWEEP_FAST = [
    "guestsweep", "--packets", "10", "--payloads", "64", "--seed", "7",
]


class TestGuestsweepCli:
    def test_default_payloads_are_the_paper_sweep(self, capsys):
        # The default must run: an 8192 B payload, for one, overflows
        # the 2048 B virtio-net TX buffers.
        assert main(["guestsweep", "--packets", "2", "--modes", "bare",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for driver in ("virtio", "xdma"):
            assert list(doc["results"][driver]["bare"]) == [
                str(size) for size in PAPER_PAYLOAD_SIZES
            ]

    def test_text_output(self, capsys):
        assert main(GUESTSWEEP_FAST) == 0
        out = capsys.readouterr().out
        assert "E-V1 guest sweep" in out
        for block in ("virtio / bare", "virtio / trapped", "virtio / vhost",
                      "xdma / bare", "xdma / trapped", "xdma / vhost"):
            assert f"-- {block} --" in out

    def test_json_output(self, capsys):
        assert main(GUESTSWEEP_FAST + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment"] == "E-V1"
        assert doc["transport"] == "pci"
        assert doc["modes"] == ["bare", "trapped", "vhost"]
        row = doc["results"]["virtio"]["trapped"]["64"]
        assert row["trap_mean_us"] > 0
        assert row["vmm"]["vmexits"] > 0

    def test_modes_flag_dedupes(self, capsys):
        argv = GUESTSWEEP_FAST + ["--modes", "vhost", "vhost", "bare", "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["modes"] == ["vhost", "bare"]

    def test_mmio_transport(self, capsys):
        argv = GUESTSWEEP_FAST + ["--transport", "mmio", "--modes", "bare",
                                  "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["transport"] == "mmio"
        assert doc["drivers"] == ["virtio"]  # xdma has no VirtIO transport

    def test_jobs_parity(self, capsys):
        main(GUESTSWEEP_FAST + ["--json", "-j", "1"])
        first = capsys.readouterr().out
        main(GUESTSWEEP_FAST + ["--json", "-j", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_invalid_transport_rejected(self):
        with pytest.raises(SystemExit):
            main(GUESTSWEEP_FAST + ["--transport", "ccw"])


class TestArtifactRegistry:
    """Satellite: the --json support list is derived, not hand-edited."""

    def test_json_artifacts_derived_from_registry(self):
        from repro.cli import ARTIFACTS, JSON_ARTIFACTS

        assert JSON_ARTIFACTS == tuple(
            name for name, has_json in ARTIFACTS.items() if has_json
        )
        assert "guestsweep" in JSON_ARTIFACTS
        assert "claims" not in JSON_ARTIFACTS
        assert "all" not in JSON_ARTIFACTS

    def test_json_error_lists_supported_subcommands(self, capsys):
        from repro.cli import JSON_ARTIFACTS

        with pytest.raises(SystemExit):
            main(["claims", "--json"])
        err = capsys.readouterr().err
        # The registry drives the message: every supported artifact is
        # named, including ones registered after this test was written.
        for name in JSON_ARTIFACTS:
            assert name in err

    def test_invalid_env_rejected_before_any_work(self, monkeypatch, tmp_path,
                                                  capsys):
        # With the cache off, table1 never reads the cache directory, so
        # only the up-front sweep of every knob can catch this value.
        occupied = tmp_path / "file"
        occupied.write_text("not a directory")
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(occupied))

        def no_cells(cells, jobs):
            raise AssertionError(f"cells ran: {[c.label for c in cells]}")

        monkeypatch.setattr("repro.exec.runner._run_cells_fresh", no_cells)
        with pytest.raises(SystemExit):
            main(["table1", "--packets", "10", "--payloads", "64"])
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err
