"""Tests for the repro.cli command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (["list"], ["run", "E1"], ["table2"], ["specs"],
                     ["table2", "--system", "small"],
                     ["specs", "--system", "tiny"],
                     ["stream"], ["spec"],
                     ["run", "E10", "--system", "tiny",
                      "--set", "architecture=tablefree"],
                     ["spec", "--architecture", "tablesteer",
                      "--set", "architecture_options.total_bits=14"],
                     ["stream", "--system", "tiny", "--backend", "vectorized",
                      "--architecture", "tablesteer", "--frames", "4"]):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_unknown_backend_rejected_with_registry_listing(self, capsys):
        # Names are validated against the registry at run time (so plugins
        # work), not by a closed argparse choices list.  A removed backend
        # ('sharded') is refused the same way and is not listed.
        for name in ("gpu", "sharded"):
            assert main(["stream", "--system", "tiny",
                         "--backend", name]) == 2
            err = capsys.readouterr().err
            assert f"unknown backend '{name}'" in err
            listing = err.split("available:", 1)[1]
            assert "reference" in listing and "vectorized" in listing
            assert "sharded" not in listing

    def test_unknown_architecture_rejected_with_registry_listing(self, capsys):
        assert main(["stream", "--system", "tiny",
                     "--architecture", "magic"]) == 2
        err = capsys.readouterr().err
        assert "unknown architecture 'magic'" in err
        assert "tablesteer_float" in err

    def test_unknown_system_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["specs", "--system", "gigantic"])

    def test_unknown_stream_preset_lists_presets(self, capsys):
        assert main(["stream", "--system", "gigantic"]) == 2
        assert "paper, small, tiny" in capsys.readouterr().err


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for i in range(1, 11):
            assert f"E{i}" in output

    def test_list_prints_registered_plugins(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "Registered architectures:" in output
        assert "tablesteer_float" in output
        assert "Registered backends:" in output
        assert "vectorized" in output
        assert "moving_point" in output

    def test_specs_prints_table1_numbers(self, capsys):
        assert main(["specs", "--system", "paper"]) == 0
        output = capsys.readouterr().out
        assert "100 x 100" in output
        assert "32 MHz" in output
        assert "128 x 128 x 1000" in output

    def test_table2_prints_rows(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "TABLEFREE" in output
        assert "TABLESTEER-18b" in output

    def test_run_single_cheap_experiment(self, capsys):
        assert main(["run", "E2"]) == 0
        output = capsys.readouterr().out
        assert "traversal" in output.lower()
        assert "finished" in output

    def test_run_accepts_lowercase_id(self, capsys):
        assert main(["run", "e1"]) == 0
        assert "requirements" in capsys.readouterr().out.lower()

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_stream_reports_throughput_and_cache(self, capsys):
        assert main(["stream", "--system", "tiny", "--frames", "4",
                     "--backend", "vectorized"]) == 0
        output = capsys.readouterr().out
        assert "Streaming 4 frames" in output
        assert "volume rate" in output
        assert "3 hits, 1 misses" in output

    def test_stream_defaults_to_vectorized(self, capsys):
        assert main(["stream", "--system", "tiny", "--frames", "2"]) == 0
        output = capsys.readouterr().out
        assert "backend=vectorized" in output
        assert "dtype=float64" in output

    def test_stream_dtype_and_batch_flags(self, capsys):
        assert main(["stream", "--system", "tiny", "--frames", "4",
                     "--dtype", "float32", "--batch", "2"]) == 0
        output = capsys.readouterr().out
        assert "dtype=float32" in output
        assert "batch=2" in output
        assert "frame   3" in output          # all frames still reported
        assert "1 hits, 1 misses" in output   # one plan lookup per batch

    def test_stream_bad_batch_rejected(self, capsys):
        assert main(["stream", "--system", "tiny", "--batch", "0"]) == 2
        assert "--batch" in capsys.readouterr().err

    def test_spec_precision_override(self, capsys):
        assert main(["spec", "--system", "tiny",
                     "--set", "precision=float32"]) == 0
        from repro.api import EngineSpec
        spec = EngineSpec.from_json(capsys.readouterr().out)
        assert spec.precision.value == "float32"

    def test_stream_qformat_flag(self, capsys):
        assert main(["stream", "--system", "tiny", "--frames", "2",
                     "--qformat", "18"]) == 0
        output = capsys.readouterr().out
        assert "quantized [delays U13.5" in output
        assert "1 hits, 1 misses" in output    # one quantized plan, reused

    def test_stream_bad_qformat_reported(self, capsys):
        assert main(["stream", "--system", "tiny",
                     "--qformat", "bogus"]) == 2
        assert "Q-format" in capsys.readouterr().err

    def test_spec_qformat_resolves_to_quantization_document(self, capsys):
        assert main(["spec", "--system", "tiny", "--qformat", "U13.5"]) == 0
        from repro.api import EngineSpec, QuantizationSpec
        spec = EngineSpec.from_json(capsys.readouterr().out)
        assert spec.quantization == QuantizationSpec.from_total_bits(18)

    def test_stream_memory_budget_runs_tiled(self, capsys):
        # A quarter-plan budget forces 4 tiles; the segment LRU shows up
        # as evictions in the cache summary and the stream still succeeds.
        assert main(["stream", "--system", "tiny", "--frames", "2",
                     "--memory-budget", "400K"]) == 0
        output = capsys.readouterr().out
        assert "volume rate" in output
        assert "evictions" in output

    def test_spec_memory_budget_normalised_to_bytes(self, capsys):
        assert main(["spec", "--system", "tiny",
                     "--memory-budget", "64K"]) == 0
        from repro.api import EngineSpec
        spec = EngineSpec.from_json(capsys.readouterr().out)
        assert spec.memory_budget_bytes == 65536

    def test_stream_too_small_memory_budget_exits_2(self, capsys):
        assert main(["stream", "--system", "tiny", "--frames", "1",
                     "--memory-budget", "10"]) == 2
        err = capsys.readouterr().err
        # 16 points x (64 elements x 12 B + 8 CSR row pointers x 4 B).
        assert "raise the budget to at least 12800 bytes" in err

    def test_stream_garbage_memory_budget_exits_2(self, capsys):
        assert main(["stream", "--system", "tiny",
                     "--memory-budget", "lots"]) == 2
        assert "memory budget" in capsys.readouterr().err

    def test_serve_check_memory_budget(self, capsys):
        assert main(["serve", "--check", "--system", "tiny",
                     "--memory-budget", "1M"]) == 0
        from repro.server import ServerSpec
        spec = ServerSpec.from_json(capsys.readouterr().out)
        assert spec.session_memory_budget_bytes == 1 << 20

    def test_serve_too_small_memory_budget_exits_2(self, capsys):
        assert main(["serve", "--check", "--system", "tiny",
                     "--memory-budget", "10"]) == 2
        assert "raise the budget" in capsys.readouterr().err


class TestSpecWorkflow:
    def test_spec_prints_resolved_json(self, capsys):
        assert main(["spec", "--system", "tiny",
                     "--architecture", "tablesteer",
                     "--set", "architecture_options.total_bits=14"]) == 0
        from repro.api import EngineSpec
        spec = EngineSpec.from_json(capsys.readouterr().out)
        assert spec.system == "tiny"
        assert spec.architecture_options.total_bits == 14

    def test_spec_file_roundtrips_through_stream(self, tmp_path, capsys):
        path = tmp_path / "engine.json"
        assert main(["spec", "--system", "tiny",
                     "--architecture", "tablefree",
                     "--backend", "vectorized", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["stream", "--spec", str(path), "--frames", "2"]) == 0
        output = capsys.readouterr().out
        assert "architecture=tablefree" in output
        assert "backend=vectorized" in output

    def test_set_overrides_spec_file(self, tmp_path, capsys):
        path = tmp_path / "engine.json"
        assert main(["spec", "--system", "tiny", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["stream", "--spec", str(path), "--frames", "2",
                     "--set", "architecture=tablesteer"]) == 0
        assert "architecture=tablesteer" in capsys.readouterr().out

    def test_unwritable_out_path_reported(self, capsys):
        assert main(["spec", "--system", "tiny",
                     "--out", "/nonexistent/dir/e.json"]) == 2
        assert "cannot write spec file" in capsys.readouterr().err

    def test_missing_spec_file_reported(self, capsys):
        assert main(["stream", "--spec", "/nonexistent/engine.json"]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_bad_override_reported(self, capsys):
        assert main(["spec", "--set", "no_equals"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_run_accepts_spec_system(self, capsys):
        assert main(["run", "E2", "--system", "tiny"]) == 0
        assert "system: tiny" in capsys.readouterr().out

    def test_run_without_explicit_system_keeps_experiment_default(self, capsys):
        # --set alone must not swap the experiment onto EngineSpec's
        # default 'small' system: E1's own default is the paper system.
        assert main(["run", "E1", "--set", "cache_capacity=2"]) == 0
        output = capsys.readouterr().out
        assert "receive elements            : 10000" in output

    def test_run_rejects_invalid_override(self, capsys):
        assert main(["run", "E1", "--set", "backend=warp"]) == 2
        assert "unknown backend" in capsys.readouterr().err


class TestErrorPaths:
    """Every bad input exits non-zero with a message naming the problem."""

    def test_malformed_spec_json_reported(self, tmp_path, capsys):
        bad = tmp_path / "engine.json"
        bad.write_text("{not json")
        assert main(["stream", "--spec", str(bad)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_conflicting_set_overrides_reported(self, capsys):
        # Descending into a scalar with a dotted path would silently
        # clobber the first override; it must fail loudly instead.
        assert main(["spec", "--set", "system=tiny",
                     "--set", "system.depth_max=0.1"]) == 2
        err = capsys.readouterr().err
        assert "cannot apply override" in err and "not a mapping" in err

    def test_unknown_scheme_rejected_with_registry_listing(self, capsys):
        assert main(["stream", "--system", "tiny",
                     "--scheme", "quadruple"]) == 2
        err = capsys.readouterr().err
        assert "unknown scheme 'quadruple'" in err
        assert "planewave" in err


class TestCompiledBackendCli:
    """CLI surface of the optional numba backend: listed always, selectable
    only where numba is installed, actionable error everywhere else.  The
    unavailable paths pin the module flag so they run identically on the
    numba and numba-free CI legs."""

    def test_list_shows_compiled_backend(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "compiled" in output
        assert "fused" in output

    def test_list_marks_compiled_unavailability(self, capsys):
        from repro.kernels import numba_available
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert ("unavailable: numba is not installed" in output) \
            == (not numba_available())

    def test_stream_compiled_without_numba_exits_2(self, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", False)
        assert main(["stream", "--system", "tiny", "--backend", "compiled",
                     "--frames", "1"]) == 2
        err = capsys.readouterr().err
        assert "numba" in err
        assert "pip install numba" in err
        assert "vectorized" in err      # names a working alternative

    def test_stream_compiled_quantized_exits_2(self, capsys, monkeypatch):
        # The quantized rejection is a design restriction, so it must not
        # depend on whether numba happens to be installed.
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", False)
        assert main(["stream", "--system", "tiny", "--backend", "compiled",
                     "--set", "quantization=18", "--frames", "1"]) == 2
        err = capsys.readouterr().err
        assert "quantized" in err
        assert "numba" not in err


class TestServeCommand:
    def test_serve_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "backpressure" in capsys.readouterr().out

    def test_serve_check_prints_resolved_spec(self, capsys):
        assert main(["serve", "--check", "--system", "tiny",
                     "--policy", "drop_oldest",
                     "--set", "queue_capacity=3"]) == 0
        out = capsys.readouterr().out
        assert '"policy": "drop_oldest"' in out
        assert '"queue_capacity": 3' in out
        assert '"system": "tiny"' in out

    def test_serve_runs_sessions_and_reports(self, capsys):
        assert main(["serve", "--system", "tiny", "--sessions", "2",
                     "--frames", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Serving 2 sessions x 2 frames" in out
        assert "session s0" in out and "session s1" in out
        assert "voxels/s" in out

    def test_serve_writes_metrics(self, tmp_path, capsys):
        out_file = tmp_path / "serve.prom"
        assert main(["serve", "--system", "tiny", "--sessions", "1",
                     "--frames", "1", "--metrics-out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "server_frames_total" in text
        assert 'quantile="0.99"' in text

    def test_serve_unknown_backend_rejected(self, capsys):
        assert main(["serve", "--check", "--backend", "gpu"]) == 2
        assert "unknown backend 'gpu'" in capsys.readouterr().err

    def test_serve_unknown_policy_rejected(self, capsys):
        assert main(["serve", "--check", "--policy", "newest"]) == 2
        err = capsys.readouterr().err
        assert "unknown backpressure policy" in err
        assert "drop_oldest" in err

    def test_serve_malformed_spec_json_reported(self, tmp_path, capsys):
        bad = tmp_path / "server.json"
        bad.write_text("{broken")
        assert main(["serve", "--check", "--spec", str(bad)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stream", "serve", "sweep"])
    def test_spec_file_must_hold_an_object(self, tmp_path, capsys, command):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        assert main([command, "--spec", str(listed)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_sweep_non_finite_noise_rejected(self, capsys):
        assert main(["sweep", "--check", "--system", "tiny",
                     "--set", "sweep.noise_std=NaN"]) == 2
        assert "noise_std" in capsys.readouterr().err

    def test_serve_unknown_spec_field_rejected(self, capsys):
        assert main(["serve", "--check", "--set", "worker_count=4"]) == 2
        assert "unknown server spec field" in capsys.readouterr().err

    def test_serve_bad_session_count_rejected(self, capsys):
        assert main(["serve", "--sessions", "0"]) == 2
        assert "--sessions" in capsys.readouterr().err


@pytest.mark.parametrize("command,check", [
    ("spec", []), ("serve", ["--check"]), ("sweep", ["--check"])])
def test_printed_document_round_trips_through_spec(tmp_path, capsys,
                                                   command, check):
    """A document printed by a command, fed back through ``--spec``,
    prints the identical text."""
    assert main([command, *check, "--system", "tiny",
                 "--set", "engine.quantization=18" if check
                 else "quantization=18"]) == 0
    text = capsys.readouterr().out
    document = tmp_path / "doc.json"
    document.write_text(text)
    assert main([command, *check, "--spec", str(document)]) == 0
    assert capsys.readouterr().out == text
