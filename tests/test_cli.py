"""The swsample command-line interface."""

import io
import json
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.window == "sequence"
        assert args.k == 8
        assert args.algorithm == "optimal"

    def test_experiment_arguments(self):
        args = build_parser().parse_args(["experiment", "E3", "--scale", "smoke", "--markdown"])
        assert args.experiment == "E3"
        assert args.scale == "smoke"
        assert args.markdown is True

    def test_serve_defaults_share_the_engine_recipe(self):
        args = build_parser().parse_args(["serve"])
        engine_args = build_parser().parse_args(["engine"])
        # One recipe, two front-ends: the spec/sharding flags must agree.
        for name in ("window", "n", "t0", "k", "algorithm", "shards", "seed"):
            assert getattr(args, name) == getattr(engine_args, name)
        assert args.host == "127.0.0.1"
        assert args.port == 9500
        assert args.socket_port is None
        assert args.tenant is None
        assert args.resume is False
        assert args.max_pending > 0

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--socket-port", "0", "--tenant", "a",
             "--tenant", "b", "--checkpoint-dir", "/tmp/x", "--resume",
             "--max-pending", "500", "--ready-file", "/tmp/r.json"]
        )
        assert args.tenant == ["a", "b"]
        assert args.resume is True
        assert args.max_pending == 500


class TestServeCommandValidation:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["serve", "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_executor_requires_workers(self, capsys):
        assert main(["serve", "--executor", "process"]) == 2
        assert "requires --workers" in capsys.readouterr().err

    def test_workers_cannot_exceed_shards(self, capsys):
        assert main(["serve", "--shards", "2", "--workers", "3"]) == 2
        assert "exceeds --shards" in capsys.readouterr().err

    def test_checkpoint_interval_requires_checkpoint_dir(self, capsys):
        assert main(["serve", "--checkpoint-interval", "5"]) == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_checkpointing_baselines_is_refused(self, capsys, tmp_path):
        assert main(["serve", "--algorithm", "periodic",
                     "--checkpoint-dir", str(tmp_path)]) == 2
        assert "requires --algorithm optimal" in capsys.readouterr().err

    def test_unwritable_metrics_out_fails_up_front(self, capsys):
        assert main(["serve", "--metrics-out", "/nonexistent/dir/m.json"]) == 2
        assert "is not writable" in capsys.readouterr().err


class TestListCommand:
    def test_lists_algorithms_workloads_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "optimal" in output
        assert "uniform-sequence" in output
        assert "keyed-zipf" in output
        assert "E10" in output


class TestRunCommand:
    def test_sequence_run(self, capsys):
        exit_code = main(
            ["run", "--window", "sequence", "--n", "100", "-k", "3", "--length", "1000", "--seed", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "memory (words)" in output
        assert "sample (3 elements)" in output

    def test_timestamp_run_with_baseline(self, capsys):
        exit_code = main(
            [
                "run", "--window", "timestamp", "--t0", "50", "-k", "2",
                "--workload", "sensor-poisson", "--length", "500", "--algorithm", "priority",
            ]
        )
        assert exit_code == 0
        assert "bdm-priority-wr" in capsys.readouterr().out

    def test_without_replacement_run(self, capsys):
        exit_code = main(
            ["run", "--without-replacement", "--n", "50", "-k", "5", "--length", "300"]
        )
        assert exit_code == 0
        assert "sample (5 elements)" in capsys.readouterr().out


class TestEngineCommand:
    def test_engine_run_reports_fleet_statistics(self, capsys):
        exit_code = main(
            ["engine", "--records", "5000", "--keys", "50", "--shards", "2", "-k", "3", "--seed", "9"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "live keys       : 50" in output
        assert "memory (words)" in output
        assert "hottest 5 keys" in output
        assert "merged frequent values" in output

    def test_engine_checkpoint_then_resume(self, capsys, tmp_path):
        path = str(tmp_path / "engine.ckpt")
        assert main(["engine", "--records", "2000", "--keys", "20", "--checkpoint", path]) == 0
        assert "checkpoint      : " in capsys.readouterr().out
        assert main(["engine", "--resume", path, "--records", "1000", "--keys", "20"]) == 0
        output = capsys.readouterr().out
        assert "resumed" in output
        assert "(20 keys, 2000 records)" in output

    def test_engine_checkpoint_with_baseline_algorithm_is_refused(self, capsys, tmp_path):
        exit_code = main(
            ["engine", "--algorithm", "chain", "--records", "100", "--keys", "5",
             "--checkpoint", str(tmp_path / "nope.ckpt")]
        )
        assert exit_code == 2
        assert "baseline samplers do not support state snapshots" in capsys.readouterr().err
        assert not (tmp_path / "nope.ckpt").exists()

    def test_engine_eviction_budget(self, capsys):
        exit_code = main(
            ["engine", "--records", "3000", "--keys", "100", "--shards", "2",
             "--max-keys-per-shard", "10", "--workload", "keyed-uniform"]
        )
        assert exit_code == 0
        assert "evicted" in capsys.readouterr().out

    def test_engine_timestamp_window(self, capsys):
        exit_code = main(
            ["engine", "--window", "timestamp", "--t0", "100", "--records", "2000",
             "--keys", "20", "--without-replacement"]
        )
        assert exit_code == 0
        assert "t0=100" in capsys.readouterr().out

    def test_engine_timestamp_resume_continues_the_clock(self, capsys, tmp_path):
        path = str(tmp_path / "ts.ckpt")
        args = ["engine", "--window", "timestamp", "--t0", "200", "--records", "2000", "--keys", "20"]
        assert main(args + ["--checkpoint", path]) == 0
        capsys.readouterr()
        # The resumed batch's timestamps must be shifted past the restored
        # clock, not restart at zero (which would raise StreamOrderError).
        assert main(["engine", "--resume", path, "--records", "1000", "--keys", "20"]) == 0
        assert "resumed" in capsys.readouterr().out


@pytest.mark.slow
class TestExperimentCommand:
    def test_experiment_text_output(self, capsys):
        assert main(["experiment", "E10", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "[E10]" in output

    def test_experiment_markdown_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        assert main(["experiment", "E10", "--scale", "smoke", "--markdown", "--csv", str(csv_path)]) == 0
        output = capsys.readouterr().out
        assert "**E10" in output
        assert csv_path.exists()


class TestEngineStreamingAndWorkers:
    def test_engine_with_workers_reports_worker_count(self, capsys):
        # No --executor: --workers N alone builds process workers.
        exit_code = main(
            ["engine", "--records", "3000", "--keys", "30", "--shards", "4", "--workers", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "shards          : 4 (2 process workers)" in output
        assert "live keys       : 30" in output

    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_engine_rejects_thread_executor(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--workers", "2", "--executor", "thread"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_executor_flag_still_accepts_process(self, command):
        # Scripts written before process workers became the default pass
        # `--executor process` explicitly; it must keep parsing as a no-op.
        explicit = build_parser().parse_args([command, "--workers", "2", "--executor", "process"])
        implicit = build_parser().parse_args([command, "--workers", "2"])
        assert explicit.executor == "process"
        assert implicit.executor is None
        assert explicit.workers == implicit.workers == 2

    def test_engine_workers_match_serial_sample(self, capsys):
        args = ["engine", "--records", "3000", "--keys", "30", "--shards", "4", "--seed", "6"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "3"]) == 0
        parallel = capsys.readouterr().out
        extract = lambda text: [line for line in text.splitlines() if "sample of hottest" in line]
        assert extract(serial) == extract(parallel)

    def test_engine_rejects_bad_workers_and_batch_size(self, capsys):
        assert main(["engine", "--records", "100", "--keys", "5", "--workers", "0"]) == 2
        assert "--workers must be positive" in capsys.readouterr().err
        assert main(["engine", "--records", "100", "--keys", "5", "--batch-size", "0"]) == 2
        assert "--batch-size must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["engine", "serve"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--fast"], "unrecognized arguments: --fast"),
            (["--kernel", "auto"], "unrecognized arguments: --kernel auto"),
            (["--kernel", "numpy"], "unrecognized arguments: --kernel numpy"),
        ],
        ids=["fast", "kernel-auto", "kernel-numpy"],
    )
    def test_removed_kernel_options_exit_2(self, capsys, command, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            main([command] + flags)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_max_batch_is_not_a_flag(self, capsys, command):
        # The dispatch sub-batch size is a module constant, not a flag.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--workers", "2", "--max-batch", "64"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-batch" in capsys.readouterr().err

    def test_engine_rejects_more_workers_than_shards(self, capsys):
        # Pre-PR-3 this silently clamped; now the misconfiguration is loud.
        assert main(
            ["engine", "--records", "100", "--keys", "5", "--shards", "2", "--workers", "8"]
        ) == 2
        assert "--workers 8 exceeds --shards 2" in capsys.readouterr().err

    def test_engine_rejects_resume_workers_beyond_checkpoint_shards(self, capsys, tmp_path):
        path = str(tmp_path / "engine.ckpt")
        assert main(["engine", "--records", "500", "--keys", "10", "--shards", "2",
                     "--checkpoint", path]) == 0
        capsys.readouterr()
        assert main(["engine", "--resume", path, "--records", "100", "--keys", "10",
                     "--workers", "8"]) == 2
        assert "exceeds the checkpoint's 2 shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "worker_args", [[], ["--workers", "2"], ["--workers", "8"]],
        ids=["serial", "workers-2", "workers-beyond-shards"],
    )
    def test_engine_resume_rejects_v1_single_file_checkpoint(
        self, capsys, tmp_path, worker_args
    ):
        # The worker-count preflight peeks at a manifest; a v1 file has
        # none, so the loader's own refusal must still be what surfaces.
        import pickle

        from repro.engine import SamplerSpec, ShardedEngine

        engine = ShardedEngine(SamplerSpec(window="sequence", n=500, k=4), shards=2, seed=0)
        engine.ingest([(f"u{i % 5}", i) for i in range(100)])
        v1_file = tmp_path / "v1.ckpt"
        v1_file.write_bytes(pickle.dumps({
            "magic": "swsample-engine-checkpoint", "version": 1,
            "engine": engine.state_dict(),
        }))
        assert main(["engine", "--resume", str(v1_file), "--records", "100",
                     "--keys", "5", *worker_args]) == 2
        err = capsys.readouterr().err
        assert str(v1_file) in err
        assert "single-file v1 checkpoints are no longer readable" in err

    def test_engine_rejects_executor_without_workers(self, capsys, monkeypatch):
        # The classic stdin misconfiguration: a process executor requested
        # for a streaming ingest but the worker count forgotten — the
        # executor flag would be silently ignored by a serial engine.
        lines = io.StringIO(json.dumps(["u1", 1]) + "\n")
        monkeypatch.setattr(sys, "stdin", lines)
        assert main(["engine", "--input", "-", "--executor", "process"]) == 2
        err = capsys.readouterr().err
        assert "--executor process requires --workers" in err

    def test_engine_process_executor_runs_and_reports(self, capsys):
        exit_code = main(
            ["engine", "--records", "2000", "--keys", "20", "--shards", "4",
             "--workers", "2", "--executor", "process", "--seed", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "shards          : 4 (2 process workers)" in output
        assert "live keys       : 20" in output

    def test_engine_process_executor_matches_serial_sample(self, capsys):
        args = ["engine", "--records", "3000", "--keys", "30", "--shards", "4", "--seed", "6"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2", "--executor", "process"]) == 0
        parallel = capsys.readouterr().out
        extract = lambda text: [line for line in text.splitlines() if "sample of hottest" in line]
        assert extract(serial) == extract(parallel)

    def test_engine_process_checkpoint_resume_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "engine.ckpt")
        assert main(["engine", "--records", "2000", "--keys", "20", "--workers", "2",
                     "--executor", "process", "--checkpoint", path]) == 0
        assert "segments written" in capsys.readouterr().out
        assert main(["engine", "--resume", path, "--records", "1000", "--keys", "20",
                     "--workers", "2", "--executor", "process"]) == 0
        assert "(20 keys, 2000 records)" in capsys.readouterr().out

    def test_engine_ingests_jsonl_file(self, capsys, tmp_path):
        stream = tmp_path / "records.jsonl"
        stream.write_text(
            "\n".join(json.dumps({"key": f"u{i % 7}", "value": i % 3}) for i in range(500))
        )
        exit_code = main(["engine", "--input", str(stream), "--shards", "2", "-k", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert f"workload        : {stream} (500 records over streamed keys)" in output
        assert "live keys       : 7" in output

    def test_engine_ingests_jsonl_stdin(self, capsys, monkeypatch):
        lines = io.StringIO(
            "\n".join(json.dumps([f"u{i % 5}", i]) for i in range(200)) + "\n"
        )
        monkeypatch.setattr(sys, "stdin", lines)
        exit_code = main(["engine", "--input", "-", "--workers", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "workload        : stdin (200 records over streamed keys)" in output

    def test_engine_jsonl_checkpoint_resume_round_trip(self, capsys, tmp_path):
        stream = tmp_path / "records.jsonl"
        stream.write_text(
            "\n".join(json.dumps({"key": f"u{i % 7}", "value": i}) for i in range(400))
        )
        path = str(tmp_path / "engine.ckpt")
        assert main(["engine", "--input", str(stream), "--workers", "2", "--checkpoint", path]) == 0
        assert "segments written" in capsys.readouterr().out
        assert main(["engine", "--resume", path, "--records", "100", "--keys", "7"]) == 0
        assert "(7 keys, 400 records)" in capsys.readouterr().out

    def test_engine_missing_input_file_is_a_friendly_error(self, capsys):
        assert main(["engine", "--input", "/nonexistent/feed.jsonl"]) == 2
        assert "cannot read --input" in capsys.readouterr().err

    def test_engine_missing_resume_checkpoint_is_a_friendly_error(self, capsys):
        assert main(["engine", "--resume", "/nonexistent/engine.ckpt", "--records", "10", "--keys", "2"]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_engine_malformed_jsonl_is_a_friendly_error(self, capsys, tmp_path):
        stream = tmp_path / "bad.jsonl"
        stream.write_text('["a", 1]\n{broken\n')
        assert main(["engine", "--input", str(stream)]) == 2
        err = capsys.readouterr().err
        assert "bad record" in err and "line 2" in err

    def test_engine_baseline_checkpoint_refusal_closes_workers(self, capsys):
        import multiprocessing
        import threading
        import time

        before = threading.active_count()
        assert main(["engine", "--algorithm", "chain", "--records", "100", "--keys", "5",
                     "--workers", "2", "--checkpoint", "/tmp/never.ckpt"]) == 2
        assert "requires --algorithm optimal" in capsys.readouterr().err
        assert multiprocessing.active_children() == []  # worker processes reaped
        # The queues' feeder threads finish flushing just after close().
        deadline = time.monotonic() + 10
        while threading.active_count() > before:
            assert time.monotonic() < deadline, "coordinator threads leaked"
            time.sleep(0.01)

    def test_engine_query_file_resolves_a_batch(self, capsys, tmp_path):
        stream = tmp_path / "records.jsonl"
        stream.write_text(
            "\n".join(json.dumps({"key": f"u{i % 5}", "value": i}) for i in range(300))
        )
        ops = tmp_path / "ops.jsonl"
        ops.write_text(
            "# standing report, one fleet pass\n"
            '{"op": "hottest", "top": 3}\n'
            "\n"
            '{"op": "contains", "key": "u1"}\n'
            '{"op": "sample", "key": "never-seen"}\n'
            '{"op": "stats"}\n'
        )
        assert main(["engine", "--input", str(stream), "--workers", "2",
                     "--query-file", str(ops)]) == 0
        output = capsys.readouterr().out
        assert "query batch     : 4 ops, one fleet pass" in output
        lines = [json.loads(line) for line in output.splitlines()
                 if line.startswith("{")]
        assert len(lines) == 4
        hottest, contains, missing, stats = lines
        assert hottest["ok"] and len(hottest["hottest"]) == 3
        assert contains == {"op": "contains", "ok": True, "contains": True}
        # A missing key is an inline per-op error, not a dead batch.
        assert missing["ok"] is False and missing["error"] == "KeyError"
        assert stats["ok"] and stats["stats"]["arrivals"] == 300

    def test_engine_query_file_cannot_share_stdin_and_reports_missing_files(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO('["a", 1]\n'))
        assert main(["engine", "--input", "-", "--query-file", "-"]) == 2
        assert "cannot share stdin" in capsys.readouterr().err
        assert main(["engine", "--records", "50", "--keys", "3",
                     "--query-file", "/nonexistent/ops.jsonl"]) == 2
        assert "cannot read --query-file" in capsys.readouterr().err

    def test_engine_query_file_bad_ops_are_friendly_errors(self, capsys, tmp_path):
        bad_json = tmp_path / "bad.jsonl"
        bad_json.write_text('{"op": "stats"}\n{broken\n')
        assert main(["engine", "--records", "50", "--keys", "3",
                     "--query-file", str(bad_json)]) == 2
        assert "line 2 is not JSON" in capsys.readouterr().err
        bad_op = tmp_path / "badop.jsonl"
        bad_op.write_text('{"op": "wibble"}\n')
        assert main(["engine", "--records", "50", "--keys", "3",
                     "--query-file", str(bad_op)]) == 2
        assert "bad query op" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("# nothing here\n\n")
        assert main(["engine", "--records", "50", "--keys", "3",
                     "--query-file", str(empty)]) == 2
        assert "contains no ops" in capsys.readouterr().err


class TestEngineObservability:
    def teardown_method(self):
        from repro.obs import reset_logging
        reset_logging()

    def test_metrics_out_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["engine", "--records", "2000", "--keys", "20", "--shards", "2",
                     "--metrics-out", str(path)]) == 0
        assert f"metrics         : {path} (json)" in capsys.readouterr().out
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["engine.ingest.records"] == 2000
        assert snapshot["gauges"]["engine.keys.active"] == 20

    def test_metrics_out_prometheus_text(self, capsys, tmp_path):
        from repro.obs import parse_prometheus_text

        path = tmp_path / "metrics.prom"
        assert main(["engine", "--records", "2000", "--keys", "20", "--shards", "2",
                     "--workers", "2", "--executor", "process",
                     "--metrics-out", str(path), "--metrics-format", "prom"]) == 0
        capsys.readouterr()
        parsed = parse_prometheus_text(path.read_text())
        samples = {name: value for name, labels, value in parsed["samples"] if not labels}
        assert samples["swsample_engine_ingest_records"] == 2000
        assert samples["swsample_worker_applied_records"] == 2000
        assert samples["swsample_fleet_workers"] == 2

    def test_metrics_out_stdout(self, capsys):
        assert main(["engine", "--records", "500", "--keys", "10",
                     "--metrics-out", "-"]) == 0
        output = capsys.readouterr().out
        start = output.index("{")
        snapshot = json.loads(output[start:])
        assert snapshot["counters"]["engine.ingest.records"] == 500

    def test_metrics_out_includes_checkpoint_counters(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert main(["engine", "--records", "1000", "--keys", "10",
                     "--checkpoint", str(tmp_path / "engine.ckpt"),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["checkpoint.saves"] == 1
        assert snapshot["histograms"]["checkpoint.write.seconds"]["count"] == 1

    def test_metrics_out_unwritable_path_is_a_friendly_error(self, capsys):
        assert main(["engine", "--records", "100", "--keys", "5",
                     "--metrics-out", "/nonexistent/dir/metrics.json"]) == 2
        assert "is not writable" in capsys.readouterr().err

    def test_metrics_out_unwritable_path_fails_before_ingest(self, capsys, monkeypatch):
        # Regression: the path used to be probed only after the full ingest
        # run, throwing away all the work.  Now it fails before any records
        # are generated or ingested.
        import repro.cli as cli_module

        def exploding(*args, **kwargs):
            raise AssertionError("ingest ran despite an unwritable --metrics-out")

        monkeypatch.setattr(cli_module, "build_keyed_workload", exploding)
        assert main(["engine", "--records", "100", "--keys", "5",
                     "--metrics-out", "/nonexistent/dir/metrics.json"]) == 2
        assert "is not writable" in capsys.readouterr().err

    def test_metrics_out_probe_does_not_truncate_existing_files(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("precious")
        from repro.cli import _check_writable_path

        assert _check_writable_path(str(path)) is None
        assert path.read_text() == "precious"  # append-mode probe, no truncation
        missing = tmp_path / "new.json"
        assert _check_writable_path(str(missing)) is None
        assert not missing.exists()  # create-probe cleans up after itself
        assert _check_writable_path("-") is None
        assert _check_writable_path("/nonexistent/dir/m.json") is not None

    def test_eviction_breakdown_in_fleet_statistics(self, capsys):
        assert main(["engine", "--records", "3000", "--keys", "100", "--shards", "2",
                     "--max-keys-per-shard", "10", "--workload", "keyed-uniform"]) == 0
        output = capsys.readouterr().out
        assert "evicted:" in output and "lru" in output and "ttl" in output

    def test_log_level_configures_structured_logging(self, capfd):
        from repro.obs import logging_config

        assert main(["engine", "--records", "500", "--keys", "10",
                     "--log-level", "debug", "--log-json"]) == 0
        assert logging_config() == {"level": "debug", "json": True}

    def test_log_json_implies_info(self):
        from repro.obs import logging_config

        assert main(["engine", "--records", "100", "--keys", "5", "--log-json"]) == 0
        assert logging_config() == {"level": "info", "json": True}

    def test_worker_processes_inherit_log_config(self, capfd):
        assert main(["engine", "--records", "1000", "--keys", "10", "--shards", "2",
                     "--workers", "2", "--executor", "process",
                     "--log-level", "info", "--log-json"]) == 0
        captured = capfd.readouterr().err
        online = [json.loads(line) for line in captured.splitlines()
                  if '"shard worker online' in line]
        assert len(online) == 2
        assert all(payload["logger"] == "repro.engine.worker" for payload in online)


class TestDurabilityFlags:
    """--wal-dir / --supervise / --max-restarts validation, shared by the
    engine and serve front-ends (one recipe, one rulebook)."""

    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_wal_dir_requires_process_workers(self, capsys, command, tmp_path):
        assert main([command, "--wal-dir", str(tmp_path / "wal")]) == 2
        assert "--wal-dir requires --workers N" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_wal_fsync_requires_wal_dir(self, capsys, command):
        assert main([command, "--wal-fsync", "always"]) == 2
        assert "--wal-fsync requires --wal-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_supervise_requires_wal_dir(self, capsys, command):
        assert main([command, "--supervise"]) == 2
        assert "--supervise requires --wal-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_max_restarts_requires_supervise(self, capsys, command, tmp_path):
        assert main([command, "--wal-dir", str(tmp_path / "wal"), "--workers", "2",
                     "--executor", "process", "--max-restarts", "3"]) == 2
        assert "--max-restarts requires --supervise" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("command", ["engine", "serve"])
    def test_max_restarts_must_be_positive(self, capsys, command, count, tmp_path):
        assert main([command, "--wal-dir", str(tmp_path / "wal"), "--workers", "2",
                     "--executor", "process", "--supervise", "--max-restarts", count]) == 2
        assert "--max-restarts must be positive" in capsys.readouterr().err

    def test_supervised_engine_run_journals_to_wal_dir(self, capsys, tmp_path):
        wal = tmp_path / "wal"
        assert main(["engine", "--records", "2000", "--keys", "20", "--shards", "4",
                     "--workers", "2", "--executor", "process",
                     "--supervise", "--wal-dir", str(wal),
                     "--max-restarts", "3"]) == 0
        assert "live keys       : 20" in capsys.readouterr().out
        journals = sorted(wal.glob("shard-*.wal"))
        assert journals and any(path.stat().st_size > 0 for path in journals)

    def test_checkpointed_supervised_run_truncates_the_journal(self, capsys, tmp_path):
        wal = tmp_path / "wal"
        path = str(tmp_path / "engine.ckpt")
        assert main(["engine", "--records", "1000", "--keys", "10", "--shards", "2",
                     "--workers", "2", "--executor", "process",
                     "--supervise", "--wal-dir", str(wal),
                     "--checkpoint", path]) == 0
        capsys.readouterr()
        # The final checkpoint superseded the journal: nothing left to replay.
        assert all(p.stat().st_size == 0 for p in wal.glob("shard-*.wal"))
        assert main(["engine", "--resume", path, "--records", "500", "--keys", "10",
                     "--workers", "2", "--executor", "process",
                     "--supervise", "--wal-dir", str(wal)]) == 0
        assert "resumed" in capsys.readouterr().out
