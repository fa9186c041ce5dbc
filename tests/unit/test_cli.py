"""Unit tests for the sqlog-clean CLI."""

import json

import pytest

from repro.cli.main import main
from repro import open_log
from repro.obs.metrics import EXECUTOR_DEPENDENT_COUNTERS


def read_log(path):
    return open_log(path).read()


@pytest.fixture()
def generated_csv(tmp_path):
    path = tmp_path / "log.csv"
    assert main(["generate", str(path), "--seed", "3", "--scale", "0.03"]) == 0
    return path


class TestGenerate:
    def test_generate_csv(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        assert main(["generate", str(path), "--scale", "0.03"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert len(read_log(path)) > 50

    def test_generate_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert main(["generate", str(path), "--scale", "0.03"]) == 0
        assert len(read_log(path)) > 50


class TestClean:
    def test_clean_prints_overview(self, generated_csv, capsys):
        assert main(["clean", str(generated_csv), "--skyserver-schema"]) == 0
        out = capsys.readouterr().out
        assert "Size of original query log" in out

    def test_template_dict_flag_is_rejected(self, generated_csv, tmp_path):
        # The template-dictionary sidecar is gone; argparse must refuse
        # the flag rather than silently ignore it.
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "clean",
                    str(generated_csv),
                    "--template-dict",
                    str(tmp_path / "templates.dict"),
                ]
            )
        assert exit_info.value.code == 2
        assert not (tmp_path / "templates.dict").exists()

    def test_clean_writes_output(self, generated_csv, tmp_path, capsys):
        out_path = tmp_path / "clean.csv"
        assert (
            main(
                [
                    "clean",
                    str(generated_csv),
                    "--skyserver-schema",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        cleaned = read_log(out_path)
        original = read_log(generated_csv)
        assert 0 < len(cleaned) <= len(original)


class TestCleanObservability:
    def test_metrics_json_written(self, generated_csv, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "clean",
                    str(generated_csv),
                    "--skyserver-schema",
                    "--metrics-json",
                    str(metrics_path),
                ]
            )
            == 0
        )
        assert "wrote per-stage metrics" in capsys.readouterr().out
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        stages = metrics["stages"]
        assert set(stages) >= {"dedup", "parse", "mine", "detect", "solve"}
        assert stages["dedup"]["counters"]["records_in"] == len(
            read_log(generated_csv)
        )
        assert "conservation_violations" not in metrics

    def test_metrics_json_covers_every_mode(self, generated_csv, tmp_path):
        ledgers = {}
        for name, flags in {
            "batch": [],
            "streaming": ["--streaming"],
            "parallel": ["--parallel", "--workers", "2"],
        }.items():
            path = tmp_path / f"{name}.json"
            assert (
                main(
                    [
                        "clean",
                        str(generated_csv),
                        "--skyserver-schema",
                        *flags,
                        "--metrics-json",
                        str(path),
                    ]
                )
                == 0
            )
            stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
            # Executor-dependent counters (parse-cache traffic, interner
            # size) legitimately differ across modes — the parallel run
            # pays one cache miss per template per shard where batch
            # pays one total.  The cross-mode contract is comparable():
            # everything else must match exactly.
            ledgers[name] = {
                stage: {
                    counter: value
                    for counter, value in stages[stage]["counters"].items()
                    if counter
                    not in EXECUTOR_DEPENDENT_COUNTERS.get(stage, frozenset())
                }
                for stage in ("dedup", "parse", "solve")
            }
        assert ledgers["batch"] == ledgers["streaming"] == ledgers["parallel"]

    def test_metrics_json_creates_parent_dirs(self, generated_csv, tmp_path):
        metrics_path = tmp_path / "nested" / "deeper" / "metrics.json"
        assert (
            main(
                [
                    "clean",
                    str(generated_csv),
                    "--skyserver-schema",
                    "--metrics-json",
                    str(metrics_path),
                ]
            )
            == 0
        )
        assert "stages" in json.loads(metrics_path.read_text(encoding="utf-8"))

    def test_trace_streams_jsonl_to_stderr(self, generated_csv, capsys):
        assert (
            main(["clean", str(generated_csv), "--skyserver-schema", "--trace"])
            == 0
        )
        events = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.strip()
        ]
        spans = [e for e in events if e["event"] == "span"]
        assert {"dedup", "parse", "detect", "solve"} <= {
            e["stage"] for e in spans
        }
        assert events[-1]["event"] == "metrics"
        assert events[-1]["stages"]["dedup"]["counters"]["records_in"] > 0


@pytest.fixture()
def poisoned_csv(generated_csv):
    # three failure classes: an unreadable row (io), a NaN timestamp
    # (validate stage) and garbage SQL (parse stage)
    with open(generated_csv, "a", encoding="utf-8", newline="") as handle:
        handle.write("9001,nan,u1,,,,SELECT name FROM Employee\n")
        handle.write("9002,notatime,u1,,,,SELECT name FROM Employee\n")
        handle.write("9003,50.0,u1,,,,SELEKT garbage !!\n")
    return generated_csv


class TestCleanErrorPolicy:
    def test_strict_raises_on_unreadable_row(self, poisoned_csv):
        with pytest.raises(ValueError, match="malformed row"):
            main(["clean", str(poisoned_csv), "--skyserver-schema"])

    def test_quarantine_cleans_and_reports(self, poisoned_csv, tmp_path, capsys):
        quarantine_path = tmp_path / "audit" / "quarantine.json"
        assert (
            main(
                [
                    "clean",
                    str(poisoned_csv),
                    "--skyserver-schema",
                    "--error-policy",
                    "quarantine",
                    "--quarantine-json",
                    str(quarantine_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantined" in out and "records" in out
        payload = json.loads(quarantine_path.read_text(encoding="utf-8"))
        assert payload["error_policy"] == "quarantine"
        reasons = payload["by_reason"]
        assert reasons["unreadable_record"] == 1
        assert reasons["invalid_timestamp"] == 1
        # ours plus whatever syntax errors the generator itself planted
        assert reasons["parse_error"] >= 1
        assert payload["count"] == sum(reasons.values())

    def test_lenient_cleans_without_capture(self, poisoned_csv, capsys):
        assert (
            main(
                [
                    "clean",
                    str(poisoned_csv),
                    "--skyserver-schema",
                    "--error-policy",
                    "lenient",
                ]
            )
            == 0
        )
        assert "quarantined" not in capsys.readouterr().out


class TestPatterns:
    def test_patterns_listing(self, generated_csv, capsys):
        assert (
            main(["patterns", str(generated_csv), "--skyserver-schema", "--top", "5"])
            == 0
        )
        out = capsys.readouterr().out
        assert "freq" in out
        assert len([l for l in out.splitlines() if l.strip()]) >= 3


class TestCluster:
    def test_cluster_comparison(self, generated_csv, capsys):
        assert (
            main(
                [
                    "cluster",
                    str(generated_csv),
                    "--skyserver-schema",
                    "--thresholds",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "raw" in out and "clean" in out and "removal" in out


class TestStreamingClean:
    def test_streaming_clean(self, generated_csv, tmp_path, capsys):
        out_path = tmp_path / "clean.csv"
        assert (
            main(
                [
                    "clean",
                    str(generated_csv),
                    "--skyserver-schema",
                    "--streaming",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "streamed" in capsys.readouterr().out
        assert out_path.exists()

    def test_streaming_matches_batch(self, generated_csv, tmp_path):
        batch_path = tmp_path / "batch.csv"
        stream_path = tmp_path / "stream.csv"
        main(["clean", str(generated_csv), "--skyserver-schema", "-o", str(batch_path)])
        main(
            [
                "clean",
                str(generated_csv),
                "--skyserver-schema",
                "--streaming",
                "-o",
                str(stream_path),
            ]
        )
        assert read_log(batch_path).statements() == read_log(stream_path).statements()


class TestConvert:
    def test_round_trip_chain(self, generated_csv, tmp_path, capsys):
        """csv -> columnar -> jsonl -> csv preserves every record."""
        store = tmp_path / "log.columnar"
        jsonl = tmp_path / "log.jsonl"
        back = tmp_path / "back.csv"
        assert main(["convert", str(generated_csv), str(store)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["convert", str(store), str(jsonl)]) == 0
        assert main(["convert", str(jsonl), str(back)]) == 0
        assert read_log(back) == read_log(generated_csv)

    def test_explicit_to_overrides_extension(self, generated_csv, tmp_path):
        odd = tmp_path / "log.dat"
        assert main(["convert", str(generated_csv), str(odd), "--to", "jsonl"]) == 0
        assert open_log(odd, format="jsonl").read() == read_log(generated_csv)

    def test_clean_reads_columnar_store(self, generated_csv, tmp_path, capsys):
        store = tmp_path / "log.columnar"
        out_path = tmp_path / "clean.jsonl"
        main(["convert", str(generated_csv), str(store)])
        capsys.readouterr()
        assert (
            main(
                [
                    "clean",
                    str(store),
                    "--skyserver-schema",
                    "--streaming",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        batch_path = tmp_path / "batch.jsonl"
        main(
            ["clean", str(generated_csv), "--skyserver-schema", "-o", str(batch_path)]
        )
        assert read_log(out_path) == read_log(batch_path)


class TestCheckpointFlags:
    def test_checkpoint_and_resume_round_trip(self, generated_csv, tmp_path):
        direct = tmp_path / "direct.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        ck = tmp_path / "ck"
        args = ["clean", str(generated_csv), "--skyserver-schema", "--streaming"]
        assert main(args + ["-o", str(direct)]) == 0
        assert main(args + ["--checkpoint-dir", str(ck), "-o", str(direct)]) == 0
        assert (ck / "state.json").exists()
        assert (
            main(
                args
                + ["--checkpoint-dir", str(ck), "--resume", "-o", str(resumed)]
            )
            == 0
        )
        assert resumed.read_bytes() == direct.read_bytes()

    def test_checkpoint_dir_requires_streaming(self, generated_csv, tmp_path, capsys):
        rc = main(
            [
                "clean",
                str(generated_csv),
                "--checkpoint-dir",
                str(tmp_path / "ck"),
            ]
        )
        assert rc == 2
        assert "--streaming" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, generated_csv, capsys):
        rc = main(["clean", str(generated_csv), "--streaming", "--resume"])
        assert rc == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_without_state_fails_cleanly(self, generated_csv, tmp_path, capsys):
        rc = main(
            [
                "clean",
                str(generated_csv),
                "--streaming",
                "--checkpoint-dir",
                str(tmp_path / "empty"),
                "--resume",
            ]
        )
        assert rc == 2
        assert "nothing to resume" in capsys.readouterr().err


class TestTraffic:
    def test_traffic_report(self, generated_csv, capsys):
        assert main(["traffic", str(generated_csv), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "queries:" in out
        assert "top users:" in out
        assert "top tables:" in out


class TestBots:
    def test_bots_listing(self, generated_csv, capsys):
        assert (
            main(["bots", str(generated_csv), "--skyserver-schema", "--top", "10"])
            == 0
        )
        out = capsys.readouterr().out
        assert "classified as bots" in out
        assert "BOT" in out

    def test_bots_baseline_mode(self, generated_csv, capsys):
        assert (
            main(
                [
                    "bots",
                    str(generated_csv),
                    "--skyserver-schema",
                    "--no-shape-features",
                ]
            )
            == 0
        )
        assert "users" in capsys.readouterr().out


class TestReport:
    def test_report_writes_csvs(self, generated_csv, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert (
            main(
                [
                    "report",
                    str(generated_csv),
                    "--skyserver-schema",
                    str(out_dir),
                ]
            )
            == 0
        )
        assert (out_dir / "overview.csv").exists()
        assert (out_dir / "patterns.csv").exists()


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
