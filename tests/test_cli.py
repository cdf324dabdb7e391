"""CLI tests (python -m repro)."""

import re

import pytest

from repro.cli import main
from repro.obs import spans as obs

from conftest import COUNTER_SRC


@pytest.fixture(autouse=True)
def _obs_reset():
    """--profile flips global tracing on; restore it per test."""
    yield
    obs.reset()
    obs.disable()


@pytest.fixture()
def src_file(tmp_path):
    f = tmp_path / "prog.pc"
    f.write_text(COUNTER_SRC)
    return str(f)


class TestCLI:
    def test_analyze(self, src_file, capsys):
        assert main(["analyze", src_file, "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "workers: {'worker': 'pid'}" in out
        assert "TransformPlan" in out

    def test_analyze_verbose_decisions(self, src_file, capsys):
        main(["analyze", src_file, "-p", "4", "-v"])
        out = capsys.readouterr().out
        assert "locks are always padded" in out

    def test_transform(self, src_file, capsys):
        assert main(["transform", src_file, "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("// Transformed")
        # and the output is a valid program
        from repro.lang import compile_source

        compile_source(out)

    def test_run(self, src_file, capsys):
        assert main(["run", src_file, "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[0] == "160"

    def test_run_optimized_same_output(self, src_file, capsys):
        main(["run", src_file, "-p", "4"])
        base = capsys.readouterr().out
        main(["run", src_file, "-p", "4", "-O"])
        opt = capsys.readouterr().out
        assert base == opt

    def test_simulate(self, src_file, capsys):
        assert main(["simulate", src_file, "-p", "8", "-v"]) == 0
        out = capsys.readouterr().out
        assert "unoptimized" in out and "transformed" in out
        assert "false sharing" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "Maxflow" in out and "Water" in out

    def test_experiments_table1(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "810" in capsys.readouterr().out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "nope"])

    def test_block_size_option(self, src_file, capsys):
        assert main(["simulate", src_file, "-p", "4", "-b", "32"]) == 0

    def test_workload_name_accepted_as_file(self, capsys):
        assert main(["analyze", "Pverify", "-p", "2"]) == 0
        assert "TransformPlan" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="neither a file"):
            main(["analyze", "NoSuchProgram", "-p", "2"])


class TestProfilingCLI:
    def test_simulate_profile_emits_exact_table_and_trace(
        self, src_file, tmp_path, capsys
    ):
        """The PR's acceptance check: --profile --trace-out produces a
        valid Chrome trace and an FS table summing to simulator totals."""
        from repro.obs.chrome import validate_trace_file

        out = tmp_path / "trace.json"
        assert main(
            ["simulate", src_file, "-p", "4",
             "--profile", "--trace-out", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "per-structure miss attribution" in text
        assert "(= simulator totals)" in text
        assert "span tree" in text
        # totals row of each table equals the simulator's reported misses
        reported = re.findall(r"misses\s+(\d+)", text)
        totals = re.findall(r"TOTAL\s+(\d+)", text)
        assert totals == reported
        assert validate_trace_file(out) > 0

    def test_profile_command(self, src_file, capsys):
        assert main(["profile", src_file, "-p", "4"]) == 0
        text = capsys.readouterr().out
        assert "span tree" in text
        assert "cache-line heatmap" in text
        assert "false-sharing processor pairs" in text
        assert "analysis covers" in text

    def test_profile_writes_manifest(
        self, src_file, tmp_path, monkeypatch, capsys
    ):
        import json

        log = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(log))
        assert main(["profile", src_file, "-p", "4"]) == 0
        recs = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert [r["workload"] for r in recs] == ["prog/N", "prog/C"]
        assert all(r["misses"]["false"] >= 0 for r in recs)
        assert all(r["spans"] for r in recs)

    def test_workloads_stats(self, tmp_path, monkeypatch, capsys):
        from repro.obs import manifest

        log = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(log))
        manifest.record(
            manifest.build_record(
                kind="profile", workload="Maxflow/N", source="x",
                plan_desc="natural", nprocs=4, block_size=128,
                trace_len=12345,
                extra={"wall_seconds": 1.25},
            )
        )
        assert main(["workloads", "--stats"]) == 0
        text = capsys.readouterr().out
        assert "Workload statistics" in text
        row = next(
            line for line in text.splitlines()
            if line.startswith("Maxflow") and "12,345" in line
        )
        assert "1.25s" in row
        # never-recorded workloads render as dashes, not zeros
        assert re.search(r"Water.*—", text)


class TestArtifactsCLI:
    """``repro artifacts`` acts on the trace cache's store by default."""

    @pytest.fixture()
    def stored(self, tmp_path, monkeypatch):
        """One interpreted run, persisted by the pipeline itself."""
        from repro.harness import Pipeline

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_TRACE_CACHE_MIN", "1")
        assert not Pipeline(COUNTER_SRC).execute(4).from_cache

    def _stats(self, capsys):
        import json

        assert main(["artifacts", "--stats", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_stats_then_prune(self, stored, capsys):
        stats = self._stats(capsys)
        assert stats["entries"] == 1
        assert main(["artifacts", "--prune"]) == 0
        assert "[pruned 1 entries]" in capsys.readouterr().err
        assert self._stats(capsys)["entries"] == 0

    def test_fsck_clean_store(self, stored, capsys):
        assert main(["artifacts", "--fsck"]) == 0
        assert "[fsck: 1 checked, 0 dropped]" in capsys.readouterr().err

    def test_missing_root_is_a_one_line_error(self, tmp_path, capsys):
        typo = tmp_path / "typo"
        for action in ("--fsck", "--stats", "--prune"):
            assert main(["artifacts", action, "--root", str(typo)]) == 2
            err = capsys.readouterr().err
            assert err == f"repro: --root {typo}: no such directory\n"
        assert not typo.exists(), "a failed --root must create nothing"

    def test_root_names_another_store(self, stored, tmp_path, capsys):
        import json

        root = str(tmp_path / "traces")
        assert main(["artifacts", "--fsck", "--root", root]) == 0
        assert "[fsck: 1 checked, 0 dropped]" in capsys.readouterr().err
        assert main(["artifacts", "--json", "--root", root]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1

    def test_cache_off_is_a_one_line_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert main(["artifacts", "--stats"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: the trace cache is off")
        assert len(err.strip().splitlines()) == 1
