"""Tests for the command-line interfaces (repro.ior / repro.bench)."""

import json
import os

import pytest

from repro.ior.__main__ import main as ior_main
from repro.bench.__main__ import main as bench_main


class TestIorCli:
    def test_basic_run(self, capsys):
        code = ior_main(
            ["-a", "posix", "-N", "2", "-b", "64K", "-s", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "write:" in out
        assert "MB/s" in out

    def test_read_flag(self, capsys):
        code = ior_main(
            ["-a", "lsmio", "-N", "2", "-b", "64K", "-s", "2", "-r"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "read:" in out

    def test_collective(self, capsys):
        code = ior_main(
            ["-a", "posix", "-N", "2", "-b", "64K", "-s", "2", "-c"]
        )
        assert code == 0

    def test_bad_api_rejected(self):
        with pytest.raises(SystemExit):
            ior_main(["-a", "mystery"])


class TestBenchCli:
    def test_fig1(self, capsys):
        assert bench_main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "1074.1x" in out

    def test_fig5_tiny_with_json(self, tmp_path, capsys):
        out_file = tmp_path / "r.json"
        code = bench_main(
            ["fig5", "--nodes", "2", "6", "--bytes-per-task", "256K",
             "--json", str(out_file)]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert "fig5" in payload
        assert payload["fig5"]["node_counts"] == [2, 6]
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["fig99"])

    def test_pins_to_one_cpu_then_restores(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 3})
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus))
        )
        assert bench_main(["fig1"]) == 0
        assert calls == [{3}, {0, 1, 3}]

    def test_restores_affinity_when_the_run_fails(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus))
        )
        with pytest.raises(SystemExit):
            bench_main(["fig99"])
        assert calls == [{1}, {0, 1}]

    def test_runs_unpinned_without_affinity_support(self, monkeypatch, capsys):
        monkeypatch.delattr(os, "sched_setaffinity")
        assert bench_main(["fig1"]) == 0

    def test_runs_unpinned_when_affinity_is_refused(self, monkeypatch, capsys):
        calls = []

        def refuse(pid, cpus):
            calls.append(set(cpus))
            raise PermissionError("not allowed")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert bench_main(["fig1"]) == 0
        assert len(calls) == 1  # the pin attempt only; nothing to restore
