"""Self-test of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1's
``testpaths`` stays ``tests``; this file is not collected there).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import compare
import metrics as M
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- the declarative tables and BENCHMARK.json ------------------------------


def test_manifest_matches_benchmark_json_and_contract():
    manifest = M.manifest()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == manifest
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]


def test_every_layer_metric_names_its_layer_and_target():
    layers = {"core", "util", "lsm", "sim", "host", "mpi", "pfs", "io",
              "iolibs", "ior", "bench", "trace"}
    for name, unit, better, moves in M.PER_LAYER:
        assert M.layer_of(name) in layers, name
        assert moves, name
    for name, *_, applies, meaning in M.LEDGER:
        assert set(applies) <= set(M.WORKLOADS) and meaning, name
    assert set(workloads.WORKLOADS) == set(M.WORKLOADS)


# -- two smoke ledgers ---------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    ledgers = []
    for label in "AB":
        path = out / f"{label}.json"
        subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
             "--out", str(path)],
            check=True, capture_output=True, text=True,
        )
        ledgers.append(json.loads(path.read_text()))
    return ledgers


def test_smoke_is_complete_and_correct(smoke):
    for ledger in smoke:
        assert list(ledger)[-1] == "claim" and ledger["claim"] is None
        assert ledger["failed_frac"] == 0
        assert set(ledger["workloads"]) == set(M.WORKLOADS)
        assert ledger["elapsed_s"] < 60  # < 25 s on an idle 2-core box
        for name, result in ledger["workloads"].items():
            assert result["seed"] == ledger["seed"] and result["sizes"]
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["end_to_end"]) == {n for n, *_ in M.END_TO_END}
            assert all(e["value"] > 0 for e in result["end_to_end"].values())
            assert set(result["per_layer"]) == {n for n, *_ in M.PER_LAYER}
            for metric, *_, applies, _ in M.LEDGER:
                assert (result["ledger"][metric]["n"] > 0) == (name in applies)


def test_counts_and_sim_metrics_repeat_exactly(smoke):
    a, b = smoke
    for name in M.WORKLOADS:
        la, lb = a["workloads"][name]["per_layer"], b["workloads"][name]["per_layer"]
        assert {m: la[m] for m in M.EXACT if m in la} == \
               {m: lb[m] for m in M.EXACT if m in lb}, name
        for metric, *_ in M.LEDGER:
            if metric in M.EXACT:
                assert (a["workloads"][name]["ledger"][metric]["value"]
                        == b["workloads"][name]["ledger"][metric]["value"])


def test_layer_self_times_sum_to_wall(smoke):
    for ledger in smoke:
        for name, result in ledger["workloads"].items():
            layer = result["per_layer"]
            assert layer["trace.budget_error_frac"] <= 0.02, name
            assert layer["trace.unattributed_frac"] <= 0.10, name
            assert all(v >= -1e-9 for v in result["budget"].values()), name


def test_handoff_only_where_threads_hand_off(smoke):
    for ledger in smoke:
        figs = ledger["workloads"]["paper_figs_threads"]["per_layer"]
        assert figs["sim.switches"] > 0 and figs["sim.handoff_s"] > 0
        parts = (figs["sim.handoff_s"] + figs["sim.dispatch_self_s"]
                 + sum(v for k, v in figs.items()
                       if k.startswith("sim.proc_body_s.")))
        assert parts == pytest.approx(figs["sim.run_wall_s"], rel=0.02)
        for name in ("llm_fleet_light", "serving_fanout_light"):
            light = ledger["workloads"][name]["per_layer"]
            assert light["sim.switches"] == 0 and light["sim.handoff_s"] == 0
            assert light["sim.events"] > 0


def test_crc_dominates_epochs_and_is_idle_under_kv(smoke):
    for ledger in smoke:
        for name, check in (("local_epoch_ckpt", lambda share: share > 0.5),
                            ("local_kv_ckpt", lambda share: share < 0.02)):
            result = ledger["workloads"][name]
            wall = sum(result["budget"].values())
            assert check(result["per_layer"]["util.crc32c_s"] / wall), name


# -- compare -------------------------------------------------------------------


def test_compare_gates_regressions_and_flags_noise(smoke):
    a = json.loads(json.dumps(smoke[0]))
    rows, regressed, _ = compare.compare(a, a)
    assert regressed == 0
    assert not [r for r in rows if r["verdict"] in ("changed", "REGRESSED")]

    slower = json.loads(json.dumps(a))
    entry = slower["workloads"]["llm_fleet_light"]["end_to_end"]["wall_s"]
    quiet = a["workloads"]["llm_fleet_light"]["end_to_end"]["wall_s"]
    quiet["q1"] = quiet["q3"] = quiet["value"]
    entry["value"] *= 1.5
    slower["workloads"]["paper_figs_threads"]["ledger"][
        "bench.sim_write_GiBps"]["value"] *= 0.99
    rows, regressed, _ = compare.compare(a, slower)
    bad = {(r["workload"], r["metric"]) for r in rows
           if r["verdict"] == "REGRESSED"}
    assert bad == {("llm_fleet_light", "wall_s"),
                   ("paper_figs_threads", "bench.sim_write_GiBps")}

    quiet["q1"], quiet["q3"] = 0.5 * quiet["value"], 1.5 * quiet["value"]
    rows, _, unresolved = compare.compare(a, slower)
    assert unresolved >= 1
    assert ("llm_fleet_light", "wall_s", "unresolved") in {
        (r["workload"], r["metric"], r["verdict"]) for r in rows}


# -- correctness feeds `failed` ------------------------------------------------


def _flip_first_byte(_, value: bytes) -> bytes:
    return bytes([value[0] ^ 1]) + value[1:]


def test_one_corrupt_restored_byte_is_a_failure(tmp_path):
    kv = workloads.LocalKvCkpt(3, run.SMOKE_SCALE, str(tmp_path / "kv"))
    assert kv.rep()["failed"] == 0
    assert kv.rep(
        tamper=lambda i, v: _flip_first_byte(i, v) if i == 7 else v
    )["failed"] == 1

    epochs = workloads.LocalEpochCkpt(3, run.SMOKE_SCALE, str(tmp_path / "ep"))
    assert epochs.rep()["failed"] == 0

    def tamper(epoch, state):
        raw = bytearray(state["field0"].tobytes())
        raw[0] ^= 1
        state["field0"] = np.frombuffer(bytes(raw), dtype=np.float64)
        return state

    assert epochs.rep(tamper=tamper)["failed"] == 1
    crash = epochs.crash_rep()
    assert crash["failed"] == 0 and crash["attempted"] > 1


def test_patches_are_fully_removed_after_a_traced_rep(tmp_path):
    import layers
    from repro.core.manager import LsmioManager
    from repro.core import checkpoint
    from repro.sim.engine import Engine
    from repro.util import crc

    before = (LsmioManager.__dict__["put"], Engine.__dict__["spawn"],
              crc.crc32c, checkpoint.crc32c)
    workload = workloads.LocalEpochCkpt(3, run.SMOKE_SCALE, str(tmp_path))
    with layers.traced("test") as out:
        assert LsmioManager.__dict__["put"] is not before[0]
        assert checkpoint.crc32c is not before[3]
        out["tracker"].enter(("root", "rep"))
        rep = workload.rep()
        out["tracker"].leave()
    assert out["patched"] > 100 and out["leftovers"] == []
    assert (LsmioManager.__dict__["put"], Engine.__dict__["spawn"],
            crc.crc32c, checkpoint.crc32c) == before
    from repro import telemetry, trace

    assert trace.current_tracer() is None and trace.current_metrics() is None
    assert telemetry.current() is None
    assert rep["failed"] == 0
