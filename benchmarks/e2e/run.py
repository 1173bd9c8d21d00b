#!/usr/bin/env python3
"""The repo's one benchmark: five workloads, end to end and layer by layer.

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints every metric by name, then
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` as the
last line: the end-to-end metrics with ``--trace 0``, the per-layer (and
workload-specific ledger) metrics with ``--trace 1``.

Ledger mode (no ``--workload``)::

    python3 benchmarks/e2e/run.py [--seed N] [--reps N] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

runs every workload in a fresh subprocess (untraced reps, then one traced
rep) and writes one JSON summary ending in ``"claim": null``; ``--compare``
is the A/A gate and the tool a perf PR quotes.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
SMOKE_SCALE = 1 / 8

sys.path.insert(0, HERE)
import metrics as M  # noqa: E402


def _need_repro() -> None:
    """The benchmark measures the program in this checkout, nothing else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's per-rep values."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def _build(name: str, seed: int, smoke: bool):
    import workloads

    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    return workloads.WORKLOADS[name](
        seed, SMOKE_SCALE if smoke else 1.0, workdir
    )


def setup_probe(args) -> int:
    """Child of :func:`measure_setup`: do the set-up, report when ready."""
    _need_repro()
    _build(args.workload, args.seed, args.smoke)
    print(repr(time.time()))
    return 0


def measure_setup(args) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters, spawn to
    ready: interpreter start + imports + payload generation + config."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(command, capture_output=True, text=True,
                              check=True)
        samples.append(float(done.stdout.strip()) - spawned)
    return samples


def _signature(rep: dict) -> str:
    return json.dumps(rep.get("signature"), sort_keys=True)


def run_one(args) -> dict:
    """Warm-up, untraced reps, checks and (optionally) the traced rep."""
    _need_repro()
    name = args.workload
    setup_samples = measure_setup(args)
    everywhere = os.sched_getaffinity(0)
    workload = _build(name, args.seed, args.smoke)
    pinned = workload.pinned and not args.no_pin
    if pinned:
        # The engine runs exactly one thread at a time; unpinned, every
        # baton pass is a cross-core wake-up (2.0-2.7 s vs 1.1-1.2 s/rep).
        os.sched_setaffinity(0, {max(everywhere)})

    def rep(**kwargs) -> dict:
        try:
            return workload.rep(**kwargs)
        finally:
            workload.cleanup()

    warm = rep()
    attempted, failed = warm["attempted"], warm["failed"]
    budget_s = args.seconds / 2 if args.trace else args.seconds
    reps: list[dict] = []
    cpu0 = os.times()
    started = time.perf_counter()
    while (len(reps) < args.reps if args.reps
           else len(reps) < 3 or time.perf_counter() - started < budget_s):
        reps.append(rep())
    cpu1 = os.times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for one in reps:
        attempted += one["attempted"]
        failed += one["failed"]
        if "signature" in one:
            # same seed => identical series, final sim time and event count
            attempted += 1
            failed += _signature(one) != _signature(warm)
    if hasattr(workload, "crash_rep"):
        try:
            crash = workload.crash_rep()
        finally:
            workload.cleanup()
        attempted += crash["attempted"]
        failed += crash["failed"]

    e2e = {
        "setup_s": summarize(setup_samples),
        "wall_s": summarize([r["wall_s"] for r in reps]),
        "peak_rss_MB": summarize([peak_rss_mb]),
        "write_MBps": summarize(
            [r["write_bytes"] / r["write_s"] / 1e6 for r in reps]),
        "restore_MBps": summarize(
            [r["read_bytes"] / r["read_s"] / 1e6 for r in reps]),
    }
    ledger = _ledger(reps)
    result = {
        "workload": name, "seed": args.seed, "smoke": args.smoke,
        "reps": len(reps), "pinned": pinned,
        "sizes": workload.sizes, "end_to_end": e2e, "ledger": ledger,
    }

    if args.trace:
        layer = {n: 0.0 for n, *_ in M.PER_LAYER}
        if name == "paper_figs_threads" and pinned:
            os.sched_setaffinity(0, everywhere)
            # three for the ledger; one where the run is time-boxed
            unpinned = [rep()["wall_s"]
                        for _ in range(3 if args.reps > 2 else 1)]
            os.sched_setaffinity(0, {max(everywhere)})
            layer["sim.unpinned_wall_s"] = statistics.median(unpinned)
        per_rep = len(reps)
        cpu = ((cpu1.user - cpu0.user) / per_rep,
               (cpu1.system - cpu0.system) / per_rep)
        traced, measured, budget = _traced_rep(
            workload, args, e2e["wall_s"]["value"], cpu)
        layer.update(measured)
        attempted += traced["attempted"] + 1
        # tracing must not perturb the program: same outputs, same schedule
        failed += traced["failed"] + (_signature(traced) != _signature(warm))
        result["per_layer"] = layer
        result["budget"] = budget
        if layer["trace.overhead_frac"] > 1.0:
            print(f"WARNING: {name}: trace.overhead_frac = "
                  f"{layer['trace.overhead_frac']:.2f} > 1.0; the traced "
                  "rep's layer shares are distorted by the wrappers")
    result["attempted"] = attempted
    result["failed"] = failed
    return result


def _ledger(reps: list[dict]) -> dict:
    """The workload-specific untraced metrics (0, n=0 where none apply)."""
    from repro.util.stats import quantile

    out = {name: {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
           for name, *_ in M.LEDGER}
    for name in reps[0]["ledger"]:
        out[name] = summarize([r["ledger"][name] for r in reps])
    if "save_ms" in reps[0]:
        pooled = [ms for r in reps for ms in r["save_ms"]]
        for q, name in ((0.5, "core.save_p50_ms"), (0.9, "core.save_p90_ms")):
            out[name] = {
                **summarize([quantile(r["save_ms"], q) for r in reps]),
                "value": quantile(pooled, q), "n": len(pooled),
            }
    return out


def _traced_rep(workload, args, untraced_wall_s: float, cpu: tuple):
    import layers

    tag = f"{workload.name}/traced/seed{args.seed}"
    with layers.traced(tag) as out:
        tracker = out["tracker"]
        tracker.enter(("root", "rep"))
        try:
            rep = workload.rep(
                wrap_env=lambda base: layers.TimingEnv(base, tracker))
        finally:
            tracker.leave()
            workload.cleanup()
    if out["leftovers"]:
        raise RuntimeError(f"patches survived removal: {out['leftovers']}")
    measured, budget = layers.layer_metrics(
        out, rep["wall_s"], cpu, untraced_wall_s)
    aggregate = tracker.aggregate()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload.name}.spans.json"), "w") as fh:
        json.dump({
            "id": tag, "wall_s": rep["wall_s"], "budget_s": budget,
            "clock": {"main": "perf_counter_ns", "bg": "perf_counter_ns",
                      "proc": "thread_time_ns"},
            "aggregate": [
                {"domain": domain, "layer": layer, "name": span,
                 "calls": row[0], "total_s": row[1] / 1e9,
                 "self_s": row[2] / 1e9, "max_ms": row[3] / 1e6}
                for domain in ("main", "proc", "bg")
                for (layer, span), row in sorted(aggregate[domain].items())
            ],
            "counters": aggregate["counters"],
            "spans_dropped": tracker.dropped,
            "spans": tracker.records,
        }, fh)
    return rep, measured, budget


def print_one(result: dict, trace: bool) -> None:
    """Every metric by name with unit, direction and bound; then the
    contract's JSON line."""
    if trace:
        rows = [(n, u, b, "-") for n, u, b, *_ in M.LEDGER + M.PER_LAYER]
        entries = {**result["ledger"],
                   **{n: {"value": v} for n, v in result["per_layer"].items()}}
    else:
        rows = [(n, u, b, bound) for n, u, b, bound, _ in M.END_TO_END]
        entries = result["end_to_end"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"reps={result['reps']} pinned={result['pinned']}")
    metrics = {}
    for name, unit, better, bound in rows:
        entry = entries[name]
        spread = (f"  q1={entry['q1']:.6g} q3={entry['q3']:.6g} n={entry['n']}"
                  if entry.get("n") else "")
        print(f"{name:<28} {entry['value']:>16.6g} {unit:<6} "
              f"better={better} bound={bound}{spread}")
        metrics[name] = {"value": entry["value"], "unit": unit}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


# ---------------------------------------------------------------------------
# ledger mode: every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    _need_repro()
    os.makedirs(OUT, exist_ok=True)
    names = [args.only] if args.only else list(M.WORKLOADS)
    summary = {
        "benchmark": "benchmarks/e2e", "seed": args.seed, "smoke": args.smoke,
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "python": sys.version.split()[0]},
        "metrics": {
            "end_to_end": [
                {"name": n, "unit": u, "better": b, "bound": bound}
                for n, u, b, bound, _ in M.END_TO_END],
            "ledger": [
                {"name": n, "unit": u, "better": b,
                 "bound": "exact" if bound is None else bound}
                for n, u, b, bound, *_ in M.LEDGER],
            "per_layer": [
                {"name": n, "unit": u, "better": b,
                 "layer": M.layer_of(n), "moves": moves}
                for n, u, b, moves in M.PER_LAYER],
        },
        "workloads": {},
    }
    started = time.perf_counter()
    for name in names:
        reps, why = M.WORKLOADS[name]
        if args.smoke:
            reps = 2
        detail = os.path.join(OUT, f"{name}.detail.json")
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--trace", "1",
            "--reps", str(args.reps or reps), "--detail", detail,
        ] + (["--smoke"] if args.smoke else [])
        t0 = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        with open(detail) as fh:
            result = json.load(fh)
        result["why"] = why
        summary["workloads"][name] = result
        print(f"== {name}: {time.perf_counter() - t0:.1f} s, "
              f"{result['reps']} reps, failed {result['failed']}"
              f"/{result['attempted']}")
        for line in done.stdout.splitlines():
            if line.startswith("WARNING"):
                print(line)
        for metric, entry in result["end_to_end"].items():
            print(f"   {metric:<14} {entry['value']:>12.6g}  "
                  f"[{entry['q1']:.6g} .. {entry['q3']:.6g}] n={entry['n']}")
        for metric, entry in result["ledger"].items():
            if entry["n"]:
                print(f"   {metric:<26} {entry['value']:>12.6g}")
    summary["elapsed_s"] = time.perf_counter() - started
    summary["failed_frac"] = (
        sum(w["failed"] for w in summary["workloads"].values())
        / sum(w["attempted"] for w in summary["workloads"].values())
    )
    summary["claim"] = None
    out = args.out or os.path.join(OUT, "ledger.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {out} ({summary['elapsed_s']:.0f} s, "
          f"failed_frac {summary['failed_frac']})")
    return 0 if summary["failed_frac"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(M.WORKLOADS))
    parser.add_argument("--seed", type=int, default=20230611)
    parser.add_argument("--seconds", type=float, default=M.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=0,
                        help="fixed rep count instead of --seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at <= 1/8 scale, 2 reps")
    parser.add_argument("--only", choices=list(M.WORKLOADS),
                        help="ledger mode: just this workload")
    parser.add_argument("--out", help="ledger mode: summary file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.py")
    parser.add_argument("--no-pin", action="store_true",
                        help="leave a pinned workload on every CPU (for the "
                             "README's unpinned handoff split)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(M.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.setup_probe:
        return setup_probe(args)
    if args.workload is None:
        return run_all(args)
    result = run_one(args)
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(result, fh)
    print_one(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
