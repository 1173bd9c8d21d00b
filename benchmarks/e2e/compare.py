"""``run.py --compare A.json B.json``: the A/A gate and the perf-PR table.

One row per (workload, metric) with both medians, quartiles and n.  B
*regressed* when it is worse than A by more than the metric's bound;
a pair is *unresolved* when A's own inter-quartile spread already exceeds
the bound (the run-to-run noise is wider than what is being asked), and
must then be reported as unresolved, never as unchanged.  Exact metrics
(space amplification, every ``sim_*`` number, paper error, exact counts)
have no tolerance: any difference is shown, and a difference in the worse
direction of a ledger metric is a regression.
"""

from __future__ import annotations

import json

import metrics as M


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return (change if better == "lower" else -change) + 0.0  # no "-0.00%"


def _single(value: float) -> dict:
    return {"value": value, "q1": value, "q3": value, "n": 1}


def _fmt(entry: dict) -> str:
    return (f"{entry['value']:>11.5g} [{entry['q1']:.5g}..{entry['q3']:.5g}]"
            f" n={entry['n']}")


def compare(a: dict, b: dict) -> tuple[list[dict], int, int]:
    """Rows plus the number regressed and unresolved."""
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        gated = [(n, better, bound, wa["end_to_end"], wb["end_to_end"])
                 for n, _, better, bound, _ in M.END_TO_END]
        gated += [(n, better, bound, wa["ledger"], wb["ledger"])
                  for n, _, better, bound, applies, _ in M.LEDGER
                  if name in applies]
        for metric, better, bound, ea, eb in gated:
            ea, eb = ea[metric], eb[metric]
            worse = _worse_by(ea["value"], eb["value"], better)
            spread = (ea["q3"] - ea["q1"]) / abs(ea["value"]) if ea["value"] else 0.0
            if bound is None:
                verdict = ("same" if worse == 0 else
                           "REGRESSED" if worse > 0 else "improved")
            elif spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric, "a": ea, "b": eb,
                "worse_by": worse, "verdict": verdict,
                "bound": "exact" if bound is None else bound,
            })
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for metric in sorted(M.EXACT & la.keys() & lb.keys()):
            if la[metric] != lb[metric]:
                rows.append({
                    "workload": name, "metric": metric,
                    "a": _single(la[metric]), "b": _single(lb[metric]),
                    "worse_by": 0.0, "bound": "exact", "verdict": "changed",
                })
    regressed = sum(r["verdict"] == "REGRESSED" for r in rows)
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    return rows, regressed, unresolved


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows, regressed, unresolved = compare(json.load(fa), json.load(fb))
    print(f"{'workload':<22} {'metric':<24} {'A median [q1..q3] n':<40} "
          f"{'B median [q1..q3] n':<40} {'worse by':>9} {'bound':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<22} {r['metric']:<24} {_fmt(r['a']):<40} "
              f"{_fmt(r['b']):<40} {r['worse_by']:>+9.2%} {r['bound']!s:>6}  "
              f"{r['verdict']}")
    changed = sum(r["verdict"] == "changed" for r in rows)
    print(f"{regressed} regressed, {unresolved} unresolved, "
          f"{changed} exact values changed")
    return 1 if regressed else 0
