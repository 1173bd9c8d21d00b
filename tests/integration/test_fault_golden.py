"""Byte pins for one seeded, traced run through every injector fault kind.

Three clients share a two-shard-MDS cluster while the schedule takes
OSTs down (by time and by request count) and back up, takes an OSS and
an MDS shard down for a while, degrades a disk, drops every n-th RPC
and delays a seeded fraction of them.  One OST outage and one MDS
outage outlast the retry budget, so both an fsync and a metadata op end
in ``RetryExhaustedError``.

Changing how failure domains, the injector or the client retry loop are
written must not move a fault, a retry, a counter, a span or the final
clock; a hash mismatch means it did.
"""

import hashlib
import json
from dataclasses import asdict

from repro import sim, trace
from repro.errors import RetryExhaustedError
from repro.fault import FaultInjector, FaultSchedule
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import small_test_cluster

GOLDEN = {
    "trace": (
        "9bca9b740a22febe1215e18d78770502efde5867d49a376f06b17e4a87870aa7"
    ),
    "fault_stats": (
        "388753a6f086c4628c46ef484f8480d3d96cc54ca273253891c1c680507b915f"
    ),
    "client_stats": (
        "30b65c20ece507cc2531d2e22041ba00fa18f1a6b36961926e02e3dc04250967"
    ),
    "outcomes": (
        "d370c64bd9d3c46ad8afa7e2959316b5ee3c6a5aebc23556c01a6f59a1a2f443"
    ),
    "spans": (
        "44a66778ace320a52662086308a1cbd8b3fd8f7656a8aac9c7b84a74253f5491"
    ),
    "events": (
        "e864747048d5c95982333893896cd5101f515296a145f8dddb0e62e4d9fefb95"
    ),
    "clock": (
        "0f4f438a83304ccbf3beeb33860978360e6199f48400f0d054bd0b023580176d"
    ),
}

N_CLIENTS = 3
ROUNDS = 6


def _schedule() -> FaultSchedule:
    return (
        FaultSchedule(seed=11)
        .fail_ost(3, at_time=0.002)
        .recover_ost(3, at_time=0.05)
        .fail_ost(2, after_requests=9, duration=0.04)
        .fail_oss(1, at_time=0.03, duration=0.03)
        .fail_mds(1, at_time=0.01, duration=0.04)
        .degrade_disk(0, factor=8.0, at_time=0.0, duration=0.06)
        .drop_rpc(every=13)
        .delay_rpc(3e-3, probability=0.15)
        .fail_ost(1, at_time=0.12)
        .recover_ost(1, at_time=0.5)
        .fail_mds(0, at_time=0.13, duration=0.4)
    )


def _job(client: LustreClient, rank: int, outcomes: list):
    for i in range(ROUNDS):
        path = f"d{rank}/f{i}"
        try:
            file = client.create(path, stripe_count=2)
            payload = bytes([rank * 16 + i]) * (48 << 10)
            client.write(file, 0, payload)
            client.fsync(file)
            client.stat(path)
            ok = client.read(file, 0, len(payload)) == payload
            client.close(file)
            outcomes.append((rank, i, "ok" if ok else "bad", sim.now()))
        except RetryExhaustedError as exc:
            outcomes.append(
                (rank, i, type(exc.last_error).__name__, exc.attempts,
                 sim.now())
            )
    if rank == 0:  # a file on every OST while OST 1 is still down
        file = client.create("d0/wide", stripe_count=4)
        client.write(file, 0, 256 << 10)
        try:
            client.fsync(file)
        except RetryExhaustedError as exc:
            outcomes.append(
                (rank, "wide", type(exc.last_error).__name__, exc.attempts,
                 sim.now())
            )


def _record():
    config = small_test_cluster(
        num_oss=2, mds_shards=2, rpc_timeout=0.02, rpc_max_retries=3,
        rpc_backoff_base=0.01, rpc_backoff_jitter=0.5,
    )
    outcomes: list = []
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config)
        injector = FaultInjector(_schedule()).install(cluster)
        clients = [LustreClient(cluster, i) for i in range(N_CLIENTS)]
        tracer = trace.install()
        try:
            for rank, client in enumerate(clients):
                engine.spawn(_job, client, rank, outcomes, name=f"job{rank}")
            clock = engine.run()
        finally:
            trace.uninstall()
    return injector, clients, tracer, outcomes, clock


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


def _hashes():
    injector, clients, tracer, outcomes, clock = _record()
    spans = [
        (s.category, s.name, s.start, s.duration, s.track, s.depth,
         json.dumps(s.args, sort_keys=True))
        for s in tracer.spans
    ]
    return {
        "trace": _sha(injector.trace),
        "fault_stats": _sha(injector.stats.snapshot()),
        "client_stats": _sha([asdict(c.stats) for c in clients]),
        "outcomes": _sha(outcomes),
        "spans": _sha(spans),
        "events": _sha([tracer.instants, tracer.gauges]),
        "clock": _sha(clock),
    }, injector, outcomes, tracer


def test_fault_run_is_pinned():
    hashes, injector, outcomes, tracer = _hashes()
    kinds = {kind for _, kind, _ in injector.trace}
    assert kinds >= {
        "ost_down", "ost_up", "oss_down", "oss_up", "mds_down", "mds_up",
        "disk_degrade", "rpc_drop", "rpc_delay",
    }
    failed = {o[2] for o in outcomes if o[2] != "ok"}
    assert failed == {"OstUnavailableError", "RpcTimeoutError"}
    assert tracer.dropped == 0
    assert hashes == GOLDEN


if __name__ == "__main__":  # print fresh hashes for a deliberate re-pin
    print(json.dumps(_hashes()[0], indent=4))
