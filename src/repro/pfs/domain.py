"""The failure-domain model shared by every fault-capable server.

OSTs, OSSs and MDS shards each carry one ``up`` flag that a
:class:`~repro.fault.FaultInjector` flips; the healthy path pays one
attribute check per request.  What a request meets while its server is
down is the server's own contract: a down OST rejects at once with
:class:`~repro.errors.OstUnavailableError`, while a down OSS or MDS shard
eats the request and the client burns its RPC timeout.
"""


class FailureDomain:
    """Mixin for a server with an ``up`` flag and ``stats.failures``."""

    def fail(self) -> None:
        """Take this server down until :meth:`recover`."""
        self.up = False
        self.stats.failures += 1

    def recover(self) -> None:
        """Bring this server back; waiting clients resume via their retries."""
        self.up = True
