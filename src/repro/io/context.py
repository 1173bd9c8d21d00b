"""Ambient I/O priority: how producers tag requests without plumbing.

Each simulated process (and each real executor worker) is a thread, so a
``threading.local`` carries the current service class from the code that
*knows why* I/O is happening (the flush job, the compaction loop, an
iolib write) down to :class:`repro.pfs.client.LustreClient`, which only
knows *that* it is happening.  The default — no context set — is
``FOREGROUND``: unannotated I/O is application I/O.

Usage::

    with io_priority(Priority.COMPACTION):
        writer.finish()        # every client RPC below is COMPACTION class
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.io.request import Priority

_TLS = threading.local()


def current_priority() -> Priority:
    """The calling thread's ambient service class (FOREGROUND if unset)."""
    return getattr(_TLS, "priority", Priority.FOREGROUND)


@contextmanager
def io_priority(priority: Priority) -> Iterator[None]:
    """Tag all client I/O issued inside the block with ``priority``.

    Nests: an inner block shadows the outer one and restores it on exit
    (a compaction that triggers a metadata op can tag just that op).
    """
    prev = getattr(_TLS, "priority", None)
    _TLS.priority = priority
    try:
        yield
    finally:
        if prev is None:
            del _TLS.priority
        else:
            _TLS.priority = prev
