"""One shared, immutable zero buffer per length.

Simulated I/O synthesizes zeros wherever a payload carries no data: the
holes of a sparse file, the reads of a data-less file, the payloads of
data-less benchmark writes.  ``bytes`` is immutable, so one buffer can
back every such payload of a length instead of each caller building (and
usually dropping) its own.
"""

from __future__ import annotations

#: Upper bound on the bytes the shared buffers may hold.  A campaign
#: repeats a few lengths (a transfer, a shard, a chunk, an RPC), so a
#: handful of buffers serve all of it; a longer payload is allocated per
#: call.
_ZEROS_CAP = 64 << 20
_ZEROS: dict[int, bytes] = {}
_zeros_held = 0


def zeros(nbytes: int) -> bytes:
    """``nbytes`` zero bytes, shared between callers asking for that length.

    A new length that would overflow the cap empties the cache first, so
    the lengths in current use are the ones held, whatever ran earlier in
    the process.
    """
    global _zeros_held
    buf = _ZEROS.get(nbytes)
    if buf is None:
        buf = bytes(nbytes)
        if nbytes <= _ZEROS_CAP:
            if _zeros_held + nbytes > _ZEROS_CAP:
                _ZEROS.clear()
                _zeros_held = 0
            _ZEROS[nbytes] = buf
            _zeros_held += nbytes
    return buf
