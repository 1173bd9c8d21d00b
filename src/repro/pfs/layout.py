"""Lustre striping math: file offsets → (OST, object offset) extents.

A striped file is RAID-0 over ``stripe_count`` OST objects with a
``stripe_size`` chunk: stripe *i* of the file lives on object
``(start_ost + i % count)`` at object offset ``(i // count) * stripe_size``.
Every write/read is decomposed into per-object extents with this map —
the same arithmetic drives both the data placement and the performance
analysis in DESIGN.md (a shared file with stripe count 4 touches exactly
4 OSTs no matter how many clients write it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.errors import InvalidArgumentError
from repro.util.humanize import parse_size


class Extent(NamedTuple):
    """A contiguous byte range on one OST object."""

    ost_index: int       # global OST index
    object_offset: int   # byte offset within that OST's object
    length: int
    file_offset: int     # where this extent came from in the file


@dataclass(frozen=True, slots=True)
class StripeLayout:
    """Immutable layout descriptor; files with equal striping share one."""

    stripe_size: int
    stripe_count: int
    start_ost: int
    num_osts: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "stripe_size", parse_size(self.stripe_size))
        if self.stripe_size <= 0:
            raise InvalidArgumentError("stripe_size must be positive")
        if not 1 <= self.stripe_count <= self.num_osts:
            raise InvalidArgumentError(
                f"stripe_count {self.stripe_count} not in [1, {self.num_osts}]"
            )
        if not 0 <= self.start_ost < self.num_osts:
            raise InvalidArgumentError(f"bad start_ost {self.start_ost}")

    def ost_for_stripe(self, stripe_index: int) -> int:
        """Global OST index holding the given file stripe."""
        return (self.start_ost + stripe_index % self.stripe_count) % self.num_osts

    def object_offset_for_stripe(self, stripe_index: int) -> int:
        """Byte offset of the stripe within its OST object."""
        return (stripe_index // self.stripe_count) * self.stripe_size

    def extents(self, offset: int, length: int) -> Iterator[Extent]:
        """Decompose a file byte range into per-OST object extents.

        Extents are yielded in file order; consecutive stripes on the same
        OST are *not* merged here (the client's RPC layer coalesces what
        it can).
        """
        if offset < 0 or length < 0:
            raise InvalidArgumentError("offset/length must be non-negative")
        position = offset
        remaining = length
        while remaining > 0:
            stripe_index = position // self.stripe_size
            within = position % self.stripe_size
            chunk = min(remaining, self.stripe_size - within)
            yield Extent(
                ost_index=self.ost_for_stripe(stripe_index),
                object_offset=self.object_offset_for_stripe(stripe_index)
                + within,
                length=chunk,
                file_offset=position,
            )
            position += chunk
            remaining -= chunk

    def osts_touched(self, offset: int, length: int) -> set[int]:
        """The set of OSTs a byte range lands on."""
        return {extent.ost_index for extent in self.extents(offset, length)}
