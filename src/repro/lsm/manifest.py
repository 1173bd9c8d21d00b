"""Versions and the manifest: which SSTables live at which level.

A :class:`Version` is an immutable snapshot of the level structure;
:class:`VersionSet` owns the current version and persists every change as
a :class:`VersionEdit` to the ``MANIFEST-N`` file (pointed at by
``CURRENT``).

Deviation from LevelDB, documented per DESIGN.md: edits are JSON-lines
rather than LevelDB's binary ``VersionEdit`` encoding.  The recovery
semantics (replay all edits in order; atomic ``CURRENT`` switch) are
identical, and JSON keeps the manifest debuggable — the format is not on
any hot path.
"""

from __future__ import annotations

import base64
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import CorruptionError
from repro.lsm.dbformat import internal_key_user_key
from repro.lsm.env import Env


@dataclass(frozen=True)
class FileMetaData:
    """One live SSTable.

    The user-key bounds are derived once at construction: every point
    lookup compares against them for each L0 file.
    """

    number: int
    file_size: int
    smallest: bytes  # smallest internal key
    largest: bytes   # largest internal key
    smallest_user_key: bytes = field(init=False, repr=False, compare=False)
    largest_user_key: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        set_field = object.__setattr__  # frozen: bypass the guard once
        set_field(self, "smallest_user_key", internal_key_user_key(self.smallest))
        set_field(self, "largest_user_key", internal_key_user_key(self.largest))

    def overlaps_user_range(self, lo: bytes, hi: bytes) -> bool:
        """Whether this file's user-key range intersects [lo, hi]."""
        return not (self.largest_user_key < lo or self.smallest_user_key > hi)

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "file_size": self.file_size,
            "smallest": base64.b64encode(self.smallest).decode(),
            "largest": base64.b64encode(self.largest).decode(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FileMetaData":
        return cls(
            number=obj["number"],
            file_size=obj["file_size"],
            smallest=base64.b64decode(obj["smallest"]),
            largest=base64.b64decode(obj["largest"]),
        )


@dataclass
class VersionEdit:
    """A delta applied to the version state."""

    comparator: Optional[str] = None
    log_number: Optional[int] = None
    next_file_number: Optional[int] = None
    last_sequence: Optional[int] = None
    new_files: list[tuple[int, FileMetaData]] = field(default_factory=list)
    deleted_files: list[tuple[int, int]] = field(default_factory=list)  # (level, number)

    def add_file(self, level: int, meta: FileMetaData) -> None:
        self.new_files.append((level, meta))

    def delete_file(self, level: int, number: int) -> None:
        self.deleted_files.append((level, number))

    def to_json(self) -> str:
        obj: dict = {}
        if self.comparator is not None:
            obj["comparator"] = self.comparator
        if self.log_number is not None:
            obj["log_number"] = self.log_number
        if self.next_file_number is not None:
            obj["next_file_number"] = self.next_file_number
        if self.last_sequence is not None:
            obj["last_sequence"] = self.last_sequence
        if self.new_files:
            obj["new_files"] = [
                {"level": lvl, **meta.to_json()} for lvl, meta in self.new_files
            ]
        if self.deleted_files:
            obj["deleted_files"] = [
                {"level": lvl, "number": num} for lvl, num in self.deleted_files
            ]
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def merged(cls, edits: Iterable["VersionEdit"]) -> "VersionEdit":
        """Combine per-subcompaction edits into one atomic edit.

        A partitioned compaction produces one edit per key-range
        partition; applying them one at a time would expose intermediate
        versions (and write intermediate manifest lines) that no serial
        compaction ever creates.  Merging preserves new-file order —
        partitions are emitted in key order, so the merged add-list
        matches the serial merge's — de-duplicates deletes, and refuses
        conflicting scalar fields.
        """
        out = cls()
        seen_deletes: set[tuple[int, int]] = set()
        for edit in edits:
            for name in (
                "comparator",
                "log_number",
                "next_file_number",
                "last_sequence",
            ):
                value = getattr(edit, name)
                if value is None:
                    continue
                current = getattr(out, name)
                if current is None:
                    setattr(out, name, value)
                elif current != value:
                    raise ValueError(
                        f"conflicting {name} in merged edits: "
                        f"{current!r} != {value!r}"
                    )
            for level, meta in edit.new_files:
                out.add_file(level, meta)
            for level, number in edit.deleted_files:
                if (level, number) not in seen_deletes:
                    seen_deletes.add((level, number))
                    out.delete_file(level, number)
        return out

    @classmethod
    def from_json(cls, line: str) -> "VersionEdit":
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptionError(f"bad manifest line: {line!r}") from exc
        edit = cls(
            comparator=obj.get("comparator"),
            log_number=obj.get("log_number"),
            next_file_number=obj.get("next_file_number"),
            last_sequence=obj.get("last_sequence"),
        )
        for item in obj.get("new_files", []):
            edit.add_file(item["level"], FileMetaData.from_json(item))
        for item in obj.get("deleted_files", []):
            edit.delete_file(item["level"], item["number"])
        return edit


class Version:
    """Immutable snapshot of SSTables per level.

    Level 0 files may overlap each other (they are raw memtable flushes)
    and are ordered newest-first for reads.  Levels ≥ 1 hold disjoint
    user-key ranges sorted by smallest key.
    """

    def __init__(self, num_levels: int):
        self.files: list[list[FileMetaData]] = [[] for _ in range(num_levels)]
        self._lookup_order: Optional[tuple[list, list]] = None

    @property
    def num_levels(self) -> int:
        return len(self.files)

    def level_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.files[level])

    def num_files(self, level: int) -> int:
        return len(self.files[level])

    def all_files(self) -> list[tuple[int, FileMetaData]]:
        return [
            (level, meta)
            for level, files in enumerate(self.files)
            for meta in files
        ]

    def overlapping_files(
        self, level: int, lo: bytes, hi: bytes
    ) -> list[FileMetaData]:
        """Files at ``level`` whose user-key range intersects [lo, hi]."""
        return [f for f in self.files[level] if f.overlaps_user_range(lo, hi)]

    def files_for_get(self, user_key: bytes) -> list[tuple[int, FileMetaData]]:
        """Candidate files for a point lookup, in newest-to-oldest order.

        Every L0 file whose range holds ``user_key``, newest first, then at
        most one file per deeper level, found by bisection.  The order is
        built at the first lookup and kept: a version is not changed once
        it is installed.
        """
        order = self._lookup_order
        if order is None:
            order = self._lookup_order = self._build_lookup_order()
        level0, levels = order
        out = []
        for smallest, largest, entry in level0:
            if smallest <= user_key <= largest:
                out.append(entry)
        for level, largest_keys, files in levels:
            i = bisect_left(largest_keys, user_key)
            if i < len(files) and files[i].smallest_user_key <= user_key:
                out.append((level, files[i]))
        return out

    def _build_lookup_order(self) -> tuple[list, list]:
        # L0: newest first (descending file number — higher = newer).
        level0 = [
            (meta.smallest_user_key, meta.largest_user_key, (0, meta))
            for meta in sorted(self.files[0], key=lambda f: f.number, reverse=True)
        ]
        # Deeper levels hold disjoint ranges sorted by smallest key, so
        # their largest keys are sorted too.
        levels = [
            (level, [meta.largest_user_key for meta in files], files)
            for level, files in enumerate(self.files)
            if level and files
        ]
        return level0, levels


class VersionSet:
    """Owns the current :class:`Version` and the manifest log."""

    COMPARATOR_NAME = "repro.lsm.internal-bytewise"

    def __init__(self, env: Env, dbname: str, num_levels: int):
        self._env = env
        self._dbname = dbname
        self._num_levels = num_levels
        self.current = Version(num_levels)
        self.next_file_number = 2  # 1 is reserved for the first manifest
        self.last_sequence = 0
        self.log_number = 0
        self._manifest_file = None
        self._manifest_number = 0

    # -- file naming ------------------------------------------------------

    def _manifest_path(self, number: int) -> str:
        return self._env.join(self._dbname, f"MANIFEST-{number:06d}")

    def _current_path(self) -> str:
        return self._env.join(self._dbname, "CURRENT")

    def new_file_number(self) -> int:
        number = self.next_file_number
        self.next_file_number += 1
        return number

    # -- persistence -------------------------------------------------------

    def create(self) -> None:
        """Initialize a brand-new database's manifest."""
        self._manifest_number = 1
        self._manifest_file = self._env.new_writable_file(
            self._manifest_path(self._manifest_number)
        )
        bootstrap = VersionEdit(
            comparator=self.COMPARATOR_NAME,
            next_file_number=self.next_file_number,
            last_sequence=self.last_sequence,
            log_number=self.log_number,
        )
        self._manifest_file.append(bootstrap.to_json().encode() + b"\n")
        self._manifest_file.sync()
        self._set_current(self._manifest_number)

    def _set_current(self, manifest_number: int) -> None:
        tmp = self._current_path() + ".tmp"
        with self._env.new_writable_file(tmp) as fh:
            fh.append(f"MANIFEST-{manifest_number:06d}\n".encode())
            fh.sync()
        self._env.rename_file(tmp, self._current_path())

    def recover(self) -> None:
        """Rebuild state by replaying the manifest named in CURRENT."""
        with self._env.new_sequential_file(self._current_path()) as fh:
            current = fh.read(1 << 16).decode().strip()
        if not current.startswith("MANIFEST-"):
            raise CorruptionError(f"bad CURRENT contents: {current!r}")
        self._manifest_number = int(current.split("-", 1)[1])
        path = self._env.join(self._dbname, current)
        version = Version(self._num_levels)
        with self._env.new_sequential_file(path) as fh:
            data = bytearray()
            while True:
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                data += chunk
        for line in bytes(data).decode().splitlines():
            if not line.strip():
                continue
            edit = VersionEdit.from_json(line)
            version = self._apply(version, edit)
            if edit.next_file_number is not None:
                self.next_file_number = edit.next_file_number
            if edit.last_sequence is not None:
                self.last_sequence = edit.last_sequence
            if edit.log_number is not None:
                self.log_number = edit.log_number
            if (
                edit.comparator is not None
                and edit.comparator != self.COMPARATOR_NAME
            ):
                raise CorruptionError(
                    f"comparator mismatch: {edit.comparator!r}"
                )
        self.current = version
        # Append further edits to the same manifest.
        self._manifest_file = _AppendingManifest(self._env, path)

    def _apply(self, base: Version, edit: VersionEdit) -> Version:
        version = Version(self._num_levels)
        deleted = set(edit.deleted_files)
        for level in range(self._num_levels):
            version.files[level] = [
                meta
                for meta in base.files[level]
                if (level, meta.number) not in deleted
            ]
        for level, meta in edit.new_files:
            version.files[level].append(meta)
        for level in range(1, self._num_levels):
            version.files[level].sort(key=lambda f: f.smallest_user_key)
        version.files[0].sort(key=lambda f: f.number)
        return version

    def log_and_apply(self, edit: VersionEdit, sync: bool = True) -> None:
        """Persist ``edit`` and install the resulting version."""
        edit.next_file_number = self.next_file_number
        edit.last_sequence = self.last_sequence
        if edit.log_number is not None:
            self.log_number = edit.log_number
        else:
            edit.log_number = self.log_number
        self._manifest_file.append(edit.to_json().encode() + b"\n")
        if sync:
            self._manifest_file.sync()
        self.current = self._apply(self.current, edit)

    def live_file_numbers(self) -> set[int]:
        return {meta.number for _, meta in self.current.all_files()}

    def close(self) -> None:
        if self._manifest_file is not None:
            self._manifest_file.close()
            self._manifest_file = None


class _AppendingManifest:
    """Append support for an existing manifest file.

    ``Env`` writable files truncate on open (LevelDB rolls to a fresh
    manifest on recovery instead; we keep one manifest per DB lifetime and
    re-write it on recovery, which preserves the same durability contract
    with less machinery).
    """

    def __init__(self, env: Env, path: str):
        with env.new_sequential_file(path) as fh:
            existing = bytearray()
            while True:
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                existing += chunk
        self._file = env.new_writable_file(path)
        self._file.append(bytes(existing))
        self._file.sync()

    def append(self, data: bytes) -> None:
        self._file.append(data)

    def sync(self) -> None:
        self._file.sync()

    def close(self) -> None:
        self._file.close()
