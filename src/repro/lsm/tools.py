"""Offline inspection of a database directory: verify, stats, dump.

The checkpoint operator's toolbox: after a job writes (or a node dies
mid-write), ``verify`` walks every live SSTable, checks block checksums
and key ordering, and cross-checks the manifest; ``stats`` summarizes the
level shape; ``dump`` prints user-visible keys.  Exposed as
``python -m repro.lsm <verify|stats|dump> <dbdir>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CorruptionError, NotFoundError
from repro.lsm.db import table_file_name
from repro.lsm.dbformat import decode_internal_key, sort_key
from repro.lsm.env import Env, LocalFsEnv
from repro.lsm.manifest import VersionSet
from repro.lsm.options import Options
from repro.lsm.sstable import Table


@dataclass
class TableReport:
    """Verification outcome for one SSTable."""

    number: int
    level: int
    file_size: int
    entries: int = 0
    user_keys: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class VerifyReport:
    """Verification outcome for a whole database."""

    dbname: str
    tables: list[TableReport] = field(default_factory=list)
    manifest_errors: list[str] = field(default_factory=list)
    orphan_files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.manifest_errors
            and all(t.ok for t in self.tables)
        )

    def summary(self) -> str:
        lines = [f"verify {self.dbname}: {'OK' if self.ok else 'CORRUPT'}"]
        for report in self.tables:
            status = "ok" if report.ok else "; ".join(report.errors)
            lines.append(
                f"  L{report.level} {table_file_name(report.number)} "
                f"{report.file_size}B {report.entries} entries: {status}"
            )
        for error in self.manifest_errors:
            lines.append(f"  manifest: {error}")
        for orphan in self.orphan_files:
            lines.append(f"  orphan (unreferenced) file: {orphan}")
        return "\n".join(lines)


def _load_versions(env: Env, dbname: str, options: Options) -> VersionSet:
    versions = VersionSet(env, dbname, options.num_levels)
    versions.recover()
    return versions


def verify_db(
    dbname: str,
    options: Optional[Options] = None,
    env: Optional[Env] = None,
) -> VerifyReport:
    """Check every live table's checksums, ordering, and bounds."""
    options = options or Options()
    env = env or LocalFsEnv()
    report = VerifyReport(dbname=dbname)
    try:
        versions = _load_versions(env, dbname, options)
    except (CorruptionError, NotFoundError) as exc:
        report.manifest_errors.append(str(exc))
        return report

    live = set()
    for level, meta in versions.current.all_files():
        live.add(meta.number)
        table_report = TableReport(
            number=meta.number, level=level, file_size=meta.file_size
        )
        report.tables.append(table_report)
        path = env.join(dbname, table_file_name(meta.number))
        try:
            if env.file_size(path) != meta.file_size:
                table_report.errors.append(
                    f"size mismatch: manifest says {meta.file_size}, "
                    f"file is {env.file_size(path)}"
                )
            table = Table(options, env.new_random_access_file(path))
        except (CorruptionError, NotFoundError) as exc:
            table_report.errors.append(f"unreadable: {exc}")
            continue
        previous = None
        seen_users = set()
        try:
            for ikey, _ in table:
                table_report.entries += 1
                parsed = decode_internal_key(ikey)
                seen_users.add(parsed.user_key)
                if previous is not None and sort_key(previous) >= sort_key(ikey):
                    table_report.errors.append("keys out of order")
                    break
                previous = ikey
        except CorruptionError as exc:
            table_report.errors.append(f"corrupt block: {exc}")
            continue
        table_report.user_keys = len(seen_users)
        if table_report.entries:
            first = next(iter(table))[0]
            if first != meta.smallest:
                table_report.errors.append("smallest key disagrees with manifest")
            if previous is not None and previous != meta.largest:
                table_report.errors.append("largest key disagrees with manifest")
        table.close()

    for name in env.get_children(dbname):
        if name.endswith(".sst"):
            number = int(name.split(".")[0])
            if number not in live:
                report.orphan_files.append(name)
    versions.close()
    return report


def db_stats(
    dbname: str,
    options: Optional[Options] = None,
    env: Optional[Env] = None,
) -> dict:
    """Level shape + aggregate counts (no data reads)."""
    options = options or Options()
    env = env or LocalFsEnv()
    versions = _load_versions(env, dbname, options)
    levels = []
    for level in range(versions.current.num_levels):
        files = versions.current.files[level]
        if files:
            levels.append(
                {
                    "level": level,
                    "files": len(files),
                    "bytes": sum(f.file_size for f in files),
                }
            )
    stats = {
        "dbname": dbname,
        "levels": levels,
        "total_files": sum(item["files"] for item in levels),
        "total_bytes": sum(item["bytes"] for item in levels),
        "last_sequence": versions.last_sequence,
        "next_file_number": versions.next_file_number,
    }
    versions.close()
    return stats


def dump_db(
    dbname: str,
    options: Optional[Options] = None,
    env: Optional[Env] = None,
    limit: Optional[int] = None,
):
    """Yield user-visible (key, value) pairs (opens the DB read-only)."""
    from repro.lsm.db import DB

    options = options or Options()
    options.create_if_missing = False
    db = DB.open(dbname, options, env=env)
    try:
        for index, (key, value) in enumerate(db.iterate()):
            if limit is not None and index >= limit:
                return
            yield key, value
    finally:
        db.close()
