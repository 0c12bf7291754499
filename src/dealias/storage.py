"""Reading and writing the CSV file formats, and raw log extraction."""

from __future__ import annotations

import csv
import logging
from typing import IO, Iterable

from .clustering import Partition
from .errors import AliasFileError, PartitionFileError
from .normalize import RawAlias

log = logging.getLogger(__name__)

ALIAS_HEADER = ["id", "name", "email"]
PARTITION_HEADER = ["alias_id", "author_id"]


def _undecodable_line(path) -> int:
    """Number of the first line of ``path`` that is not valid UTF-8.

    Lines are decoded one at a time: no byte of a multi-byte UTF-8
    sequence is a line break, so a line decodes on its own exactly when it
    decodes inside the whole file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return 1  # not reached for a file the text reader rejected


def read_aliases(path) -> list[RawAlias]:
    """Load alias records from a CSV file with header ``id,name,email``.

    Raises :class:`AliasFileError` (with the offending line number) on a bad
    header, wrong field count, empty id, duplicate id, or bytes that are
    not UTF-8.
    """
    records: list[RawAlias] = []
    seen: dict[str, int] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ALIAS_HEADER:
                raise AliasFileError(
                    f"{path}:1: expected header {','.join(ALIAS_HEADER)!r}, "
                    f"got {header!r}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue  # stray blank line
                if len(row) != 3:
                    raise AliasFileError(
                        f"{path}:{line_no}: expected 3 fields, got {len(row)}")
                alias_id, name, email = row
                if not alias_id:
                    raise AliasFileError(f"{path}:{line_no}: empty alias id")
                if alias_id in seen:
                    raise AliasFileError(
                        f"{path}:{line_no}: duplicate alias id {alias_id!r} "
                        f"(first seen on line {seen[alias_id]})")
                seen[alias_id] = line_no
                records.append(RawAlias(alias_id, name, email))
    except UnicodeDecodeError:
        raise AliasFileError(
            f"{path}:{_undecodable_line(path)}: not valid UTF-8") from None
    return records


def write_aliases(records: Iterable[RawAlias], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ALIAS_HEADER)
        for rec in records:
            writer.writerow([rec.id, rec.name, rec.email])


def extract_from_log(stream: IO[str]) -> list[RawAlias]:
    """Collect distinct name/email pairs from tab-separated log lines.

    Each useful line is ``name<TAB>email``; splitting happens at the first
    tab. Duplicate pairs are kept once (first occurrence order). Lines
    without a tab are skipped and counted in a single warning. Ids are
    synthesized as a0001, a0002, ... in order of first appearance.
    """
    seen: dict[tuple[str, str], None] = {}
    skipped = 0
    for line in stream:
        line = line.rstrip("\r\n")
        name, sep, email = line.partition("\t")
        if not sep:
            skipped += 1
            continue
        seen.setdefault((name, email))
    if skipped:
        log.warning("skipped %d line(s) without a tab separator", skipped)
    return [RawAlias(f"a{i:04d}", name, email)
            for i, (name, email) in enumerate(seen, start=1)]


def write_partition(partition: Partition, path) -> None:
    """Write ``alias_id,author_id`` rows, sorted by alias id."""
    assignment = partition.assignment
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PARTITION_HEADER)
        for alias_id in sorted(assignment):
            writer.writerow([alias_id, assignment[alias_id]])


def read_partition(path) -> Partition:
    """Load a partition file; author labels are re-canonicalized on load."""
    assignment: dict[str, str] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != PARTITION_HEADER:
                raise PartitionFileError(
                    f"{path}:1: expected header {','.join(PARTITION_HEADER)!r}, "
                    f"got {header!r}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise PartitionFileError(
                        f"{path}:{line_no}: expected 2 fields, got {len(row)}")
                alias_id, author_id = row
                if not alias_id or not author_id:
                    raise PartitionFileError(f"{path}:{line_no}: empty field")
                if alias_id in assignment:
                    raise PartitionFileError(
                        f"{path}:{line_no}: alias id {alias_id!r} assigned twice")
                assignment[alias_id] = author_id
    except UnicodeDecodeError:
        raise PartitionFileError(
            f"{path}:{_undecodable_line(path)}: not valid UTF-8") from None
    return Partition(assignment)
