"""Every CSV file and stream the package reads or writes, and the raw log."""

from __future__ import annotations

import csv
import io
import logging
import os
import sys
from contextlib import ExitStack, closing, contextmanager, nullcontext
from itertools import repeat
from typing import IO, Iterable, Iterator, Sequence

from .clustering import Partition
from .errors import AliasFileError, PartitionFileError, StopWordFileError
from .normalize import RawAlias, preprocess

log = logging.getLogger(__name__)

ALIAS_HEADER = ["id", "name", "email"]
PARTITION_HEADER = ["alias_id", "author_id"]
PAIR_HEADER = ["id_a", "id_b"]
TRIAGE_FILES = ("match", "differ", "undecided")


def _text_lines(path, error: type[Exception]) -> Iterator[str]:
    """The lines of the UTF-8 file at ``path``, read once, each decoded and
    checked on its own and kept with its end: ``\\n``, ``\\r\\n`` or a lone
    ``\\r``, as with ``newline=""``. A byte-order mark on line 1 is dropped.
    No byte of a multi-byte UTF-8 sequence is a line break, so a line
    decodes alone exactly when it decodes inside the file. Raises ``error``
    as ``file:line: not valid UTF-8`` or ``file:line: line contains NUL``,
    the words of the CSV reader of Python 3.10, which rejects a NUL."""
    with open(path, "rb") as fh:
        # iteration ends a line at b"\n" only; splitlines also at b"\r"
        raws = (raw for chunk in fh for raw in chunk.splitlines(True))
        for line_no, raw in enumerate(raws, start=1):
            try:
                line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8")
            except UnicodeDecodeError:
                raise error(f"{path}:{line_no}: not valid UTF-8") from None
            if "\0" in line:
                raise error(f"{path}:{line_no}: line contains NUL")
            yield line


def _read_rows(path, header: list[str],
               error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, row)`` for each record of the CSV file at ``path``
    after its header, skipping blank lines. ``line`` is the line the record
    starts on, which holds its first field: a quoted field may span lines.
    Raises ``error``, naming the line, on a header other than ``header``, a
    record with another number of fields, a line :func:`_text_lines`
    rejects, or a field over the CSV reader's size limit."""
    with closing(_text_lines(path, error)) as lines:
        reader = csv.reader(lines)
        try:
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != header:
                raise error(f"{path}:1: expected header "
                            f"{','.join(header)!r}, got {first!r}")
            start = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise error(f"{path}:{start}: expected "
                                    f"{len(header)} fields, got {len(row)}")
                    yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None


def read_stop_words(path) -> frozenset[str]:
    """Load a stop-word list: one word per line, ``#`` starts a comment,
    blank lines are skipped, words are lowercased.

    Raises :class:`StopWordFileError`, naming the line, on a line
    :func:`_text_lines` rejects and on a word that no cleaned name or email
    holds as a token: one with whitespace, or one that cleaning would change.
    """
    words = set()
    with closing(_text_lines(path, StopWordFileError)) as lines:
        for line_no, line in enumerate(lines, start=1):
            word = line.split("#", 1)[0].strip().lower()
            if not word:
                continue
            cleaned = preprocess(RawAlias("", "", word), frozenset())[1]
            if cleaned.split() != [word]:
                raise StopWordFileError(
                    f"{path}:{line_no}: stop word {word!r} is not one "
                    f"cleaned token (cleaning gives {cleaned!r}), so it "
                    "would remove nothing")
            words.add(word)
    return frozenset(words)


@contextmanager
def _text_output(out) -> Iterator[IO[str]]:
    """``out`` open for writing text: a path is opened as UTF-8, None is
    standard output, and an open stream is used as it is."""
    if out is not None and not hasattr(out, "write"):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh
    elif out is None and hasattr(sys.stdout, "buffer"):
        # UTF-8 and bare "\n" whatever the locale, so standard output gets
        # the bytes a file would
        sys.stdout.flush()
        fh = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="")
        try:
            yield fh
        finally:
            fh.detach()  # flushes, and leaves sys.stdout open
    else:  # an open stream, or a stdout that holds no bytes (a StringIO)
        yield sys.stdout if out is None else out


def discard_stdout() -> None:
    """Point standard output at the null device: its reader has gone, and
    what is left in its buffer would fail again when flushed at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def write_csv(header: list[str], rows: Iterable[Sequence[str]],
              out) -> None:
    """Write ``header`` and then ``rows`` of strings as CSV lines ending in
    ``\\n`` to ``out``: a path, an open text stream, or None for standard
    output. The writer quotes a field that holds ``\\n`` but not one that
    holds a lone ``\\r``, which a reader takes for a line end, so a row with
    ``\\r`` in any field is written with every field quoted."""
    with _text_output(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            (quoted if "\r" in "".join(row) else writer).writerow(row)


def write_triage(rows: Iterable[tuple[str, Sequence[str], Sequence[str],
                                      Sequence[str]]],
                 prefix) -> tuple[int, ...]:
    """Write ``<prefix>_match.csv``, ``<prefix>_differ.csv`` and
    ``<prefix>_undecided.csv``, each an ``id_a,id_b`` header and one row
    per pair, from rows ``(id_a, match, differ, undecided)`` of
    :func:`dealias.evaluation.triage_rows`. Each row's pairs are written as
    it comes, so no more than one row is held. Returns the number of pairs
    written to each file, in that order."""
    counts = [0] * len(TRIAGE_FILES)
    with ExitStack() as stack:
        writers = []
        for suffix in TRIAGE_FILES:
            fh = stack.enter_context(_text_output(f"{prefix}_{suffix}.csv"))
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(PAIR_HEADER)
            writers.append(writer.writerows)
        for id_a, *decided in rows:
            for k, (write, ids) in enumerate(zip(writers, decided)):
                write(zip(repeat(id_a), ids))
                counts[k] += len(ids)
    return tuple(counts)


def read_aliases(path) -> list[RawAlias]:
    """Load alias records from a CSV file with header ``id,name,email``.

    Raises :class:`AliasFileError` (with the offending line number) on a bad
    header, wrong field count, empty id, an id holding a carriage return,
    duplicate id, a NUL, or bytes that are not UTF-8.
    """
    records: list[RawAlias] = []
    seen: dict[str, int] = {}
    for line_no, (alias_id, name, email) in _read_rows(path, ALIAS_HEADER,
                                                       AliasFileError):
        if not alias_id:
            raise AliasFileError(f"{path}:{line_no}: empty alias id")
        if "\r" in alias_id:
            # the CSV writer quotes a field with "\n" but not one with a
            # lone "\r", so the id would not read back from any output
            raise AliasFileError(f"{path}:{line_no}: alias id "
                                 f"{alias_id!r} holds a carriage return")
        if alias_id in seen:
            raise AliasFileError(
                f"{path}:{line_no}: duplicate alias id {alias_id!r} "
                f"(first seen on line {seen[alias_id]})")
        seen[alias_id] = line_no
        records.append(RawAlias(alias_id, name, email))
    return records


def write_aliases(records: Iterable[RawAlias], path) -> None:
    """Write ``id,name,email`` rows to ``path``, or to stdout for None."""
    write_csv(ALIAS_HEADER, ((r.id, r.name, r.email) for r in records), path)


def read_log(path) -> list[RawAlias]:
    """:func:`extract_from_log` on the log at ``path``, or on stdin for ``-``,
    dropping a byte-order mark and replacing bytes that are not UTF-8."""
    with (nullcontext(sys.stdin.buffer) if path == "-"
          else open(path, "rb")) as raw:
        text = io.TextIOWrapper(raw, encoding="utf-8-sig", errors="replace")
        try:
            return extract_from_log(text)
        finally:
            text.detach()  # leaves sys.stdin open


def extract_from_log(stream: IO[str]) -> list[RawAlias]:
    """Collect distinct name/email pairs from tab-separated log lines.

    Each useful line is ``name<TAB>email``; splitting happens at the first
    tab. A NUL becomes U+FFFD, as a byte that is not UTF-8 does in
    :func:`read_log`, since the alias file readers reject a NUL. Duplicate
    pairs are kept once (first occurrence order). Lines
    without a tab are skipped and counted in a single warning. Ids are
    synthesized as a0001, a0002, ... in order of first appearance, padded
    to four digits and no wider: past a9999 come a10000, a10001, ..., which
    sort before a9999 as strings. A cluster is labelled with its smallest
    member id as a string, so a cluster holding a9999 and a10000 is
    labelled a10000.
    """
    seen: dict[tuple[str, str], None] = {}
    skipped = 0
    for line in stream:
        line = line.rstrip("\r\n").replace("\0", "\ufffd")
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
    """Write ``alias_id,author_id`` rows, sorted by alias id, to ``path``,
    or to stdout for None."""
    assignment = partition.assignment
    write_csv(PARTITION_HEADER,
              ((alias_id, assignment[alias_id])
               for alias_id in sorted(assignment)), path)


def read_partition(path) -> Partition:
    """Load a partition file; author labels are re-canonicalized on load."""
    assignment: dict[str, str] = {}
    for line_no, (alias_id, author_id) in _read_rows(path, PARTITION_HEADER,
                                                     PartitionFileError):
        if not alias_id or not author_id:
            raise PartitionFileError(f"{path}:{line_no}: empty field")
        if alias_id in assignment:
            raise PartitionFileError(
                f"{path}:{line_no}: alias id {alias_id!r} assigned twice")
        assignment[alias_id] = author_id
    return Partition(assignment)
