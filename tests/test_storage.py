import io
import logging

import pytest

from dealias.clustering import Partition
from dealias.errors import AliasFileError, PartitionFileError
from dealias.normalize import RawAlias
from dealias.storage import (extract_from_log, read_aliases, read_partition,
                             write_aliases, write_partition)


def test_alias_round_trip(tmp_path):
    path = tmp_path / "aliases.csv"
    records = [RawAlias("a1", "John Doe", "jdoe@work.com"),
               RawAlias("a2", 'quoted, "name"', "odd@addr"),
               RawAlias("a3", "", "")]
    write_aliases(records, path)
    assert read_aliases(path) == records
    assert path.read_text().splitlines()[0] == "id,name,email"


def test_read_aliases_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("identifier,name,email\na1,x,y\n")
    with pytest.raises(AliasFileError, match=":1:"):
        read_aliases(path)


def test_read_aliases_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,name,email\na1,x\n")
    with pytest.raises(AliasFileError, match=":2:"):
        read_aliases(path)


def test_read_aliases_rejects_duplicate_and_empty_ids(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,name,email\na1,x,y\na1,z,w\n")
    with pytest.raises(AliasFileError, match="duplicate"):
        read_aliases(path)
    path.write_text("id,name,email\n,x,y\n")
    with pytest.raises(AliasFileError, match="empty"):
        read_aliases(path)


def test_read_aliases_tolerates_bom_and_blank_lines(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("﻿id,name,email\na1,x,y\n\na2,z,w\n".encode("utf-8"))
    assert [r.id for r in read_aliases(path)] == ["a1", "a2"]


def test_read_aliases_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"id,name,email\r\na1,Jose,j@x\r\na2,Jos\xe9,j2@x\r\n")
    with pytest.raises(AliasFileError, match=r"latin1\.csv:3: not valid UTF-8"):
        read_aliases(path)
    # past the text reader's first block, and after a multi-byte character
    rows = [f"a{k},Jos\u00e9,j{k}@x\n".encode() for k in range(1000)]
    path.write_bytes(b"id,name,email\n" + b"".join(rows) + b"b,\xff,y\n")
    with pytest.raises(AliasFileError, match=":1002: not valid UTF-8"):
        read_aliases(path)


def test_read_aliases_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_aliases(tmp_path / "nope.csv")


def test_extract_from_log_dedup_and_ids(caplog):
    log = io.StringIO(
        "John Doe\tjdoe@work.com\n"
        "Jane Roe\tjroe@home.org\n"
        "John Doe\tjdoe@work.com\n"       # duplicate pair
        "broken line without tab\n"
        "John Doe\tother@work.com\n"
        "\n"                              # blank: also no tab
    )
    with caplog.at_level(logging.WARNING, logger="dealias.storage"):
        records = extract_from_log(log)
    assert records == [
        RawAlias("a0001", "John Doe", "jdoe@work.com"),
        RawAlias("a0002", "Jane Roe", "jroe@home.org"),
        RawAlias("a0003", "John Doe", "other@work.com"),
    ]
    assert "skipped 2" in caplog.text


def test_extract_from_log_splits_at_first_tab():
    records = extract_from_log(io.StringIO("a b\tc\td\n"))
    assert records == [RawAlias("a0001", "a b", "c\td")]


def test_partition_round_trip(tmp_path):
    path = tmp_path / "part.csv"
    part = Partition({"a2": "x", "a1": "x", "a3": "y"})
    write_partition(part, path)
    text = path.read_text()
    assert text == "alias_id,author_id\na1,a1\na2,a1\na3,a3\n"
    assert read_partition(path) == part


def test_read_partition_relabels_to_canonical(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("alias_id,author_id\nz,9\ny,9\nx,7\n")
    part = read_partition(path)
    assert part.assignment == {"y": "y", "z": "y", "x": "x"}


def test_read_partition_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alias,author\na,b\n")
    with pytest.raises(PartitionFileError, match=":1:"):
        read_partition(path)
    path.write_text("alias_id,author_id\na\n")
    with pytest.raises(PartitionFileError, match=":2:"):
        read_partition(path)
    path.write_text("alias_id,author_id\na,x\na,y\n")
    with pytest.raises(PartitionFileError, match="twice"):
        read_partition(path)
    path.write_text("alias_id,author_id\na,\n")
    with pytest.raises(PartitionFileError, match="empty"):
        read_partition(path)


def test_read_partition_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"\xef\xbb\xbfalias_id,author_id\na1,a1\na2,\xe9\n")
    with pytest.raises(PartitionFileError, match=r"p\.csv:3: not valid UTF-8"):
        read_partition(path)
