import builtins
import csv
import io
import logging
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from dealias.clustering import Partition
from dealias.errors import (AliasFileError, PartitionFileError,
                            StopWordFileError)
from dealias.normalize import DEFAULT_STOP_WORDS, RawAlias, preprocess
from dealias.storage import (extract_from_log, read_aliases, read_partition,
                             read_stop_words, write_aliases, write_partition,
                             write_triage)


def test_alias_round_trip(tmp_path):
    path = tmp_path / "aliases.csv"
    records = [RawAlias("a1", "John Doe", "jdoe@work.com"),
               RawAlias("a2", 'quoted, "name"', "odd@addr"),
               RawAlias("a3", "", ""),
               RawAlias("a4", "Ann\rLee", "x"),
               RawAlias("a5", "Bob", "b@y\r")]
    write_aliases(records, path)
    assert read_aliases(path) == records
    # csv.writer leaves a lone "\r" unquoted, and a reader ends the line
    # there; such a row alone is written with every field quoted
    assert path.read_bytes() == (
        b'id,name,email\na1,John Doe,jdoe@work.com\n'
        b'a2,"quoted, ""name""",odd@addr\na3,,\n'
        b'"a4","Ann\rLee","x"\n"a5","Bob","b@y\r"\n')


# names and emails with line breaks, CSV quoting characters, white space
# and non-ASCII; ids the same but never holding "\r", which read_aliases
# rejects
_text = st.text(alphabet='\r\n,"\t ab\u00e9\u65e5\u2028', max_size=6)
_record_ids = st.text(alphabet='\n,"\t a\u00e9\u65e5', min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_record_ids, _text, _text), max_size=6,
                unique_by=lambda record: record[0]))
def test_write_aliases_then_read_aliases_gives_the_records_back(records):
    records = [RawAlias(*record) for record in records]
    with tempfile.TemporaryDirectory() as tmp:
        write_aliases(records, f"{tmp}/aliases.csv")
        assert read_aliases(f"{tmp}/aliases.csv") == records


def _message(error, read, path) -> str:
    with pytest.raises(error) as info:
        read(path)
    return str(info.value)


def test_read_aliases_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("identifier,name,email\na1,x,y\n")
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:1: expected header 'id,name,email', "
        "got ['identifier', 'name', 'email']")
    path.write_text("")
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:1: expected header 'id,name,email', got None")


def test_read_aliases_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,name,email\na1,x\n")
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:2: expected 3 fields, got 2")


def test_read_aliases_rejects_duplicate_and_empty_ids(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,name,email\na1,x,y\n\na1,z,w\n")
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:4: duplicate alias id 'a1' (first seen on line 2)")
    path.write_text("id,name,email\n,x,y\n")
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:2: empty alias id")


@pytest.mark.parametrize("alias_id, shown", [(b"q\r4", r"q\r4"),
                                             (b"q\r\n4", r"q\r\n4")])
def test_read_aliases_rejects_an_id_holding_a_carriage_return(
        tmp_path, alias_id, shown):
    # csv.writer quotes a field holding "\n", but not one holding a lone
    # "\r", so such an id would not read back from a partition or triage
    # file
    path = tmp_path / "cr.csv"
    path.write_bytes(b'id,name,email\n"' + alias_id
                     + b'",Ann Lee,ann@x.org\nq5,Ann Lee,ann@x.org\n')
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:2: alias id '{shown}' holds a carriage return")


def test_read_aliases_tolerates_bom_and_blank_lines(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("﻿id,name,email\na1,x,y\n\na2,z,w\n".encode("utf-8"))
    assert [r.id for r in read_aliases(path)] == ["a1", "a2"]


def test_read_aliases_counts_lines_inside_quoted_fields(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text('id,name,email\nx1,"John\nDoe",j@x\nx1,Ann,a@y\n')
    message = r"dup\.csv:4: duplicate alias id 'x1' \(first seen on line 2\)"
    with pytest.raises(AliasFileError, match=message):
        read_aliases(path)


def test_read_aliases_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"id,name,email\r\na1,Jose,j@x\r\na2,Jos\xe9,j2@x\r\n")
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:3: not valid UTF-8")
    # a lone CR ends a line too
    path.write_bytes(b"id,name,email\ra1,Jose,j@x\ra2,Jos\xe9,j2@x\r")
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:3: not valid UTF-8")
    # past the text reader's first block, and after a multi-byte character
    rows = [f"a{k},Jos\u00e9,j{k}@x\n".encode() for k in range(1000)]
    path.write_bytes(b"id,name,email\n" + b"".join(rows) + b"b,\xff,y\n")
    with pytest.raises(AliasFileError, match=":1002: not valid UTF-8"):
        read_aliases(path)


def test_a_record_error_names_the_line_the_record_starts_on(tmp_path):
    # a stray quote swallows the lines after it; the quote is on line 2
    path = tmp_path / "quote.csv"
    path.write_text('id,name,email\na1,"Ann,ann@x\na2,Bob,b@y\na3,Cy,c@z\n')
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:2: expected 3 fields, got 2")
    # a NUL in a quoted field that spans lines is named on its own line
    path.write_bytes(b'id,name,email\na1,"A\0nn\nLee",ann@x\n')
    assert _message(AliasFileError, read_aliases, path) == (
        f"{path}:2: line contains NUL")


@pytest.mark.parametrize("read, error, text, message", [
    (read_aliases, AliasFileError, b"name,id,email\na1,x,y\n",
     "1: expected header"),
    (read_aliases, AliasFileError, b"id,name,email\na1,x,y\na1,z,w\n",
     "3: duplicate alias id"),
    (read_aliases, AliasFileError, b"id,name,email\na1,x,y\na2,\xe9,w\n",
     "3: not valid UTF-8"),
    (read_aliases, AliasFileError, b"id,name,email\na1,x\0,y\n",
     "2: line contains NUL"),
    (read_partition, PartitionFileError, b"alias_id,author_id\na1,\xe9\n",
     "2: not valid UTF-8"),
    (read_stop_words, StopWordFileError, b"doe\n\xe9\n",
     "2: not valid UTF-8"),
    (read_stop_words, StopWordFileError, b"doe\nvan der\n",
     "2: stop word")],
    ids=["header", "duplicate", "utf8", "nul", "partition", "stop-words",
         "stop-word"])
def test_a_bad_file_is_opened_once_and_closed(read, error, text, message,
                                              tmp_path, monkeypatch):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(real_open(*args, **kwargs))
        return handles[-1]

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", recording_open)
    # closed when the error is raised, not when it is dropped: `info`
    # still holds the error
    with pytest.raises(error, match=f"{path.name}:{message}") as info:
        read(path)
    assert len(handles) == 1
    assert handles[0].closed, info


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


def test_extract_ids_past_a9999_take_the_smallest_string_label():
    log = io.StringIO("".join(f"n{k}\te{k}\n" for k in range(10000)))
    records = extract_from_log(log)
    assert [r.id for r in records[9998:]] == ["a9999", "a10000"]
    # no fixed width: a10000 sorts before a9999 and names their cluster
    part = Partition({"a9999": 0, "a10000": 0})
    assert part.assignment == {"a9999": "a10000", "a10000": "a10000"}


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
    for text, message in [
            ("alias,author\na,b\n", "1: expected header "
             "'alias_id,author_id', got ['alias', 'author']"),
            ("alias_id,author_id\na\n", "2: expected 2 fields, got 1"),
            ("alias_id,author_id\na,x,y\n", "2: expected 2 fields, got 3"),
            ("alias_id,author_id\na,x\n\na,y\n",
             "4: alias id 'a' assigned twice"),
            ("alias_id,author_id\na,\n", "2: empty field"),
            ("alias_id,author_id\n,a\n", "2: empty field")]:
        path.write_text(text)
        assert _message(PartitionFileError, read_partition, path) == (
            f"{path}:{message}")


def test_read_partition_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"\xef\xbb\xbfalias_id,author_id\na1,a1\na2,\xe9\n")
    assert _message(PartitionFileError, read_partition, path) == (
        f"{path}:3: not valid UTF-8")


def test_read_partition_counts_lines_inside_quoted_fields(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text('alias_id,author_id\nx1,"John\nDoe"\nx1,Ann\n')
    with pytest.raises(PartitionFileError,
                       match=r"p\.csv:4: alias id 'x1' assigned twice"):
        read_partition(path)


def test_read_stop_words_drops_bom_crlf_comments_and_case(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes("\ufeffFoo\r\n# comment\r\n\r\nBAR  # trailing\r\n"
                     "NoReply@GitHub\r\n".encode("utf-8"))
    assert read_stop_words(path) == frozenset({"foo", "bar", "noreply@github"})
    path.write_text("# only comments\n\n  # and blanks\n")
    assert read_stop_words(path) == frozenset()


def test_read_stop_words_reads_the_built_in_list_back(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("\n".join(sorted(DEFAULT_STOP_WORDS)))
    assert read_stop_words(path) == DEFAULT_STOP_WORDS


@given(st.text(max_size=30), st.text(max_size=30))
def test_every_cleaned_token_is_a_valid_stop_word(name, email):
    cleaned = preprocess(RawAlias("x", name, email), frozenset())
    words = " ".join(cleaned).split()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/stop.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(words))
        stop_words = read_stop_words(path)
    assert stop_words == frozenset(words)
    # each word is removed where it is a token
    assert preprocess(RawAlias("x", *cleaned), stop_words) == ("", "")


def test_read_stop_words_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(b"doe\r\nsmith\rJos\xe9\n")
    assert _message(StopWordFileError, read_stop_words, path) == (
        f"{path}:3: not valid UTF-8")


# ids that csv.writer quotes, ids it leaves alone, and both in one row
_ids = st.text(alphabet=',"\r\n a\u00e9\u65e5', min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ids, *[st.lists(_ids, max_size=4)] * 3),
                max_size=5))
def test_write_triage_writes_the_bytes_of_csv_writer(rows):
    # each file must be what csv.writer writes for the rows' pairs, in
    # order, whether or not an id needs quoting
    with tempfile.TemporaryDirectory() as tmp:
        counts = write_triage(rows, f"{tmp}/t")
        for k, suffix in enumerate(("match", "differ", "undecided")):
            want = io.StringIO(newline="")
            writer = csv.writer(want, lineterminator="\n")
            writer.writerow(["id_a", "id_b"])
            writer.writerows((row[0], id_b) for row in rows
                             for id_b in row[k + 1])
            with open(f"{tmp}/t_{suffix}.csv", "rb") as fh:
                assert fh.read() == want.getvalue().encode("utf-8")
            assert counts[k] == sum(len(row[k + 1]) for row in rows)
