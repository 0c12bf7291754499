import csv
import inspect
import io
import itertools
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dealias import (Measure, MatcherConfig, RawAlias, disambiguate,
                     prepare_aliases, read_aliases, read_partition, sweep,
                     triage, triage_rows)
from dealias import cli
from dealias.cli import build_parser, main, parse_thresholds
from dealias.clustering import DEFAULT_METHOD
from dealias.evaluation import DEFAULT_DIFFER_CUTOFF
from dealias.rules import DEFAULT_CONFIG
from oracles import lev_similarity_matrix, triage_reference

DATA = Path(__file__).parent / "data"
FIXTURE_ALIASES = str(DATA / "fixture_aliases.csv")
FIXTURE_TRUTH = str(DATA / "fixture_truth.csv")


def run_cli(*argv):
    return main(list(argv))


def test_parse_thresholds_comma_list():
    assert parse_thresholds("0.9,0.95,1.0") == [0.9, 0.95, 1.0]
    assert parse_thresholds("0.5") == [0.5]


def test_parse_thresholds_inclusive_range():
    values = parse_thresholds("0.5:1.0:0.1")
    assert values == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert parse_thresholds("0.9:0.9:0.05") == [0.9]


def test_parse_thresholds_rejects_bad_specs():
    with pytest.raises(ValueError):
        parse_thresholds("0.5:1.0")
    with pytest.raises(ValueError):
        parse_thresholds("1.0:0.5:0.1")
    with pytest.raises(ValueError):
        parse_thresholds("0.5:1.0:0")
    for step in ("inf", "nan"):
        with pytest.raises(ValueError, match="step"):
            parse_thresholds(f"0.5:1.0:{step}")


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("spec, bound", [("0.5:inf:0.1", "stop 'inf'"),
                                         ("0:1e9:1", "stop '1e9'"),
                                         ("nan:1:0.1", "start 'nan'")])
def test_threshold_range_bounds_outside_0_1_exit_2(spec, bound):
    # in a child with a time and a memory limit: a range that never ends
    # grows a list without bound, and must fail here rather than hang the
    # suite or take the machine's memory
    proc = subprocess.run(
        [sys.executable, "-m", "dealias", "sweep", FIXTURE_ALIASES,
         FIXTURE_TRUTH, "--thresholds", spec, "-o", os.devnull],
        capture_output=True, text=True, timeout=20,
        preexec_fn=_limit_address_space if os.name == "posix" else None)
    assert proc.returncode == 2, proc.stderr
    assert f"threshold range {bound} is outside [0, 1]" in proc.stderr


def test_threshold_range_of_too_many_values_exits_2():
    # 10^12 values: counted before any is built, in a child with a time and
    # a memory limit like the bounds above
    proc = subprocess.run(
        [sys.executable, "-m", "dealias", "sweep", FIXTURE_ALIASES,
         FIXTURE_TRUTH, "--thresholds", "0:1:1e-12", "-o", os.devnull],
        capture_output=True, text=True, timeout=20,
        preexec_fn=_limit_address_space if os.name == "posix" else None)
    assert proc.returncode == 2, proc.stderr
    assert "holds more than 1001 values" in proc.stderr


def test_parse_thresholds_takes_a_range_of_1001_values():
    values = parse_thresholds("0:1:0.001")
    assert len(values) == 1001 and values[0] == 0.0 and values[-1] == 1.0
    with pytest.raises(ValueError, match="more than 1001"):
        parse_thresholds("0:1:0.000999")


def test_usage_errors_exit_1(capsys):
    assert run_cli() == 1
    assert run_cli("disambiguate") == 1
    assert run_cli("disambiguate", "x.csv", "--method", "psychic") == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run_cli("--help") == 0
    assert "disambiguate" in capsys.readouterr().out


def test_missing_input_exits_2(tmp_path, capsys):
    assert run_cli("disambiguate", str(tmp_path / "missing.csv")) == 2
    assert "error" in capsys.readouterr().err


def test_bad_threshold_value_exits_2(tmp_path, capsys):
    assert run_cli("disambiguate", FIXTURE_ALIASES, "--threshold", "1.5") == 2
    prefix = str(tmp_path / "t")
    for cutoff in ("nan", "-1", "7"):
        assert run_cli("triage", FIXTURE_ALIASES, "--out-prefix", prefix,
                       "--differ-cutoff", cutoff) == 2
        assert "differ cutoff out of range" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_disambiguate_to_stdout(capsys):
    assert run_cli("disambiguate", FIXTURE_ALIASES) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "alias_id,author_id"
    assert len(lines) == 33
    assert "32 aliases -> 18 authors" in err


def test_disambiguate_evaluate_round_trip(tmp_path, capsys):
    part = tmp_path / "part.csv"
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(part)) == 0
    assert run_cli("evaluate", str(part), FIXTURE_TRUTH) == 0
    out = capsys.readouterr().out
    assert "tp = 16" in out
    assert "precision = 1.000000" in out
    assert "recall = 1.000000" in out
    assert "f1 = 1.000000" in out


def test_simple_with_threshold_warns(tmp_path, capsys):
    part = tmp_path / "part.csv"
    for option in (["--threshold", "0.9"], ["--measure", "jw"]):
        assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(part),
                       "--method", "simple", *option) == 0
        assert "ignores" in capsys.readouterr().err


def test_disambiguate_measure_jw_is_the_library_partition(tmp_path, capsys):
    part = tmp_path / "part.csv"
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(part),
                   "--measure", "jw") == 0
    aliases = prepare_aliases(read_aliases(FIXTURE_ALIASES))
    jw = disambiguate(aliases,
                      cfg=MatcherConfig(measure=Measure.JARO_WINKLER))
    assert read_partition(str(part)) == jw
    # the fixture tells the measures apart at the default threshold
    assert jw != disambiguate(aliases)
    capsys.readouterr()


def test_unexpected_exception_exits_3_with_a_traceback(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("not an input error")

    monkeypatch.setattr(cli, "disambiguate", fail)
    assert run_cli("disambiguate", FIXTURE_ALIASES) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: not an input error" in err


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", FIXTURE_ALIASES, FIXTURE_TRUTH, "-o", str(out),
                   "--methods", "gambit,simple,bird", "--measures", "lev",
                   "--thresholds", "0.9,0.95") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("method,measure,threshold,tp,fp,fn,"
                        "precision,recall,f1,wall_time_ms")
    assert len(lines) == 1 + 2 + 1 + 2  # gambit x2, simple, bird x2
    gambit95 = [ln for ln in lines if ln.startswith("gambit,lev,0.95")][0]
    cells = gambit95.split(",")
    assert cells[3:6] == ["16", "0", "0"]
    assert cells[8] == "1.000000"
    capsys.readouterr()


def test_sweep_repeated_method_and_measure_write_one_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", FIXTURE_ALIASES, FIXTURE_TRUTH, "-o", str(out),
                   "--methods", "gambit,gambit", "--measures", "lev,lev",
                   "--thresholds", "0.9") == 0
    assert len(out.read_text().splitlines()) == 1 + 1
    capsys.readouterr()


def test_sweep_without_methods_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", FIXTURE_ALIASES, FIXTURE_TRUTH, "-o", str(out),
                   "--methods", ",") == 2
    assert "no methods given" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_without_measures_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", FIXTURE_ALIASES, FIXTURE_TRUTH, "-o", str(out),
                   "--methods", "gambit,bird", "--measures", ",") == 2
    assert "no measures given" in capsys.readouterr().err
    assert not out.exists()
    # simple takes no measure, so it needs none
    assert run_cli("sweep", FIXTURE_ALIASES, FIXTURE_TRUTH, "-o", str(out),
                   "--methods", "simple", "--measures", ",") == 0
    assert len(out.read_text().splitlines()) == 2


def test_sweep_with_a_truth_of_other_ids_exits_2(tmp_path, capsys):
    truth = tmp_path / "other.csv"
    truth.write_text("alias_id,author_id\nnobody,u1\n")
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", FIXTURE_ALIASES, str(truth), "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert "the truth covers other alias ids than the aliases" in err
    assert "32 are only in the aliases, 1 only in the truth" in err
    assert not out.exists()


def test_evaluate_partitions_of_other_ids_exits_2(tmp_path, capsys):
    predicted = tmp_path / "p.csv"
    predicted.write_text("alias_id,author_id\na1,u1\na2,u1\nnobody,u2\n")
    truth = tmp_path / "t.csv"
    truth.write_text("alias_id,author_id\na1,u1\na2,u2\na3,u3\na4,u3\n")
    assert run_cli("evaluate", str(predicted), str(truth)) == 2
    out, err = capsys.readouterr()
    assert ("the predicted partition covers other alias ids than the "
            "truth: 2 are only in the truth, 1 only in the predicted "
            "partition") in err
    assert out == ""


_SHARED_OPTION_HELP = {
    "--min-len": "--min-len MIN_LEN strings shorter than this never match "
                 "(default 3)",
    "--threads": "--threads THREADS worker processes for the pair scan, at "
                 "most one per core (default 1), started by the platform's "
                 "default start method",
    "--stop-words": "--stop-words FILE replace the built-in stop-word list "
                    "(one token per line, '#' comments)",
}


@pytest.mark.parametrize("command, option", [
    pytest.param("disambiguate", "--min-len", id="disambiguate"),
    pytest.param("sweep", "--min-len", id="sweep"),
    pytest.param("disambiguate", "--threads", id="disambiguate-threads"),
    pytest.param("sweep", "--threads", id="sweep-threads"),
    pytest.param("disambiguate", "--stop-words", id="disambiguate-stop-words"),
    pytest.param("sweep", "--stop-words", id="sweep-stop-words"),
    pytest.param("triage", "--stop-words", id="triage-stop-words")])
def test_min_len_has_its_help_text(command, option, capsys):
    assert run_cli(command, "--help") == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert _SHARED_OPTION_HELP[option] in help_text


def test_triage_help_shows_the_default_cutoff(capsys):
    assert run_cli("triage", "--help") == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"fall below this (default {DEFAULT_DIFFER_CUTOFF})" in help_text


def test_library_defaults_are_the_cli_defaults():
    parser = build_parser()
    args = parser.parse_args(["disambiguate", "a.csv"])
    library = inspect.signature(disambiguate).parameters
    assert args.method == library["method"].default == DEFAULT_METHOD
    assert library["cfg"].default is DEFAULT_CONFIG
    assert args.min_len == DEFAULT_CONFIG.min_len
    args = parser.parse_args(["sweep", "a.csv", "t.csv"])
    library = inspect.signature(sweep).parameters
    assert args.methods.split(",") == list(library["methods"].default)
    assert ([Measure.from_token(token) for token in args.measures.split(",")]
            == list(library["measures"].default))
    assert (parse_thresholds(args.thresholds)
            == list(library["thresholds"].default))
    assert args.min_len == library["min_len"].default
    args = parser.parse_args(["triage", "a.csv", "--out-prefix", "t"])
    for function in (triage_rows, triage):
        assert (args.differ_cutoff == DEFAULT_DIFFER_CUTOFF
                == inspect.signature(function).parameters[
                    "differ_cutoff"].default)


def test_input_not_utf8_exits_2(tmp_path, capsys):
    aliases = tmp_path / "a.csv"
    aliases.write_bytes(b"id,name,email\nx1,Jos\xe9,j@x.co\n")
    assert run_cli("disambiguate", str(aliases)) == 2
    assert f"{aliases}:2: not valid UTF-8" in capsys.readouterr().err
    truth = tmp_path / "t.csv"
    truth.write_bytes(b"alias_id,author_id\nx1,\xe9\n")
    assert run_cli("evaluate", str(truth), str(truth)) == 2
    assert f"{truth}:2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, reason", [
    pytest.param(command, field, reason, id=command + suffix)
    for suffix, field, reason in [
        ("", "x" * (csv.field_size_limit() + 1),
         "field larger than field limit"),
        ("-nul", "A\0nn", "line contains NUL"),
        ("-nul-spanning-lines", '"A\0nn\nLee"', "line contains NUL")]
    for command in ("disambiguate", "evaluate", "sweep")])
def test_csv_field_over_the_size_limit_exits_2(command, field, reason,
                                                tmp_path, capsys):
    # the csv module rejects a field longer than csv.field_size_limit(),
    # and the reader a NUL on every Python version; line 3 of an alias, a
    # partition and a truth file holds one, also where the NUL's quoted
    # field goes on to line 4
    bad = tmp_path / "bad.csv"
    if command == "disambiguate":
        bad.write_text(f"id,name,email\na1,Ann,ann@x\na2,{field},b@y\n")
        argv = [str(bad)]
    else:
        bad.write_text(f"alias_id,author_id\na1,u1\na2,{field}\n")
        argv = ([str(bad), FIXTURE_TRUTH] if command == "evaluate"
                else [FIXTURE_ALIASES, str(bad)])
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3: {reason}" in err
    assert "Traceback" not in err


def test_stray_quote_is_named_on_its_own_line(tmp_path, capsys):
    # the quoted field swallows lines 3 and 4, and the record starts on 2
    bad = tmp_path / "quote.csv"
    bad.write_text('id,name,email\na1,"Ann,ann@x\na2,Bob,b@y\na3,Cy,c@z\n')
    assert run_cli("disambiguate", str(bad)) == 2
    assert f"{bad}:2: expected 3 fields, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["disambiguate", "triage"])
def test_alias_id_holding_a_carriage_return_exits_2(command, tmp_path,
                                                    capsys, monkeypatch):
    # unquoted in the output, "q\r4" would read back as "q" and a row "4"
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "cr.csv"
    bad.write_bytes(b'id,name,email\n"q\r4",Ann Lee,ann@x.org\n'
                    b'q5,Ann Lee,ann@x.org\n')
    argv = {"disambiguate": ["-o", "p.csv"],
            "triage": ["--out-prefix", "t"]}[command]
    assert run_cli(command, str(bad), *argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: alias id 'q\\r4' holds a carriage return" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [bad]


def test_stop_words_holding_a_nul_exit_2(tmp_path, capsys):
    stop = tmp_path / "stop.txt"
    stop.write_bytes(b"doe\nsm\0ith\n")
    assert run_cli("disambiguate", FIXTURE_ALIASES,
                   "--stop-words", str(stop)) == 2
    assert f"{stop}:2: line contains NUL" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["disambiguate", "sweep"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_1_exit_2(command, threads, capsys):
    argv = [FIXTURE_ALIASES] + ([FIXTURE_TRUTH] if command == "sweep" else [])
    assert run_cli(command, *argv, "--threads", threads) == 2
    assert f"workers must be >= 1, got {threads}" in capsys.readouterr().err


def test_stop_words_not_utf8_exits_2(tmp_path, capsys):
    stop = tmp_path / "stop.txt"
    stop.write_bytes(b"doe\nJos\xe9\n")
    assert run_cli("disambiguate", FIXTURE_ALIASES,
                   "--stop-words", str(stop)) == 2
    assert f"{stop}:2: not valid UTF-8" in capsys.readouterr().err


def test_triage_writes_three_files(tmp_path, capsys):
    prefix = tmp_path / "t"
    assert run_cli("triage", FIXTURE_ALIASES, "--out-prefix", str(prefix)) == 0
    out = capsys.readouterr().out
    counts = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        counts[key] = int(value)
    assert counts["total_pairs"] == 32 * 31 // 2
    result = triage(prepare_aliases(read_aliases(FIXTURE_ALIASES)))
    for suffix, pairs in (("match", result.auto_match),
                          ("differ", result.auto_differ),
                          ("undecided", result.undecided)):
        lines = (tmp_path / f"t_{suffix}.csv").read_text().splitlines()
        assert lines[0] == "id_a,id_b"
        assert len(lines) == 1 + counts[f"auto_{suffix}"
                                        if suffix != "undecided" else suffix]
        rows = [tuple(row) for row in csv.reader(lines[1:])]
        assert all(a < b for a, b in rows)
        assert all(r < s for r, s in zip(rows, rows[1:]))
        assert rows == list(pairs)


def test_extract_subcommand(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("John Doe\tjdoe@work.com\nJohn Doe\tjdoe@work.com\n"
                   "no tab here\nJane Roe\tjroe@home.org\n")
    out = tmp_path / "aliases.csv"
    assert run_cli("extract", str(log), "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,name,email"
    assert lines[1] == "a0001,John Doe,jdoe@work.com"
    assert lines[2] == "a0002,Jane Roe,jroe@home.org"
    assert len(lines) == 3
    assert "2 distinct aliases" in capsys.readouterr().err


def test_extract_writes_a_nul_as_u_fffd(tmp_path, capsys):
    # a NUL cleans away as U+FFFD does, so the log's partition is that of
    # the same log without it
    partitions = []
    for name, written in (("Ann\0 Lee", "Ann\ufffd Lee"),
                          ("Ann Lee", "Ann Lee")):
        log = tmp_path / "log.txt"
        log.write_text(f"{name}\tann@x.org\nAnn Lee\tann@y.org\n"
                       "Bob Roe\tbob@z.net\n", encoding="utf-8")
        aliases, part = tmp_path / "a.csv", tmp_path / "p.csv"
        assert run_cli("extract", str(log), "-o", str(aliases)) == 0
        assert aliases.read_text(encoding="utf-8").splitlines()[1] == (
            f"a0001,{written},ann@x.org")
        assert run_cli("disambiguate", str(aliases), "-o", str(part)) == 0
        partitions.append(part.read_text())
    assert partitions == ["alias_id,author_id\na0001,a0001\na0002,a0001\n"
                          "a0003,a0003\n"] * 2
    capsys.readouterr()


def test_stop_words_flag(tmp_path, capsys):
    stop = tmp_path / "stop.txt"
    stop.write_text("doe\n")
    aliases = tmp_path / "a.csv"
    aliases.write_text("id,name,email\nx1,John Doe,j@x.co\n"
                       "x2,John,j2@y.org\n")
    part = tmp_path / "p.csv"
    assert run_cli("disambiguate", str(aliases), "-o", str(part),
                   "--stop-words", str(stop)) == 0
    # with "doe" removed both names clean to "john" and match exactly
    assert part.read_text() == "alias_id,author_id\nx1,x1\nx2,x1\n"
    capsys.readouterr()


def test_stop_word_list_of_only_comments_removes_nothing(tmp_path, capsys):
    aliases = tmp_path / "a.csv"
    aliases.write_text("id,name,email\nx1,Jr UTC,\nx2,Jr UTC,\n")
    stop = tmp_path / "stop.txt"
    stop.write_text("# no words here\n\n   # nor here\n")
    part = tmp_path / "p.csv"
    # the built-in list removes both tokens and leaves two empty names
    assert run_cli("disambiguate", str(aliases), "-o", str(part)) == 0
    assert part.read_text() == "alias_id,author_id\nx1,x1\nx2,x2\n"
    # an empty list keeps them, and the equal names "jr utc" match
    assert run_cli("disambiguate", str(aliases), "-o", str(part),
                   "--stop-words", str(stop)) == 0
    assert part.read_text() == "alias_id,author_id\nx1,x1\nx2,x1\n"
    capsys.readouterr()


@pytest.mark.parametrize("word", ["josé", "van der", "o'brien", "jr2"])
def test_stop_word_cleaning_never_produces_exits_2(word, tmp_path, capsys):
    stop = tmp_path / "stop.txt"
    stop.write_text(f"doe\n\n{word}  # a comment\n", encoding="utf-8")
    assert run_cli("disambiguate", FIXTURE_ALIASES,
                   "--stop-words", str(stop)) == 2
    assert f"{stop}:3: stop word {word!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["disambiguate", "extract", "sweep"])
def test_stdout_equals_output_file(command, tmp_path, capsysbinary):
    log = tmp_path / "log.txt"
    log.write_bytes('\ufeffJosé Ñúñez\tjn@x.org\r\n"Lee, Ann"\t李@y\n'
                    .encode("utf-8"))
    argv = {"disambiguate": [command, FIXTURE_ALIASES, "--threads", "1"],
            "extract": [command, str(log)],
            "sweep": [command, FIXTURE_ALIASES, FIXTURE_TRUTH, "--methods",
                      "gambit,simple", "--thresholds", "0.9,0.95"]}[command]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "-o", str(out)) == 0
    capsysbinary.readouterr()
    assert run_cli(*argv) == 0
    written = capsysbinary.readouterr().out
    if command == "sweep":  # but for wall_time_ms, the last column
        written, expected = (b"\n".join(line.rsplit(b",", 1)[0]
                                        for line in data.splitlines())
                             for data in (written, out.read_bytes()))
    else:
        expected = out.read_bytes()
    assert written == expected


def test_extract_reads_stdin_as_it_reads_a_file(tmp_path):
    # a byte-order mark, and a byte that is not UTF-8
    log = tmp_path / "log.txt"
    log.write_bytes(b"\xef\xbb\xbfAnn Lee\tann@x.org\nBob\tb\xe9@y\n")
    dealias = [sys.executable, "-m", "dealias", "extract"]
    subprocess.run(dealias + [str(log), "-o", str(tmp_path / "a.csv")],
                   check=True, capture_output=True)
    expected = (tmp_path / "a.csv").read_bytes()
    assert expected == ("id,name,email\na0001,Ann Lee,ann@x.org\n"
                        "a0002,Bob,b\ufffd@y\n").encode("utf-8")
    piped = subprocess.run(dealias + ["-", "-o", str(tmp_path / "b.csv")],
                           input=log.read_bytes(), capture_output=True)
    assert piped.returncode == 0, piped.stderr
    assert (tmp_path / "b.csv").read_bytes() == expected
    piped = subprocess.run(dealias + ["-"], input=log.read_bytes(),
                           capture_output=True)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == expected


def test_output_piped_to_a_reader_that_stops_exits_141(tmp_path):
    # like `dealias extract big.log | head -n 1`: 141 is what a shell
    # reports for a filter ended by SIGPIPE, and no error is printed
    log = tmp_path / "big.log"
    log.write_text("".join(f"Person {k}\tp{k}@example.org\n"
                           for k in range(20_000)))
    with subprocess.Popen([sys.executable, "-m", "dealias", "extract",
                           str(log)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"id,name,email\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141, err
    assert "error" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["evaluate", FIXTURE_TRUTH, FIXTURE_TRUTH],
    ["disambiguate", FIXTURE_ALIASES],
    ["triage", FIXTURE_ALIASES, "--out-prefix", "{tmp}/t"]],
    ids=lambda argv: argv[0])
def test_output_pipe_closed_before_the_first_write_exits_141(argv, tmp_path):
    # buffered output, flushed after the command, fails on the closed pipe
    # too; with Python's own buffering, not the unbuffered mode
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dealias",
             *(arg.format(tmp=tmp_path) for arg in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "dealias", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "disambiguate" in proc.stdout


def test_cli_import_leaves_numpy_out():
    # every CLI process pays for what it imports; the worker pool imports
    # multiprocessing only when it starts
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dealias.cli; "
         "print('numpy' in sys.modules, 'multiprocessing' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


# names and emails as people write them: empty, accented, non-Latin, with
# CSV quoting characters; never a line break or a tab, which end a log line
# and its name field, and never a surrogate, which UTF-8 cannot encode
_FIELDS = st.one_of(
    st.sampled_from(["", "José Ñúñez", "jose.nunez@example.org", "李雷",
                     "Дмитрий", '"Doe, John"', "Jörg Mü"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
            max_size=12))
_ROWS = st.lists(st.tuples(_FIELDS, _FIELDS), min_size=1, max_size=12)


def _run_quietly(*argv) -> tuple[int, str, str]:
    with redirect_stdout(io.StringIO()) as out, \
            redirect_stderr(io.StringIO()) as err:
        code = run_cli(*argv)
    return code, out.getvalue(), err.getvalue()


def _encode(text: str, bom: bool, crlf: bool) -> bytes:
    if crlf:
        text = text.replace("\n", "\r\n")
    return (("\ufeff" if bom else "") + text).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(_ROWS, st.booleans(), st.booleans())
def test_extract_disambiguate_evaluate_round_trip(rows, bom, crlf):
    distinct = list(dict.fromkeys(rows))
    ids = [f"a{k:04d}" for k in range(1, len(distinct) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        log, aliases = Path(tmp, "log.txt"), Path(tmp, "aliases.csv")
        log.write_bytes(_encode("".join(f"{name}\t{email}\n"
                                        for name, email in rows), bom, crlf))
        assert _run_quietly("extract", str(log), "-o", str(aliases))[0] == 0
        assert read_aliases(aliases) == [RawAlias(i, name, email) for i, (
            name, email) in zip(ids, distinct)]
        # the alias file again, with a byte-order mark and CRLF line ends
        marked = Path(tmp, "marked.csv")
        marked.write_bytes(_encode(aliases.read_text(encoding="utf-8"),
                                   bom=True, crlf=True))
        partitions = []
        for source in (aliases, marked):
            part = Path(tmp, source.stem + "_part.csv")
            assert _run_quietly("disambiguate", str(source),
                                "-o", str(part))[0] == 0
            partitions.append(part.read_bytes())
        assert partitions[0] == partitions[1]
        with open(part, newline="", encoding="utf-8") as fh:
            assigned = [row[0] for row in list(csv.reader(fh))[1:]]
        assert assigned == ids  # every id exactly once, in order
        code, out, _ = _run_quietly("evaluate", str(part), str(part))
    assert code == 0
    assert "fp = 0\nfn = 0\n" in out


@settings(max_examples=30, deadline=None)
@given(_ROWS.filter(lambda rows: len(rows) >= 2), st.booleans(),
       st.booleans(), st.data())
def test_duplicate_alias_id_exits_2_naming_its_line(rows, bom, crlf, data):
    ids = [f"x{k}" for k in range(len(rows))]
    later = data.draw(st.integers(1, len(rows) - 1))
    ids[later] = ids[data.draw(st.integers(0, later - 1))]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["id", "name", "email"])
    writer.writerows((i, name, email) for i, (name, email) in zip(ids, rows))
    with tempfile.TemporaryDirectory() as tmp:
        aliases = Path(tmp, "aliases.csv")
        aliases.write_bytes(_encode(text.getvalue(), bom, crlf))
        code, _, err = _run_quietly("disambiguate", str(aliases))
    assert code == 2
    # line 1 is the header
    assert f"{aliases}:{later + 2}: duplicate alias id {ids[later]!r}" in err


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(_FIELDS, st.text("ab c@.", max_size=8))]
                          * 2), max_size=10),
       st.data())
def test_triage_files_equal_the_reference_split(rows, data):
    # ids in an order other than the file's, so the rows come out sorted
    # by the program and not by the input
    order = data.draw(st.permutations(range(len(rows))))
    raws = [RawAlias(f"i{k}", name, email)
            for k, (name, email) in zip(order, rows)]
    # a cutoff at a similarity some pair has decides that pair at the edge
    cleaned = prepare_aliases(raws)
    edges = sorted({lev_similarity_matrix(x, y)
                    for a, b in itertools.combinations(cleaned, 2)
                    for x, y in ((a.name, b.name), (a.email, b.email))})
    cutoff = data.draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                 st.floats(0.0, 1.0),
                                 st.sampled_from(edges or [0.5])))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["id", "name", "email"])
    writer.writerows((r.id, r.name, r.email) for r in raws)
    with tempfile.TemporaryDirectory() as tmp:
        aliases, prefix = Path(tmp, "aliases.csv"), Path(tmp, "t")
        aliases.write_text(text.getvalue(), encoding="utf-8")
        code, out, _ = _run_quietly("triage", str(aliases), "--out-prefix",
                                    str(prefix), "--differ-cutoff",
                                    repr(cutoff))
        files = []
        for suffix in ("match", "differ", "undecided"):
            with open(f"{prefix}_{suffix}.csv", newline="",
                      encoding="utf-8") as fh:
                files.append([tuple(row) for row in csv.reader(fh)])
        assert prepare_aliases(read_aliases(aliases)) == cleaned
    want = triage_reference(cleaned, cutoff)
    assert code == 0
    assert files == [[("id_a", "id_b")] + pairs for pairs in want]
    n = len(rows)
    assert out == (f"auto_match = {len(want[0])}\n"
                   f"auto_differ = {len(want[1])}\n"
                   f"undecided = {len(want[2])}\n"
                   f"total_pairs = {n * (n - 1) // 2}\n")
