import subprocess
import sys
from pathlib import Path

import pytest

from dealias.cli import main, parse_thresholds

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


def test_bad_threshold_value_exits_2(capsys):
    assert run_cli("disambiguate", FIXTURE_ALIASES, "--threshold", "1.5") == 2
    capsys.readouterr()


def test_disambiguate_to_stdout(capsys):
    assert run_cli("disambiguate", FIXTURE_ALIASES, "--engine", "python") == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "alias_id,author_id"
    assert len(lines) == 33
    assert "32 aliases -> 18 authors" in err


def test_disambiguate_evaluate_round_trip(tmp_path, capsys):
    part = tmp_path / "part.csv"
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(part),
                   "--engine", "python") == 0
    assert run_cli("evaluate", str(part), FIXTURE_TRUTH) == 0
    out = capsys.readouterr().out
    assert "tp = 16" in out
    assert "precision = 1.000000" in out
    assert "recall = 1.000000" in out
    assert "f1 = 1.000000" in out


def test_simple_with_threshold_warns(tmp_path, capsys):
    part = tmp_path / "part.csv"
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(part),
                   "--method", "simple", "--threshold", "0.9") == 0
    assert "ignores" in capsys.readouterr().err


def test_engines_give_identical_output_files(tmp_path, capsys):
    pytest.importorskip("numba")
    p_py = tmp_path / "py.csv"
    p_nb = tmp_path / "nb.csv"
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(p_py),
                   "--engine", "python") == 0
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(p_nb),
                   "--engine", "numba") == 0
    assert p_py.read_bytes() == p_nb.read_bytes()
    capsys.readouterr()


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", FIXTURE_ALIASES, FIXTURE_TRUTH, "-o", str(out),
                   "--methods", "gambit,simple,bird", "--measures", "lev",
                   "--thresholds", "0.9,0.95", "--engine", "python") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("method,measure,threshold,tp,fp,fn,"
                        "precision,recall,f1,wall_time_ms")
    assert len(lines) == 1 + 2 + 1 + 2  # gambit x2, simple, bird x2
    gambit95 = [ln for ln in lines if ln.startswith("gambit,lev,0.95")][0]
    cells = gambit95.split(",")
    assert cells[3:6] == ["16", "0", "0"]
    assert cells[8] == "1.000000"
    capsys.readouterr()


def test_sweep_rejects_numba_engine(capsys):
    assert run_cli("sweep", FIXTURE_ALIASES, FIXTURE_TRUTH,
                   "--engine", "numba") == 2
    assert ("sweep needs pair scores, which the numba engine does not give"
            in capsys.readouterr().err)


def test_input_not_utf8_exits_2(tmp_path, capsys):
    aliases = tmp_path / "a.csv"
    aliases.write_bytes(b"id,name,email\nx1,Jos\xe9,j@x.co\n")
    assert run_cli("disambiguate", str(aliases)) == 2
    assert f"{aliases}:2: not valid UTF-8" in capsys.readouterr().err
    truth = tmp_path / "t.csv"
    truth.write_bytes(b"alias_id,author_id\nx1,\xe9\n")
    assert run_cli("evaluate", str(truth), str(truth)) == 2
    assert f"{truth}:2: not valid UTF-8" in capsys.readouterr().err


def test_triage_writes_three_files(tmp_path, capsys):
    prefix = tmp_path / "t"
    assert run_cli("triage", FIXTURE_ALIASES, "--out-prefix", str(prefix)) == 0
    out = capsys.readouterr().out
    counts = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        counts[key] = int(value)
    assert counts["total_pairs"] == 32 * 31 // 2
    for suffix in ("match", "differ", "undecided"):
        lines = (tmp_path / f"t_{suffix}.csv").read_text().splitlines()
        assert lines[0] == "id_a,id_b"
        assert len(lines) == 1 + counts[f"auto_{suffix}"
                                        if suffix != "undecided" else suffix]


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


def test_stop_words_flag(tmp_path, capsys):
    stop = tmp_path / "stop.txt"
    stop.write_text("doe\n")
    aliases = tmp_path / "a.csv"
    aliases.write_text("id,name,email\nx1,John Doe,j@x.co\n"
                       "x2,John,j2@y.org\n")
    part = tmp_path / "p.csv"
    assert run_cli("disambiguate", str(aliases), "-o", str(part),
                   "--stop-words", str(stop), "--engine", "python") == 0
    # with "doe" removed both names clean to "john" and match exactly
    assert part.read_text() == "alias_id,author_id\nx1,x1\nx2,x1\n"
    capsys.readouterr()


def test_threads_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DEALIAS_THREADS", "2")
    part = tmp_path / "p.csv"
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(part),
                   "--engine", "python") == 0
    monkeypatch.setenv("DEALIAS_THREADS", "not a number")
    assert run_cli("disambiguate", FIXTURE_ALIASES, "-o", str(part)) == 2
    capsys.readouterr()


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "dealias", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "disambiguate" in proc.stdout


def test_cli_import_leaves_numpy_out():
    # numpy serves only the optional compiled scan
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dealias.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
