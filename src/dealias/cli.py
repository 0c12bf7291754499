"""Command line interface.

Subcommands: ``disambiguate`` (aliases -> partition), ``evaluate``
(partition vs truth), ``sweep`` (grid of methods/measures/thresholds),
``triage`` (pre-label pairs for review), ``extract`` (log -> alias CSV).

Exit codes: 0 success, 1 usage error, 2 bad input data, 3 internal error,
141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from math import inf

from .clustering import DEFAULT_METHOD, METHODS, disambiguate
from .evaluation import (DEFAULT_DIFFER_CUTOFF, evaluate, sweep, triage_rows,
                         write_sweep_csv)
from .normalize import prepare_aliases
from .rules import DEFAULT_CONFIG, MatcherConfig
from .similarity import Measure
from .storage import (discard_stdout, read_aliases, read_log, read_partition,
                      read_stop_words, write_aliases, write_partition,
                      write_triage)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141  # what a shell reports for a filter ended by SIGPIPE

# the most values a threshold range may hold: a 0.001 step over [0, 1]
_MAX_THRESHOLDS = 1001


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_thresholds(text: str) -> list[float]:
    """Parse ``0.5:1.0:0.05`` (inclusive range) or ``0.9,0.95,1.0``."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad threshold range {text!r}; "
                             "expected start:stop:step")
        start, stop, step = (float(p) for p in parts)
        # checked before the loop, which an infinite stop would never end
        for name, token, bound in zip(("start", "stop"), parts, (start, stop)):
            if not 0.0 <= bound <= 1.0:
                raise ValueError(f"threshold range {name} {token.strip()!r} "
                                 "is outside [0, 1]")
        if not 0.0 < step < inf:
            raise ValueError("threshold step must be positive and finite")
        if stop < start:
            raise ValueError("threshold range is empty (stop < start)")
        # counted before the list is built, which a tiny step makes huge
        if (stop + 1e-9 - start) / step >= _MAX_THRESHOLDS:
            raise ValueError(f"threshold range {text!r} holds more than "
                             f"{_MAX_THRESHOLDS} values; use a larger step")
        values = []
        k = 0
        while (v := start + k * step) <= stop + 1e-9:
            values.append(round(v, 10))
            k += 1
        return values
    return [float(p) for p in text.split(",") if p.strip()]


def _load_prepared(args):
    """The aliases of a command with the shared input options, cleaned."""
    stop_words = (None if args.stop_words is None
                  else read_stop_words(args.stop_words))
    return prepare_aliases(read_aliases(args.aliases), stop_words)


def cmd_disambiguate(args) -> int:
    aliases = _load_prepared(args)
    # None marks an option left out, which `simple` warns about
    if args.method == "simple" and (args.threshold is not None
                                    or args.measure is not None):
        print("warning: method 'simple' ignores --threshold and --measure",
              file=sys.stderr)
    cfg = MatcherConfig(
        threshold=(DEFAULT_CONFIG.threshold if args.threshold is None
                   else args.threshold),
        measure=(DEFAULT_CONFIG.measure if args.measure is None
                 else Measure.from_token(args.measure)),
        min_len=args.min_len)
    start = time.perf_counter()
    partition = disambiguate(aliases, args.method, cfg, workers=args.threads)
    elapsed = time.perf_counter() - start
    write_partition(partition, args.output)
    print(f"{len(aliases)} aliases -> {partition.author_count()} authors "
          f"({args.method}, {elapsed:.2f}s)", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    predicted = read_partition(args.predicted)
    truth = read_partition(args.truth)
    report = evaluate(predicted, truth)
    print(f"tp = {report.true_positives}")
    print(f"fp = {report.false_positives}")
    print(f"fn = {report.false_negatives}")
    print(f"precision = {report.precision:.6f}")
    print(f"recall = {report.recall:.6f}")
    print(f"f1 = {report.f1:.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    aliases = _load_prepared(args)
    truth = read_partition(args.truth)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    measures = [Measure.from_token(tok.strip())
                for tok in args.measures.split(",") if tok.strip()]
    thresholds = parse_thresholds(args.thresholds)
    rows = sweep(aliases, truth, methods, measures, thresholds,
                 min_len=args.min_len, workers=args.threads)
    write_sweep_csv(rows, args.output)
    return EXIT_OK


def cmd_triage(args) -> int:
    aliases = _load_prepared(args)
    # triage_rows checks the cutoff before write_triage opens a file
    counts = write_triage(triage_rows(aliases, args.differ_cutoff),
                          args.out_prefix)
    for key, count in zip(("auto_match", "auto_differ", "undecided"), counts):
        print(f"{key} = {count}")
    print(f"total_pairs = {sum(counts)}")
    return EXIT_OK


def cmd_extract(args) -> int:
    records = read_log(args.log)
    write_aliases(records, args.output)
    print(f"{len(records)} distinct aliases", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dealias",
                     description="Resolve author aliases (name/email pairs) "
                                 "to unique identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by several commands, each declared once
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("aliases", help="alias CSV (id,name,email)")
    inputs.add_argument("--stop-words", default=None, metavar="FILE",
                        help="replace the built-in stop-word list "
                             "(one token per line, '#' comments)")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--min-len", type=int, default=DEFAULT_CONFIG.min_len,
                     help="strings shorter than this never match "
                          f"(default {DEFAULT_CONFIG.min_len})")
    run.add_argument("--threads", type=int, default=1,
                     help="worker processes for the pair scan, at most one "
                          "per core (default 1), started by the platform's "
                          "default start method; must be at least 1")

    p = sub.add_parser("disambiguate", parents=[inputs, run],
                       help="group aliases into authors")
    p.add_argument("-o", "--output", default=None,
                   help="partition CSV to write (default stdout)")
    p.add_argument("--method", choices=METHODS, default=DEFAULT_METHOD)
    p.add_argument("--measure", choices=[m.value for m in Measure],
                   default=None,
                   help="string similarity measure "
                        f"(default {DEFAULT_CONFIG.measure.value})")
    p.add_argument("--threshold", type=float, default=None,
                   help="match decision threshold "
                        f"(default {DEFAULT_CONFIG.threshold})")
    p.set_defaults(func=cmd_disambiguate)

    p = sub.add_parser("evaluate", help="score a partition against truth")
    p.add_argument("predicted", help="partition CSV to score")
    p.add_argument("truth", help="ground-truth partition CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[inputs, run],
                       help="evaluate a grid of methods/measures/thresholds")
    p.add_argument("truth", help="ground-truth partition CSV")
    p.add_argument("-o", "--output", default=None,
                   help="sweep CSV to write (default stdout)")
    p.add_argument("--methods", default=DEFAULT_METHOD,
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--measures", default=DEFAULT_CONFIG.measure.value,
                   help="comma-separated subset of "
                        + ",".join(m.value for m in Measure))
    p.add_argument("--thresholds", default=str(DEFAULT_CONFIG.threshold),
                   help="comma list '0.9,0.95' or inclusive range "
                        "'0.5:1.0:0.05' of at most 1001 values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("triage", parents=[inputs],
                       help="pre-label alias pairs for manual review")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>_match.csv, <prefix>_differ.csv, "
                        "<prefix>_undecided.csv")
    p.add_argument("--differ-cutoff", type=float,
                   default=DEFAULT_DIFFER_CUTOFF,
                   help="auto-differ when both name and email similarity "
                        f"fall below this (default {DEFAULT_DIFFER_CUTOFF})")
    p.set_defaults(func=cmd_triage)

    p = sub.add_parser("extract",
                       help="collect distinct aliases from a tab-separated "
                            "name/email log")
    p.add_argument("log", help="log file, or '-' for stdin")
    p.add_argument("-o", "--output", default=None,
                   help="alias CSV to write (default stdout)")
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        status = args.func(args)
        sys.stdout.flush()  # here, where a closed pipe is caught
        return status
    except BrokenPipeError:  # the reader of standard output has gone
        discard_stdout()
        return EXIT_PIPE
    except (OSError, ValueError) as exc:  # DealiasError is a ValueError
        print(f"dealias: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
