"""The three workloads: their inputs, CLI commands, output checks and the
traced in-process run that mirrors the commands.

Each workload writes its seeded inputs into a work directory, names the
``dealias`` commands one round runs (each a fresh process), says how to
fingerprint the outputs (later rounds must reproduce the first exactly),
checks the first round's outputs, and can run the same round in-process
under a :class:`spans.Tracer`, calling the program's public functions in
the order the CLI calls them.
"""

from __future__ import annotations

import csv
import hashlib
import random
from contextlib import ExitStack
from pathlib import Path

import corpus
import checks
from dealias import clustering, evaluation, normalize, storage
from dealias.cli import parse_thresholds
from dealias.rules import DEFAULT_CONFIG, MatcherConfig
from dealias.similarity import Measure

GIT_ALIASES = 10_000
GIT_SAMPLE = 300
SWEEP_ALIASES = 64
SWEEP_ARGS = ["--methods", "gambit,simple,bird", "--measures", "lev,jw",
              "--thresholds", "0.5:1.0:0.05"]
TRIAGE_ALIASES = 480
TRIAGE_SAMPLE = 200
TRIAGE_CUTOFF = 0.5


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path: Path) -> list[tuple[str, ...]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [tuple(row) for row in list(csv.reader(fh))[1:]]


def _labelled(raws, work: Path) -> None:
    """aliases.csv and truth.csv for a list of corpus.RawAlias."""
    ids = [f"a{i:04d}" for i in range(len(raws))]
    _write_csv(work / "aliases.csv", ["id", "name", "email"],
               [(i, r.name, r.email) for i, r in zip(ids, raws)])
    _write_csv(work / "truth.csv", ["alias_id", "author_id"],
               [(i, f"p{r.identity:05d}") for i, r in zip(ids, raws)])


def _prepared(path: Path):
    return normalize.prepare_aliases(storage.read_aliases(path))


class Workload:
    name = ""
    # output file names under the work directory, in fingerprint order
    outputs: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path, threads: int = 1):
        self.seed, self.work, self.threads = seed, work, threads
        self.facts: dict = {}  # reference figures found by check()

    def path(self, name: str) -> str:
        return str(self.work / name)

    def thread_args(self) -> list[str]:
        return ["--threads", str(self.threads)] if self.threads != 1 else []

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in self.outputs:
            h.update(self.normal_form(name, (self.work / name).read_bytes()))
        return h.hexdigest()

    def normal_form(self, name: str, data: bytes) -> bytes:
        return data

    def sample_strings(self) -> list[str]:
        """Cleaned strings the similarity micro-benchmark pairs up."""
        out = []
        for a in _prepared(self.work / "aliases.csv"):
            out += [s for s in (a.name, a.email_base) if s]
        return out

    def count_written(self, tracer, *names: str) -> None:
        for name in names:
            data = (self.work / name).read_bytes()
            tracer.count("storage.bytes_written", len(data))
            tracer.count("storage.rows_written", data.count(b"\n") - 1)

    def _write_report(self, report) -> None:
        (self.work / "evaluate.out").write_text(
            f"tp = {report.true_positives}\nfp = {report.false_positives}\n"
            f"fn = {report.false_negatives}\n"
            f"precision = {report.precision:.6f}\n"
            f"recall = {report.recall:.6f}\nf1 = {report.f1:.6f}\n")


class DisambiguateGit(Workload):
    name = "disambiguate-git"
    outputs = ("aliases.csv", "partition.csv", "evaluate.out")

    def prepare(self) -> None:
        lines, self.raws = corpus.commit_log(self.seed, GIT_ALIASES)
        self.log_lines = len(lines)
        (self.work / "commits.log").write_text("\n".join(lines) + "\n",
                                               encoding="utf-8")
        self.ids = [f"a{i:04d}" for i in range(1, len(self.raws) + 1)]
        self.truth = {i: f"p{r.identity:05d}"
                      for i, r in zip(self.ids, self.raws)}
        _write_csv(self.work / "truth.csv", ["alias_id", "author_id"],
                   sorted(self.truth.items()))

    def commands(self) -> list[tuple[list[str], str | None]]:
        return [
            (["extract", self.path("commits.log"),
              "-o", self.path("aliases.csv")], None),
            (["disambiguate", self.path("aliases.csv"),
              "-o", self.path("partition.csv")] + self.thread_args(), None),
            (["evaluate", self.path("partition.csv"), self.path("truth.csv")],
             "evaluate.out"),
        ]

    def traced(self, tracer, cli) -> None:
        with cli("extract"):
            with open(self.work / "commits.log", encoding="utf-8",
                      errors="replace") as fh:
                records = storage.extract_from_log(fh)
            storage.write_aliases(records, self.path("aliases.csv"))
        self.count_written(tracer, "aliases.csv")
        with cli("disambiguate"):
            aliases = normalize.prepare_aliases(
                storage.read_aliases(self.path("aliases.csv")), None)
            part = clustering.disambiguate(aliases, "gambit", DEFAULT_CONFIG,
                                           workers=self.threads)
            storage.write_partition(part, self.path("partition.csv"))
        self.count_written(tracer, "partition.csv")
        with cli("evaluate"):
            self._write_report(evaluation.evaluate(
                storage.read_partition(self.path("partition.csv")),
                storage.read_partition(self.path("truth.csv"))))

    def check(self) -> list[str]:
        errors = []
        got = _read_csv(self.work / "aliases.csv")
        want = [(i, r.name, r.email) for i, r in zip(self.ids, self.raws)]
        if got != want:
            errors.append(f"extract wrote {len(got)} aliases, expected the "
                          f"{len(want)} distinct log entries in order")
        rows = _read_csv(self.work / "partition.csv")
        errors += checks.check_partition(self.ids, rows)
        if errors:
            return errors
        assign = dict(rows)
        aliases = _prepared(self.work / "aliases.csv")
        errors += checks.check_shared_key(
            assign, {a.id: a.email for a in aliases}, DEFAULT_CONFIG.min_len,
            "cleaned email")
        counts = checks.pair_counts(assign, self.truth)
        report = checks.parse_report(
            (self.work / "evaluate.out").read_text())
        errors += checks.check_counts(report, counts)

        # a sample of whole identities: program against the all-pairs oracle
        picked = set(corpus.sample_identities(random.Random(self.seed),
                                              self.raws, GIT_SAMPLE))
        sample = [a for k, a in enumerate(aliases) if k in picked]
        program = clustering.disambiguate(sample).assignment
        errors += checks.check_same_grouping(
            program, checks.oracle_assignment(sample, "gambit",
                                              DEFAULT_CONFIG))
        sizes = [len(m) for m in checks.clusters_of(assign).values()]
        self.facts = {"aliases": len(self.ids), "log_lines": self.log_lines,
                      "identities": len(set(self.truth.values())),
            "clusters": len(sizes), "largest_cluster": max(sizes),
            "f1": report.get("f1"), "sample_aliases": len(sample)}
        return errors


class SweepGrid(Workload):
    name = "sweep-grid"
    outputs = ("sweep.csv",)

    def prepare(self) -> None:
        self.raws = corpus.aliases(self.seed, SWEEP_ALIASES)
        _labelled(self.raws, self.work)

    def commands(self):
        return [(["sweep", self.path("aliases.csv"), self.path("truth.csv"),
                  "-o", self.path("sweep.csv")] + SWEEP_ARGS
                 + self.thread_args(), None)]

    def normal_form(self, name, data):
        # wall_time_ms, the last column, differs from run to run
        return b"\n".join(line.rsplit(b",", 1)[0]
                          for line in data.splitlines())

    def traced(self, tracer, cli) -> None:
        with cli("sweep"):
            aliases = normalize.prepare_aliases(
                storage.read_aliases(self.path("aliases.csv")), None)
            truth = storage.read_partition(self.path("truth.csv"))
            methods = SWEEP_ARGS[1].split(",")
            measures = [Measure.from_token(t)
                        for t in SWEEP_ARGS[3].split(",")]
            rows = evaluation.sweep(aliases, truth, methods, measures,
                                    parse_thresholds(SWEEP_ARGS[5]),
                                    workers=self.threads)
            with open(self.path("sweep.csv"), "w", newline="",
                      encoding="utf-8") as fh:
                evaluation.write_sweep_csv(rows, fh)
        self.count_written(tracer, "sweep.csv")

    def check(self) -> list[str]:
        rows = checks.parse_sweep((self.work / "sweep.csv").read_text())
        truth = dict(_read_csv(self.work / "truth.csv"))
        true_pairs = checks.pair_counts(truth, truth)[0]
        grid = parse_thresholds(SWEEP_ARGS[5])
        errors = checks.check_sweep(rows, true_pairs)
        if len(rows) != 4 * len(grid) + 1:
            errors.append(f"{len(rows)} sweep rows, expected "
                          f"{4 * len(grid) + 1}")
        # one row per (method, measure), at a seeded threshold, against the
        # all-pairs oracle
        aliases = _prepared(self.work / "aliases.csv")
        by_key = {(r["method"], r["measure"], r["threshold"]): r for r in rows}
        rng = random.Random(self.seed)
        picks = [("simple", "", None)] + [
            (method, measure, rng.choice(grid))
            for method in ("gambit", "bird") for measure in ("lev", "jw")]
        for method, measure, t in picks:
            row = by_key.get((method, measure, t))
            if row is None:
                errors.append(f"no row for {method},{measure},{t}")
                continue
            cfg = (MatcherConfig() if t is None else MatcherConfig(
                threshold=t, measure=Measure.from_token(measure)))
            want = checks.pair_counts(
                checks.oracle_assignment(aliases, method, cfg), truth)
            got = (row["tp"], row["fp"], row["fn"])
            if got != want:
                errors.append(f"{method},{measure},{t}: tp/fp/fn {got}, "
                              f"oracle {want}")
        best_f1: dict[str, float] = {}
        for r in rows:
            key = f"{r['method']},{r['measure']}"
            best_f1[key] = max(best_f1.get(key, 0.0), r["f1"])
        self.facts = {"aliases": len(aliases), "rows": len(rows),
                      "true_pairs": true_pairs, "oracle_rows": picks,
                      "best_f1": best_f1}
        return errors


class TriageAllPairs(Workload):
    name = "triage-all-pairs"
    outputs = ("triage_match.csv", "triage_differ.csv",
               "triage_undecided.csv", "triage.out")
    # file suffix -> the count's name in the command's output
    kinds = {"match": "auto_match", "differ": "auto_differ",
             "undecided": "undecided"}

    def prepare(self) -> None:
        _labelled(corpus.aliases(self.seed, TRIAGE_ALIASES), self.work)

    def commands(self):
        return [(["triage", self.path("aliases.csv"),
                  "--out-prefix", self.path("triage"),
                  "--differ-cutoff", str(TRIAGE_CUTOFF)], "triage.out")]

    def traced(self, tracer, cli) -> None:
        with cli("triage"):
            aliases = normalize.prepare_aliases(
                storage.read_aliases(self.path("aliases.csv")), None)
            result = evaluation.triage(aliases, differ_cutoff=TRIAGE_CUTOFF)
            files = dict(zip(self.kinds, (result.auto_match,
                                          result.auto_differ,
                                          result.undecided)))
            with tracer.span("storage.write"):
                for kind, pairs in files.items():
                    _write_csv(self.work / f"triage_{kind}.csv",
                               ["id_a", "id_b"], pairs)
            lines = [f"{self.kinds[k]} = {len(v)}\n" for k, v in files.items()]
            lines.append(f"total_pairs = {sum(map(len, files.values()))}\n")
            (self.work / "triage.out").write_text("".join(lines))
        self.count_written(tracer, *self.outputs[:3])

    def check(self) -> list[str]:
        aliases = _prepared(self.work / "aliases.csv")
        files = {k: _read_csv(self.work / f"triage_{k}.csv")
                 for k in self.kinds}
        errors = checks.check_triage([a.id for a in aliases], files,
                                     checks.identical_key_pairs(aliases))
        printed = checks.parse_report((self.work / "triage.out").read_text())
        for kind, key in self.kinds.items():
            if printed.get(key) != len(files[kind]):
                errors.append(f"printed {key} = {printed.get(key)}, file "
                              f"has {len(files[kind])} rows")
        by_id = {a.id: a for a in aliases}
        rng = random.Random(self.seed)
        for kind in ("differ", "undecided"):
            rows = files[kind]
            errors += checks.check_triage_sample(
                kind, rng.sample(rows, min(TRIAGE_SAMPLE, len(rows))),
                by_id, TRIAGE_CUTOFF)
        self.facts = {"aliases": len(aliases),
                      **{k: len(v) for k, v in files.items()}}
        return errors


WORKLOADS = {w.name: w for w in (DisambiguateGit, SweepGrid, TriageAllPairs)}


def instrument(tracer) -> ExitStack:
    """Spans and counters around the layer calls of one traced round."""
    def scanned(result, aliases, *args, **kwargs):
        n = len(aliases)
        tracer.count("blocking.pairs_total", n * (n - 1) // 2)
        if result is None:
            tracer.count("blocking.scans_all_pairs")
            tracer.count("rules.pairs_scored", n * (n - 1) // 2)
        else:
            candidates = sum(map(len, result))
            tracer.count("blocking.scans_indexed")
            tracer.count("blocking.pairs_candidate", candidates)
            tracer.count("rules.pairs_scored", candidates)

    def matched(result, *args, **kwargs):
        tracer.count("rules.pairs_matched", len(result))

    def clustered(result, *args, **kwargs):
        sizes = [len(m) for m in result.clusters().values()]
        tracer.count("clustering.clusters", len(sizes))
        largest = tracer.counters["clustering.largest_cluster"]
        tracer.counters["clustering.largest_cluster"] = max(largest, *sizes)

    def cleaned(result, *args, **kwargs):
        tracer.count("normalize.aliases_cleaned", len(result))

    def swept(result, *args, **kwargs):
        tracer.count("evaluation.sweep_rows", len(result))

    def triaged(result, *args, **kwargs):
        tracer.count("evaluation.triage_pairs", len(result.auto_match)
                     + len(result.auto_differ) + len(result.undecided))
        tracer.count("evaluation.triage_undecided", len(result.undecided))

    stack = ExitStack()
    for module, attr, name, after in [
            (storage, "extract_from_log", "storage.extract", None),
            (storage, "read_aliases", "storage.read", None),
            (storage, "read_partition", "storage.read", None),
            (storage, "write_aliases", "storage.write", None),
            (storage, "write_partition", "storage.write", None),
            (evaluation, "write_sweep_csv", "storage.write", None),
            (normalize, "prepare_aliases", "normalize.clean", cleaned),
            (clustering, "candidate_partners", "blocking.candidate_partners",
             scanned),
            (clustering, "matched_pairs", "clustering.matched_pairs", matched),
            (clustering, "disambiguate", "clustering.disambiguate", clustered),
            (evaluation, "disambiguate", "clustering.disambiguate", clustered),
            (evaluation, "evaluate", "evaluation.evaluate", None),
            (evaluation, "sweep", "evaluation.sweep", swept),
            (evaluation, "triage", "evaluation.triage", triaged)]:
        stack.enter_context(tracer.patch(module, attr, name, after))
    return stack
