"""Benchmark of the ``dealias`` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec        # (re)write BENCHMARK.json

Run from the repository root. The program is run from ``src/`` as it
stands; nothing is installed. ``--trace 0`` runs whole rounds of the
workload's CLI commands, each a fresh process, one at a time (a closed loop
with one client), until ``--seconds`` have passed, and reports the
end-to-end metrics as medians over the rounds. ``--trace 1`` runs the same
rounds in this process, calling the program's public functions in the
order the CLI does, with a span around each layer call, and reports the
per-layer metrics. Either way the outputs are checked against oracles
computed apart from the program, every round must reproduce the first
round's outputs exactly, and the last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full record (with
the commit, Python version, core count and whether numba imports) goes to
``bench/out/results/``, spans and counters to ``bench/out/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9      # fresh interpreters importing dealias.cli per run
MICRO_PAIRS = 2000     # string pairs in the similarity micro-benchmark
MICRO_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="--threads passed to disambiguate and sweep "
                        "(reference runs only; the benchmark uses 1)")
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json at the repository root")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        spec.write(ROOT / "BENCHMARK.json")
        return 0
    if not (SRC / "dealias" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'dealias'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = OUT / "work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.threads)
    started = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - started
    run = traced_run if args.trace else cli_run
    result = run(wl, args.seconds)

    errors = result.pop("errors")
    started = time.perf_counter()
    if result["failed"] == 0:
        errors += wl_check(wl)
    check_s = time.perf_counter() - started
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "threads": args.threads, "env": environment(),
              "prepare_s": prepare_s, "check_s": check_s,
              "correct": not errors,
              "errors": errors, "facts": wl.facts, **result}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    save(OUT / "results" / f"{args.workload}-seed{args.seed}-trace"
         f"{args.trace}-{stamp}.json", record)

    for e in errors:
        print(f"CHECK FAILED: {e}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {spec.UNITS[name]}")
    print(json.dumps({
        "correct": not errors, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in result["metrics"].items()}}))
    return 0


def wl_check(wl) -> list[str]:
    try:
        return wl.check()
    except Exception:
        return ["checker raised: " + traceback.format_exc(limit=3)]


def save(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n",
                    encoding="utf-8")


# --- untraced: CLI processes ------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DEALIAS_THREADS", None)  # threads are passed explicitly
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed(cmd: list[str], env: dict, stdout: Path | None,
          stderr: Path) -> tuple[float, float, float, int]:
    """Run one process to its end through ``launch.py``: (wall s,
    user+system CPU s, peak RSS MB, exit code) from its own resource
    usage."""
    with open(stderr, "ab") as err:
        done = subprocess.run(
            [sys.executable, str(BENCH / "launch.py"), str(stdout or "-"),
             "--", *cmd], env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=err, stdin=subprocess.DEVNULL, check=True)
    r = json.loads(done.stdout)
    return r["wall_s"], r["cpu_s"], r["rss_mb"], r["code"]


def cli_run(wl, seconds: float) -> dict:
    env = child_env()
    log = wl.work / "stderr.log"
    setup = [timed([sys.executable, "-c", "import dealias.cli"], env, None,
                   log)[0] for _ in range(SETUP_REPEATS)]
    rounds, errors = [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        procs = []
        for argv, stdout in wl.commands():
            procs.append(timed([sys.executable, "-m", "dealias", *argv], env,
                               wl.work / stdout if stdout else None, log))
        attempted += len(procs)
        bad = sum(1 for p in procs if p[3] != 0)
        failed += bad
        rounds.append({"wall_s": [p[0] for p in procs],
                       "cpu_s": [p[1] for p in procs],
                       "rss_mb": [p[2] for p in procs]})
        if not bad:
            fp = wl.fingerprint()
            if first is None:
                first = fp
            elif fp != first:
                errors.append(f"round {len(rounds)} outputs differ from "
                              "the first round's")
    if failed:
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
    med = statistics.median
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "setup_runs_s": setup, "rounds": rounds,
            "metrics": {
                "wall_s": med(sum(r["wall_s"]) for r in rounds),
                "cpu_s": med(sum(r["cpu_s"]) for r in rounds),
                "peak_rss_mb": med(max(r["rss_mb"]) for r in rounds),
                "setup_s": med(setup)}}


# --- traced: the same calls in this process ---------------------------------

TIMES = {  # per-layer time -> (span name, self time only)
    "blocking.candidates_s": ("blocking.candidate_partners", False),
    "rules.score_s": ("clustering.matched_pairs", True),
    "clustering.closure_s": ("clustering.disambiguate", True),
    "evaluation.evaluate_s": ("evaluation.evaluate", False),
    "evaluation.sweep_s": ("evaluation.sweep", False),
    "evaluation.triage_s": ("evaluation.triage", False),
    "storage.extract_s": ("storage.extract", False),
    "storage.read_s": ("storage.read", False),
    "storage.write_s": ("storage.write", False),
    "normalize.clean_s": ("normalize.clean", False),
}
COUNTS = ["blocking.pairs_total", "blocking.pairs_candidate",
          "blocking.scans_indexed", "blocking.scans_all_pairs",
          "rules.pairs_scored", "rules.pairs_matched", "similarity.lev_calls",
          "clustering.clusters", "clustering.largest_cluster",
          "evaluation.sweep_rows", "evaluation.triage_pairs",
          "evaluation.triage_undecided", "storage.rows_written",
          "storage.bytes_written", "normalize.aliases_cleaned"]
VARIES = "storage.bytes_written"


def traced_run(wl, seconds: float) -> dict:
    import workloads
    from dealias.similarity import levenshtein_distance
    from spans import Tracer

    tracer = Tracer()
    state = {"attempted": 0, "failed": 0}

    @contextmanager
    def cli(command: str):
        # each CLI command is a fresh process, so it starts with an empty
        # edit-distance cache
        levenshtein_distance.cache_clear()
        state["attempted"] += 1
        try:
            with tracer.span(f"cli.{command}"):
                yield
        except Exception:
            state["failed"] += 1
            traceback.print_exc()
        info = levenshtein_distance.cache_info()
        tracer.count("similarity.lev_calls", info.hits + info.misses)
        tracer.count("similarity.lev_hits", info.hits)

    rounds, counts, errors = [], [], []
    first = None
    with tracer.span(f"workload.{wl.name}") as root:
        with workloads.instrument(tracer):
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                tracer.counters = defaultdict(float)
                since = len(tracer.spans)
                failed_before = state["failed"]
                with tracer.span("round"):
                    wl.traced(tracer, cli)
                rounds.append({k: (tracer.self_time if own else tracer.total)
                               (span, since)
                               for k, (span, own) in TIMES.items()})
                counts.append(dict(tracer.counters))
                if state["failed"] == failed_before:
                    fp = wl.fingerprint()
                    first = first or fp
                    if fp != first:
                        errors.append(f"round {len(rounds)} outputs differ "
                                      "from the first round's")
        with tracer.span("similarity.microbench"):
            lev_us, jw_us = microbench(wl.sample_strings(), wl.seed)
    errors += tracer.nesting_errors(root.id)
    # the sweep file's wall_time_ms column changes its size from round to
    # round; every other counter must repeat exactly
    if any(dict(c, **{VARIES: 0}) != dict(counts[0], **{VARIES: 0})
           for c in counts):
        errors.append("counters differ between rounds")
    save(OUT / "traces" / f"{wl.name}-seed{wl.seed}.json",
         {"spans": [vars(s) for s in tracer.spans], "counters": counts})

    c = counts[0]
    metrics = {k: statistics.median(r[k] for r in rounds) for k in TIMES}
    metrics.update({k: int(c.get(k, 0)) for k in COUNTS})
    metrics[VARIES] = statistics.median(int(r.get(VARIES, 0)) for r in counts)
    scored, calls = c.get("rules.pairs_scored", 0), c["similarity.lev_calls"]
    metrics["rules.matched_per_scored"] = (
        c.get("rules.pairs_matched", 0) / scored if scored else 0.0)
    metrics["similarity.lev_cache_hit_ratio"] = (
        c["similarity.lev_hits"] / calls if calls else 0.0)
    metrics["similarity.lev_us_per_call"] = lev_us
    metrics["similarity.jw_us_per_call"] = jw_us
    return {"attempted": state["attempted"], "failed": state["failed"],
            "errors": errors, "rounds": rounds,
            "metrics": {name: metrics[name] for name, _, _ in spec.PER_LAYER}}


def microbench(strings: list[str], seed: int) -> tuple[float, float]:
    """Microseconds per call of each similarity on distinct string pairs
    sampled from the workload; the edit-distance cache is emptied before
    each pass, so every call computes."""
    from dealias.similarity import (jaro_winkler_similarity,
                                    levenshtein_distance,
                                    levenshtein_similarity)
    rng = random.Random(seed)
    pairs: dict[tuple[str, str], None] = {}
    while len(pairs) < MICRO_PAIRS:
        a, b = rng.choice(strings), rng.choice(strings)
        if a != b:
            pairs[a, b] = None

    def per_call(fn, before=lambda: None) -> float:
        times = []
        for _ in range(MICRO_REPEATS):
            before()
            start = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            times.append(time.perf_counter() - start)
        return statistics.median(times) / len(pairs) * 1e6

    return (per_call(levenshtein_similarity, levenshtein_distance.cache_clear),
            per_call(jaro_winkler_similarity))


# --- what ran where ---------------------------------------------------------

def environment() -> dict:
    try:
        import numba  # noqa: F401
        numba_imports = True
    except Exception:
        numba_imports = False
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dealias").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "numba_imports": numba_imports,
            "platform": platform.platform()}


if __name__ == "__main__":
    sys.exit(main())
