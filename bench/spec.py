"""What the benchmark measures: workloads and metrics, one place.

``python3 bench/run.py --write-spec`` writes ``BENCHMARK.json`` from this
module, so the file and the code cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

WORKLOADS = [
    {"name": "disambiguate-git",
     "why": "production path: extract a 10,000-alias commit log, disambiguate "
            "at the defaults, evaluate; candidate index and pair scoring take "
            "about half each"},
    {"name": "sweep-grid",
     "why": "the paper's evaluation: 45 rows of gambit/simple/bird x lev/jw x "
            "11 thresholds on 64 aliases; most rows bypass the index, so "
            "all-pairs scoring dominates"},
    {"name": "triage-all-pairs",
     "why": "labelled-data building: two edit distances per pair on 480 "
            "aliases, no rules and no index, all 114,960 pairs held and "
            "written"},
]

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# (name, unit, better); each name is <layer>.<metric>
PER_LAYER = [
    ("blocking.candidates_s", "s", "lower"),
    ("blocking.pairs_total", "count", "lower"),
    ("blocking.pairs_candidate", "count", "lower"),
    ("blocking.scans_indexed", "count", "higher"),
    ("blocking.scans_all_pairs", "count", "lower"),
    ("rules.score_s", "s", "lower"),
    ("rules.pairs_scored", "count", "lower"),
    ("rules.pairs_matched", "count", "higher"),
    ("rules.matched_per_scored", "ratio", "higher"),
    ("similarity.lev_us_per_call", "us", "lower"),
    ("similarity.jw_us_per_call", "us", "lower"),
    ("similarity.lev_calls", "count", "lower"),
    ("similarity.lev_cache_hit_ratio", "ratio", "higher"),
    ("clustering.closure_s", "s", "lower"),
    ("clustering.clusters", "count", "higher"),
    ("clustering.largest_cluster", "count", "lower"),
    ("evaluation.evaluate_s", "s", "lower"),
    ("evaluation.sweep_s", "s", "lower"),
    ("evaluation.sweep_rows", "count", "higher"),
    ("evaluation.triage_s", "s", "lower"),
    ("evaluation.triage_pairs", "count", "higher"),
    ("evaluation.triage_undecided", "count", "lower"),
    ("storage.extract_s", "s", "lower"),
    ("storage.read_s", "s", "lower"),
    ("storage.write_s", "s", "lower"),
    ("storage.rows_written", "count", "lower"),
    ("storage.bytes_written", "bytes", "lower"),
    ("normalize.clean_s", "s", "lower"),
    ("normalize.aliases_cleaned", "count", "higher"),
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def spec() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write(path: Path) -> None:
    path.write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
