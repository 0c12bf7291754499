"""Checks of the program's outputs, computed apart from the program.

Each ``check_*`` function returns a list of error strings, empty when the
output is right. The oracles here use other algorithms than the program:
pair listing instead of the overlap table, breadth-first search instead of
union-find, a plain double loop over the reference pair decisions instead
of the candidate index, and the full-matrix edit distance instead of the
bit-parallel one.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from dealias.baselines import bird_match, simple_match
from dealias.rules import MatcherConfig, is_match, score_pair


def _limit(errors: list[str], most: int = 10) -> list[str]:
    return errors if len(errors) <= most else (
        errors[:most] + [f"... and {len(errors) - most} more"])


# --- partitions and pair counts ---------------------------------------------

def clusters_of(assignment: Mapping[str, str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = defaultdict(list)
    for alias_id, label in assignment.items():
        out[label].append(alias_id)
    return out


def check_partition(ids: Sequence[str],
                    rows: Sequence[tuple[str, str]]) -> list[str]:
    """Every input id appears exactly once, and each label is the smallest
    member id of its cluster."""
    errors = []
    seen: dict[str, int] = defaultdict(int)
    for alias_id, _ in rows:
        seen[alias_id] += 1
    wanted = set(ids)
    errors += [f"id {i} appears {c} times" for i, c in seen.items() if c != 1]
    errors += [f"id {i} missing" for i in sorted(wanted - seen.keys())]
    errors += [f"unknown id {i}" for i in sorted(seen.keys() - wanted)]
    for label, members in clusters_of(dict(rows)).items():
        if label != min(members):
            errors.append(f"cluster {label} has smaller member {min(members)}")
    return _limit(errors)


def check_shared_key(assignment: Mapping[str, str], keys: Mapping[str, str],
                     min_len: int, what: str) -> list[str]:
    """Aliases whose key (say, the cleaned email) is equal and at least
    ``min_len`` long share an author."""
    first: dict[str, str] = {}
    errors = []
    for alias_id in sorted(keys):
        key = keys[alias_id]
        if len(key) < min_len:
            continue
        other = first.setdefault(key, alias_id)
        if assignment[other] != assignment[alias_id]:
            errors.append(f"{other} and {alias_id} share {what} {key!r} "
                          "but not an author")
    return _limit(errors)


def pair_counts(predicted: Mapping[str, str],
                truth: Mapping[str, str]) -> tuple[int, int, int]:
    """(tp, fp, fn) by listing the pairs inside each cluster."""
    tp = fp = fn = 0
    for members in clusters_of(predicted).values():
        for a, b in combinations(members, 2):
            if truth[a] == truth[b]:
                tp += 1
            else:
                fp += 1
    for members in clusters_of(truth).values():
        for a, b in combinations(members, 2):
            if predicted[a] != predicted[b]:
                fn += 1
    return tp, fp, fn


def check_counts(reported: Mapping[str, float],
                 expected: tuple[int, int, int]) -> list[str]:
    """tp/fp/fn as reported equal the expected counts, and precision,
    recall and f1 (when reported) follow from them to the printed digits."""
    tp, fp, fn = expected
    errors = [f"{key} = {reported.get(key)}, expected {want}"
              for key, want in (("tp", tp), ("fp", fp), ("fn", fn))
              if reported.get(key) != want]
    errors += _check_scores(reported, reported.get("tp", 0),
                            reported.get("fp", 0), reported.get("fn", 0))
    return errors


def _check_scores(row: Mapping[str, float], tp: int, fp: int,
                  fn: int) -> list[str]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return [f"{key} = {row[key]}, expected {want:.6f} from tp/fp/fn"
            for key, want in (("precision", precision), ("recall", recall),
                              ("f1", f1))
            if key in row and abs(row[key] - want) > 1e-6]


def parse_report(text: str) -> dict[str, float]:
    """``key = value`` lines of ``dealias evaluate``."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = (int(value) if key in ("tp", "fp", "fn")
                                else float(value))
    return out


# --- the reference scan and closure -----------------------------------------

def decide(method: str, cfg: MatcherConfig) -> Callable:
    if method == "gambit":
        return lambda a, b: is_match(score_pair(a, b, cfg), cfg)
    if method == "bird":
        return lambda a, b: bird_match(a, b, cfg)
    if method == "simple":
        return lambda a, b: simple_match(a, b, cfg)
    raise ValueError(method)


def oracle_assignment(aliases: Sequence, method: str,
                      cfg: MatcherConfig) -> dict[str, str]:
    """Decide all n(n-1)/2 pairs, then close them by breadth-first search;
    each alias is labelled with the smallest id of its component."""
    match = decide(method, cfg)
    edges = [(i, j) for i, j in combinations(range(len(aliases)), 2)
             if match(aliases[i], aliases[j])]
    ids = [a.id for a in aliases]
    return {ids[k]: min(ids[m] for m in comp)
            for comp in components(len(ids), edges) for k in comp}


def components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, frontier = [start], [start]
        while frontier:
            nxt = []
            for k in frontier:
                for m in adjacent[k]:
                    if not seen[m]:
                        seen[m] = True
                        nxt.append(m)
            comp += nxt
            frontier = nxt
        out.append(comp)
    return out


def check_same_grouping(got: Mapping[str, str],
                        want: Mapping[str, str]) -> list[str]:
    def groups(a):
        return {frozenset(m) for m in clusters_of(a).values()}
    if got.keys() != want.keys():
        return ["partitions cover different ids"]
    g, w = groups(got), groups(want)
    return _limit([f"program cluster {sorted(c)} not in oracle"
                   for c in sorted(g - w, key=min)]
                  + [f"oracle cluster {sorted(c)} not in program output"
                     for c in sorted(w - g, key=min)])


# --- sweep rows -------------------------------------------------------------

def parse_sweep(text: str) -> list[dict]:
    """Sweep CSV rows; ``wall_time_ms`` is dropped."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        raw = dict(zip(header, line.split(",")))
        rows.append({
            "method": raw["method"], "measure": raw["measure"],
            "threshold": float(raw["threshold"]) if raw["threshold"] else None,
            "tp": int(raw["tp"]), "fp": int(raw["fp"]), "fn": int(raw["fn"]),
            "precision": float(raw["precision"]),
            "recall": float(raw["recall"]), "f1": float(raw["f1"])})
    return rows


def check_sweep(rows: Sequence[dict], true_pairs: int) -> list[str]:
    """In every row tp + fn is the number of true pairs and the scores
    follow from the counts; for gambit and bird, tp + fp does not increase
    as the threshold rises (for each measure), in the order printed."""
    errors = []
    last: dict[tuple[str, str], dict] = {}
    for row in rows:
        where = f"{row['method']},{row['measure']},{row['threshold']}"
        if row["tp"] + row["fn"] != true_pairs:
            errors.append(f"{where}: tp + fn = {row['tp'] + row['fn']}, "
                          f"expected {true_pairs}")
        errors += [f"{where}: {e}" for e in
                   _check_scores(row, row["tp"], row["fp"], row["fn"])]
        if row["method"] in ("gambit", "bird"):
            key = (row["method"], row["measure"])
            prev = last.get(key)
            if prev is not None:
                if row["threshold"] <= prev["threshold"]:
                    errors.append(f"{where}: threshold not rising")
                if row["tp"] + row["fp"] > prev["tp"] + prev["fp"]:
                    errors.append(f"{where}: tp + fp rose from "
                                  f"{prev['tp'] + prev['fp']} to "
                                  f"{row['tp'] + row['fp']}")
            last[key] = row
    return _limit(errors)


# --- triage -----------------------------------------------------------------

def check_triage(ids: Sequence[str], files: Mapping[str, Sequence[tuple]],
                 expected_match: set[tuple[str, str]]) -> list[str]:
    """The files are disjoint and together hold each unordered pair exactly
    once as (id_a < id_b); the match file holds exactly ``expected_match``."""
    errors = []
    universe = set(ids)
    owner: dict[tuple, str] = {}
    for kind, rows in files.items():
        for pair in rows:
            a, b = pair
            if not (a < b and a in universe and b in universe):
                errors.append(f"{kind}: bad pair {pair}")
            if pair in owner:
                errors.append(f"{kind}: pair {pair} already in {owner[pair]}")
            owner[pair] = kind
    n = len(universe)
    if len(owner) != n * (n - 1) // 2:
        errors.append(f"{len(owner)} distinct pairs, expected "
                      f"{n * (n - 1) // 2}")
    match = set(files.get("match", ()))
    if match != expected_match:
        errors.append(f"match file differs from the identical-name-or-email "
                      f"groups: {len(match - expected_match)} extra, "
                      f"{len(expected_match - match)} missing")
    return _limit(errors)


def identical_key_pairs(aliases: Sequence) -> set[tuple[str, str]]:
    """Pairs linked, directly or through a chain, by identical non-empty
    cleaned names or emails."""
    owners: dict[tuple[str, str], list[int]] = defaultdict(list)
    for k, a in enumerate(aliases):
        for field in ("name", "email"):
            if getattr(a, field):
                owners[field, getattr(a, field)].append(k)
    edges = [(m[0], k) for m in owners.values() for k in m[1:]]
    out = set()
    for comp in components(len(aliases), edges):
        for i, j in combinations(comp, 2):
            a, b = aliases[i].id, aliases[j].id
            out.add((a, b) if a < b else (b, a))
    return out


def matrix_similarity(s1: str, s2: str) -> float:
    """1 - d / max(len) with d the full-table edit distance."""
    longer = max(len(s1), len(s2))
    if not longer:
        return 1.0
    prev = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, 1):
        row = [i]
        for j, c2 in enumerate(s2, 1):
            row.append(min(prev[j] + 1, row[j - 1] + 1,
                           prev[j - 1] + (c1 != c2)))
        prev = row
    return 1.0 - prev[-1] / longer


def check_triage_sample(kind: str, pairs: Iterable[tuple[str, str]],
                        by_id: Mapping, cutoff: float) -> list[str]:
    """A differ pair has name and email similarity both below the cutoff;
    an undecided pair has at least one at or above it."""
    errors = []
    for a, b in pairs:
        x, y = by_id[a], by_id[b]
        below = (matrix_similarity(x.name, y.name) < cutoff
                 and matrix_similarity(x.email, y.email) < cutoff)
        if below != (kind == "differ"):
            errors.append(f"{kind} pair ({a}, {b}) has similarities "
                          f"{'below' if below else 'at or above'} {cutoff}")
    return _limit(errors)
