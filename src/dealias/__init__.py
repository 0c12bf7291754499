"""dealias: resolve author aliases (name/email pairs) to unique identities.

The matcher scores every alias pair under ten rules built from name parts
and email parts, declares a match when the average of the two best rule
scores reaches a threshold, and groups aliases by transitive closure.
Exact-match and disjunctive-rule reference matchers, a pairwise evaluation
harness, threshold sweeps, inter-rater agreement and pair triage are
included, along with a CLI (``dealias --help``).
"""

from .baselines import bird_match, bird_score, simple_match
from .clustering import (METHODS, Partition, disambiguate, matched_pairs,
                         merge_partitions, pair_score, scored_pairs)
from .errors import (AliasFileError, DealiasError, DuplicateAliasIdError,
                     EmptyClusterError, PartitionFileError,
                     UniverseMismatchError)
from .evaluation import (EvalReport, SweepRow, TriageResult, cohen_kappa,
                         evaluate, sweep, triage, write_sweep_csv)
from .normalize import (Alias, RawAlias, StopWordConfig, extract_entities,
                        prepare_alias, prepare_aliases, preprocess)
from .rules import MatcherConfig, is_match, score_pair, top_two_average
from .similarity import (JaroBreakdown, Measure, jaro_breakdown,
                         jaro_similarity, jaro_winkler_similarity,
                         levenshtein_distance, levenshtein_similarity)
from .storage import (extract_from_log, read_aliases, read_partition,
                      write_aliases, write_partition)

__version__ = "0.1.0"

__all__ = [
    "Alias", "AliasFileError", "DealiasError", "DuplicateAliasIdError",
    "EmptyClusterError", "EvalReport", "JaroBreakdown", "MatcherConfig",
    "Measure", "METHODS", "Partition", "PartitionFileError", "RawAlias",
    "StopWordConfig", "SweepRow", "TriageResult", "UniverseMismatchError",
    "bird_match", "bird_score", "cohen_kappa", "disambiguate", "evaluate",
    "extract_entities", "extract_from_log", "is_match", "jaro_breakdown",
    "jaro_similarity", "jaro_winkler_similarity", "levenshtein_distance",
    "levenshtein_similarity", "matched_pairs", "merge_partitions",
    "pair_score", "prepare_alias", "prepare_aliases", "preprocess",
    "read_aliases", "read_partition", "score_pair", "scored_pairs",
    "simple_match", "sweep", "top_two_average", "triage", "write_aliases",
    "write_partition", "write_sweep_csv",
]
