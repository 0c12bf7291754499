"""Seeded input generators for the benchmark workloads.

Every corpus is built from synthetic *identities*: one person with a first
name, a last name, a login handle and three mail domains. Each
identity writes under a few *alias styles* (how the name and email look in
one commit), and the raw strings carry the noise real logs have: capitals,
dots, commas, accents, camel case and ``+tag`` suffixes, so that
``normalize`` has real work to do.

Names are built from syllables. First names come from a shared pool (people
share first names); last names and handles are drawn fresh per identity and
never repeat, which keeps distinct identities separable at tens of
thousands of aliases. The only one-token names are handles, which are
unique and longer than any first name; one-token first names would let
gambit rule 7 chain unrelated people (see the README).

The same seed gives the same corpus, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "dr", "gr", "kl", "pr", "sh",
           "st", "th", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "a", "e", "i", "o", "ai", "ou"]
_CODAS = ["", "", "", "", "n", "r", "l", "s", "m", "x"]
_ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ö", "u": "ü", "n": "ñ",
            "c": "ç"}
DOMAINS = ["gmail.com", "users.noreply.github.com", "example.org",
           "mail.example.net", "corp.example.com", "uni-example.edu",
           "lists.example.org", "dev.example.io"]

# Alias styles (see _render), repeated by weight and interleaved. Identity
# k writes under the first few distinct styles found from a rotating
# offset, and the number of styles cycles through ALIAS_COUNTS, so the mix
# of styles and identity sizes is the same for every seed; the seed picks
# the names, the accents, the commit counts and their order.
STYLE_CYCLE = ["plain", "comma", "caps", "plain", "middle", "camel", "plain",
               "accent", "handle", "comma", "plain", "caps", "middle",
               "plain", "camel", "accent", "comma", "plain", "dotted",
               "handle"]
ALIAS_COUNTS = (1, 3, 2, 5, 1, 4, 3, 6)


@dataclass(frozen=True)
class Identity:
    first: str
    last: str
    middle: str
    handle: str
    domains: tuple[str, ...]


@dataclass(frozen=True)
class RawAlias:
    name: str
    email: str
    identity: int


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                   + rng.choice(_CODAS) for _ in range(syllables))


def identities(rng: random.Random, first_pool: int):
    """Endless stream of identities; first names repeat, nothing else does.
    First names have 1 or 2 syllables, last names 2, 2, 3, 2, 2, 3, ..."""
    firsts = sorted({_word(rng, 1 + k % 2)
                     for k in range(first_pool)})
    used: set[str] = set(firsts)
    k = 0
    while True:
        last = _fresh(rng, used, lambda: _word(rng, 3 if k % 3 == 2 else 2))
        handle = _fresh(rng, used, lambda: _word(rng, 3))
        yield Identity(first=rng.choice(firsts), last=last,
                       middle=rng.choice("abcdefghjklmnprstw"),
                       handle=handle, domains=tuple(rng.sample(DOMAINS, 3)))
        k += 1


def _fresh(rng: random.Random, used: set[str], make) -> str:
    while True:
        word = make()
        if word not in used and len(word) >= 5:
            used.add(word)
            return word


def _accent(rng: random.Random, word: str) -> str:
    k = rng.randrange(len(word))
    return word[:k] + _ACCENTS.get(word[k], word[k]) + word[k + 1:]


def _render(rng: random.Random, p: Identity, style: str) -> tuple[str, str]:
    """One raw (name, email) pair of identity ``p`` in the given style."""
    f, l = p.first.capitalize(), p.last.capitalize()
    dom = p.domains[0]
    if style == "plain":
        return f"{f} {l}", f"{p.first}.{p.last}@{dom}"
    if style == "comma":
        return f"{l}, {f}", f"{p.first[0]}{p.last}@{p.domains[1]}"
    if style == "caps":
        return (f"{f.upper()} {l.upper()}",
                f"{p.first.upper()}{p.last[0].upper()}@{dom.upper()}")
    if style == "middle":
        return f"{f} {p.middle.upper()}. {l}", f"{p.first}.{p.last}+git@{dom}"
    if style == "camel":
        return f"{f}{l}", f"{p.handle}@{p.domains[2]}"
    if style == "accent":
        return (f"{_accent(rng, f)} {_accent(rng, l)}",
                f"{p.first}_{p.last}@{p.domains[1]}")
    if style == "dotted":
        return f"{p.first}.{p.last}", f"{p.first}.{p.last}@{dom}"
    if style == "handle":
        return p.handle, f"{p.handle}@{p.domains[2]}"
    raise ValueError(style)


def styles_of(k: int) -> list[str]:
    """The alias styles identity ``k`` writes under."""
    out: list[str] = []
    j = 7 * k
    while len(out) < ALIAS_COUNTS[k % len(ALIAS_COUNTS)]:
        style = STYLE_CYCLE[j % len(STYLE_CYCLE)]
        if style not in out:
            out.append(style)
        j += 1
    return out


def aliases(seed: int, target: int) -> list[RawAlias]:
    """The first ``target`` raw aliases of a stream of identities; every
    (name, email) pair is distinct."""
    rng = random.Random(seed)
    out: list[RawAlias] = []
    for k, p in enumerate(identities(rng, max(50, target // 12))):
        for style in styles_of(k):
            name, email = _render(rng, p, style)
            out.append(RawAlias(name, email, k))
        if len(out) >= target:
            return out[:target]


def commit_log(seed: int, target: int) -> tuple[list[str], list[RawAlias]]:
    """A ``name<TAB>email`` log with repeated lines (1-8 commits per alias,
    in shuffled order), and its distinct aliases in order of first
    appearance, which is the order ``extract`` numbers them in."""
    raws = aliases(seed, target)
    rng = random.Random(seed + 1)
    lines = [k for k, _ in enumerate(raws) for _ in range(rng.randint(1, 8))]
    rng.shuffle(lines)
    order: dict[int, None] = dict.fromkeys(lines)
    first_seen = [raws[k] for k in order]
    return [f"{raws[k].name}\t{raws[k].email}" for k in lines], first_seen


def sample_identities(rng: random.Random, raws: list[RawAlias],
                      size: int) -> list[int]:
    """Indices into ``raws`` of whole identities, about ``size`` aliases."""
    members: dict[int, list[int]] = {}
    for k, r in enumerate(raws):
        members.setdefault(r.identity, []).append(k)
    chosen: list[int] = []
    for ident in rng.sample(sorted(members), len(members)):
        if len(chosen) >= size:
            break
        chosen.extend(members[ident])
    return sorted(chosen)
