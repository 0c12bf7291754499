"""Shared helpers for building aliases and synthetic corpora in tests."""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from dealias import Alias, extract_entities

FIRST_NAMES = ["john", "jane", "wei", "jose", "olga", "grace", "sara",
               "mark", "ada", "rajesh", "pierre", "fatima", "dmitri",
               "umberto", "mary", "chen", "ali", "ben", "carla", "diego"]
LAST_NAMES = ["doe", "smith", "zhang", "pena", "ivanova", "hopper", "cohen",
              "miller", "lovelace", "venkatesan", "dupont", "zahra",
              "mendeleev", "eco", "johnson", "li", "wu", "khan", "rossi",
              "sato"]
DOMAINS = ["work.com", "home.org", "mail.net", "uni.edu", "alpha.com",
           "beta.org"]


def make_alias(alias_id: str, name: str, email: str) -> Alias:
    """Alias from already-clean strings (no preprocessing applied)."""
    return extract_entities(name, email, alias_id)


def random_token(rng: random.Random, lo: int = 3, hi: int = 10) -> str:
    return "".join(rng.choice(string.ascii_lowercase)
                   for _ in range(rng.randrange(lo, hi)))


def random_alias(rng: random.Random, alias_id: str) -> Alias:
    """A random but plausible alias; includes empty/short/unusual shapes."""
    f = rng.choice(FIRST_NAMES)
    l = rng.choice(LAST_NAMES)
    name = rng.choice([
        f + " " + l,
        l + " " + f,
        f,
        f[0] + " " + l,
        f + " " + random_token(rng) + " " + l,
        "",
    ])
    base = rng.choice([f + "." + l, f[0] + l, f + l[0], f, l,
                       random_token(rng), ""])
    email = base + "@" + rng.choice(DOMAINS) if base else ""
    # delimiters survive nowhere in cleaned text; emulate cleaned form
    return make_alias(alias_id, name, email.replace(".", " "))


def random_corpus(seed: int, n: int) -> list[Alias]:
    rng = random.Random(seed)
    return [random_alias(rng, f"a{i:05d}") for i in range(n)]


def distinct_corpus(seed: int, n: int) -> list[Alias]:
    """Aliases with essentially no cross matches (worst case for the scan)."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        f = random_token(rng, 3, 9)
        l = random_token(rng, 4, 11)
        out.append(make_alias(f"a{i:05d}", f + " " + l,
                              f + " " + l + "@" + random_token(rng, 5, 8) + " com"))
    return out


def mixed_corpus(seed: int, n: int) -> list[Alias]:
    """Aliases where roughly half belong to multi-alias identities written
    in different styles (the realistic disambiguation workload)."""
    rng = random.Random(seed)
    out = []
    i = 0
    while len(out) < n:
        f = rng.choice(FIRST_NAMES) + random_token(rng, 1, 4)
        l = rng.choice(LAST_NAMES) + random_token(rng, 1, 4)
        dom = rng.choice(DOMAINS).replace(".", " ")
        variants = [
            (f + " " + l, f + " " + l + "@" + dom),
            (l + " " + f, f[0] + l + "@" + dom),
            (f + " " + l, f + l[0] + "@" + dom),
            (f, f + " " + l + "@" + dom),
        ]
        k = rng.choice([1, 1, 1, 2, 2, 3])
        for name, email in rng.sample(variants, k):
            if len(out) < n:
                out.append(make_alias(f"a{i:05d}", name, email))
                i += 1
    return out


# few letters and a small pool of shared tokens, so that equal, similar,
# swapped and contained fields are common; long tokens reach the join's
# direct comparison of strings with large deletion neighbourhoods
_tokens = st.one_of(st.sampled_from(["ab", "abc", "abcd", "dcba", "abcab"]),
                    st.text(alphabet="abcd", min_size=1, max_size=14))


def alias_lists(min_size: int = 2, max_size: int = 30):
    """Hypothesis strategy: lists of aliases with ids a00, a01, ..."""
    return st.lists(
        st.tuples(st.lists(_tokens, max_size=3).map(" ".join),
                  st.one_of(st.just(""),
                            st.builds("{}@{}".format,
                                      st.lists(_tokens, max_size=2)
                                      .map(" ".join),
                                      st.sampled_from(["x", "y z"])))),
        min_size=min_size, max_size=max_size,
    ).map(lambda rows: [make_alias(f"a{k:02d}", name, email)
                        for k, (name, email) in enumerate(rows)])
