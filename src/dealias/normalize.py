"""Cleaning of raw author names and emails, and feature extraction.

The cleaning pipeline maps arbitrary input to lowercase ASCII words so the
matchers only ever see the alphabet a-z, spaces, and (inside emails) '@'.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class RawAlias:
    """An (id, name, email) record exactly as found in the source data."""

    id: str
    name: str
    email: str


@dataclass(frozen=True)
class Alias:
    """A cleaned alias together with the features the matchers compare.

    ``name`` and ``email`` are the cleaned full strings. ``first_name``,
    ``penultimate_name`` and ``last_name`` are the first, next-to-last and
    last whitespace-separated name tokens (all three equal for a one-token
    name, empty for an empty name). ``email_base`` is the part of the email
    before the first '@' (the whole email if there is none).
    """

    id: str
    name: str
    email: str
    first_name: str
    penultimate_name: str
    last_name: str
    email_base: str


# Words dropped from names and emails: honorifics/suffixes, mailer
# boilerplate, and timezone abbreviations that leak out of date fields.
# Deliberately excludes short words that collide with real names or
# name fragments.
DEFAULT_STOP_WORDS = frozenset("""
    jr sr admin unknown noreply
    utc gmt est edt cst cdt mst mdt pst pdt akst akdt hst hast hadt
    ast adt nst ndt bst wet west cet cest eet eest msk ist jst kst
    hkt sgt ict aest aedt acst acdt awst nzst nzdt
""".split())


# Characters with no ASCII decomposition that still have a conventional
# ASCII spelling.
_CHAR_FALLBACKS = {
    "ß": "ss", "ẞ": "SS",
    "æ": "ae", "Æ": "AE",
    "œ": "oe", "Œ": "OE",
    "ø": "o", "Ø": "O",
    "đ": "d", "Đ": "D",
    "ð": "d", "Ð": "D",
    "þ": "th", "Þ": "Th",
    "ł": "l", "Ł": "L",
    "ı": "i",
}

_CAMEL_RE = re.compile(r"(?<=[a-z])(?=[A-Z])")
_DELIM_TABLE = str.maketrans({c: " " for c in "+-,._;"})
_NAME_STRIP_RE = re.compile(r"[^A-Za-z\s]+")
_EMAIL_STRIP_RE = re.compile(r"[^A-Za-z\s@]+")


def _to_ascii(text: str) -> str:
    """Transliterate to ASCII: strip accents via compatibility decomposition,
    spell out a few special letters, drop anything else non-ASCII."""
    if text.isascii():
        return text  # NFKD maps every ASCII string to itself
    out = []
    for ch in unicodedata.normalize("NFKD", text):
        if ch.isascii():
            out.append(ch)
        elif ch in _CHAR_FALLBACKS:
            out.append(_CHAR_FALLBACKS[ch])
    return "".join(out)


def _clean(text: str, stop_words: frozenset[str], keep_at: bool) -> str:
    text = _to_ascii(text)
    text = _CAMEL_RE.sub(" ", text)
    text = text.translate(_DELIM_TABLE)
    text = (_EMAIL_STRIP_RE if keep_at else _NAME_STRIP_RE).sub("", text)
    text = text.lower()
    tokens = [tok for tok in text.split() if tok not in stop_words]
    return " ".join(tokens)


def preprocess(raw: RawAlias,
               stop_words: frozenset[str] | None = None) -> tuple[str, str]:
    """Clean a raw record, returning the (name, email) string pair.

    Steps, in order: ASCII transliteration, camel-case splitting,
    delimiter-to-space replacement (``+ - , . _ ;``), removal of all other
    non-alphabetical characters ('@' is kept in emails), lowercasing,
    removal of the tokens in ``stop_words`` (None means
    :data:`DEFAULT_STOP_WORDS`), whitespace collapse. The result is
    idempotent under a second application.
    """
    if stop_words is None:
        stop_words = DEFAULT_STOP_WORDS
    return (_clean(raw.name, stop_words, keep_at=False),
            _clean(raw.email, stop_words, keep_at=True))


def extract_entities(name: str, email: str, alias_id: str) -> Alias:
    """Build an :class:`Alias` from already-cleaned name/email strings."""
    tokens = name.split()
    if tokens:
        first = tokens[0]
        last = tokens[-1]
        penultimate = tokens[-2] if len(tokens) > 1 else tokens[0]
    else:
        first = penultimate = last = ""
    base = email.split("@", 1)[0]
    return Alias(id=alias_id, name=name, email=email, first_name=first,
                 penultimate_name=penultimate, last_name=last, email_base=base)


def prepare_alias(raw: RawAlias,
                  stop_words: frozenset[str] | None = None) -> Alias:
    """Clean one raw record and extract its matching features."""
    name, email = preprocess(raw, stop_words)
    return extract_entities(name, email, raw.id)


def prepare_aliases(raws: Iterable[RawAlias],
                    stop_words: frozenset[str] | None = None) -> list[Alias]:
    return [prepare_alias(raw, stop_words) for raw in raws]
