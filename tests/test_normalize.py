import re
import unicodedata

import pytest
from hypothesis import given, strategies as st

from dealias.normalize import (Alias, RawAlias, _to_ascii, extract_entities,
                               prepare_alias, prepare_aliases, preprocess)
from dealias.storage import read_stop_words


def clean_pair(name, email, stop_words=None):
    return preprocess(RawAlias("x", name, email), stop_words)


def test_pipeline_worked_example():
    name, email = clean_pair("John.Doe42", "John.Doe42@Example.COM")
    assert name == "john doe"
    assert email == "john doe@example com"


def test_transliteration():
    assert clean_pair("José Peña", "")[0] == "jose pena"
    assert clean_pair("Strauß", "")[0] == "strauss"
    assert clean_pair("Ødegård œuvre", "")[0] == "odegard oeuvre"
    assert clean_pair("Łukasz", "")[0] == "lukasz"
    # untransliterable characters are dropped
    assert clean_pair("张伟 Wei", "")[0] == "wei"


def test_camel_case_split():
    assert clean_pair("JoséPeña", "")[0] == "jose pena"
    assert clean_pair("johnDoe", "")[0] == "john doe"
    # an uppercase run is not split
    assert clean_pair("JD", "")[0] == "jd"


def test_delimiters_become_spaces():
    assert clean_pair("john-doe", "")[0] == "john doe"
    assert clean_pair("a+b,c.d_e;f", "")[0] == "a b c d e f"


def test_non_alphabetical_removed_not_spaced():
    # digits vanish without leaving a token boundary
    assert clean_pair("John2Doe", "")[0] == "johndoe"
    assert clean_pair("O'Brien", "")[0] == "obrien"


def test_at_sign_kept_only_in_emails():
    name, email = clean_pair("a@b", "a@b")
    assert name == "ab"
    assert email == "a@b"


def test_stop_words_removed_tokenwise():
    assert clean_pair("John Doe Jr", "")[0] == "john doe"
    assert clean_pair("Pierre UTC", "")[0] == "pierre"
    # only whole tokens are removed
    assert clean_pair("Jürgen", "")[0] == "jurgen"
    assert clean_pair("Astrid", "")[0] == "astrid"


def test_custom_stop_words(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment line\nfoo\nBAR  # trailing comment\n\n")
    stop_words = read_stop_words(path)
    assert stop_words == frozenset({"foo", "bar"})
    assert clean_pair("foo bar baz jr", "", stop_words)[0] == "baz jr"
    # a byte-order mark is not part of the first word
    path.write_bytes("\ufeffsmith\n".encode("utf-8"))
    stop_words = read_stop_words(path)
    assert stop_words == frozenset({"smith"})
    assert clean_pair("John Smith", "", stop_words)[0] == "john"


def test_empty_stop_word_set_removes_nothing():
    raws = [RawAlias("x", "John Doe Jr", "jr.UTC@example.org")]
    kept, = prepare_aliases(raws, frozenset())
    assert (kept.name, kept.email) == ("john doe jr", "jr utc@example org")
    assert clean_pair("Pierre UTC", "", frozenset()) == ("pierre utc", "")
    default, = prepare_aliases(raws)
    assert (default.name, default.email) == ("john doe", "utc@example org")


def test_whitespace_collapsed():
    assert clean_pair("  john \t doe  ", "")[0] == "john doe"


raw_text = st.text(max_size=30)


@given(raw_text, raw_text)
def test_pipeline_idempotent(name, email):
    n1, e1 = clean_pair(name, email)
    n2, e2 = clean_pair(n1, e1)
    assert (n1, e1) == (n2, e2)


@given(st.text(st.characters(max_codepoint=127), max_size=30))
def test_ascii_text_is_its_own_transliteration(text):
    # the transliteration returns ASCII text as it is, without decomposing
    assert _to_ascii(text) == text == unicodedata.normalize("NFKD", text)


@given(raw_text, raw_text)
def test_output_alphabet(name, email):
    n, e = clean_pair(name, email)
    assert re.fullmatch(r"[a-z ]*", n)
    assert re.fullmatch(r"[a-z @]*", e)
    assert not n.startswith(" ") and not n.endswith(" ")
    assert "  " not in n and "  " not in e


def test_extract_entities_token_positions():
    a = extract_entities("anna maria luisa medici", "amlm@firenze.it", "x")
    assert (a.first_name, a.penultimate_name, a.last_name) == (
        "anna", "luisa", "medici")
    b = extract_entities("john doe", "", "x")
    assert (b.first_name, b.penultimate_name, b.last_name) == (
        "john", "john", "doe")
    c = extract_entities("plato", "", "x")
    assert (c.first_name, c.penultimate_name, c.last_name) == (
        "plato", "plato", "plato")
    d = extract_entities("", "", "x")
    assert (d.first_name, d.penultimate_name, d.last_name) == ("", "", "")


def test_extract_entities_email_base():
    assert extract_entities("", "john doe@example com", "x").email_base == "john doe"
    # no '@': the whole email is the base
    assert extract_entities("", "john doe", "x").email_base == "john doe"
    # only the first '@' splits
    assert extract_entities("", "a@b@c", "x").email_base == "a"
    assert extract_entities("", "", "x").email_base == ""


def test_prepare_alias_end_to_end():
    a = prepare_alias(RawAlias("a22", "JoséPeña", "Jose.Pena@Madrid.ES"))
    assert a == Alias(id="a22", name="jose pena", email="jose pena@madrid es",
                      first_name="jose", penultimate_name="jose",
                      last_name="pena", email_base="jose pena")


def test_prepare_aliases_preserves_order():
    raws = [RawAlias("b", "B", ""), RawAlias("a", "A", "")]
    assert [a.id for a in prepare_aliases(raws)] == ["b", "a"]
