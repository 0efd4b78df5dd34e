"""Property-based tests (hypothesis) for offset/hashing invariants."""

import re

from hypothesis import given, settings, strategies as st

from spacy_crfsuite_ray.core.html import extract_text
from spacy_crfsuite_ray.core.sentences import split_sentences
from spacy_crfsuite_ray.core.tokenizer import TOKEN_PATTERN, span_tokenize, word_shape
from spacy_crfsuite_ray.functions.hashing import (
    jaccard,
    minhash_signature,
    simhash64,
)
from spacy_crfsuite_ray.sources.markdown import parse_item

from conftest import hamming64

text_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_span_tokenize_offsets_are_correct(text):
    for tok, start, end in span_tokenize(text):
        assert text[start:end] == tok
    # tokens match re.findall of the same pattern
    assert [t for t, _, _ in span_tokenize(text)] == re.findall(
        TOKEN_PATTERN, text, re.UNICODE
    )


@settings(max_examples=200, deadline=None)
@given(text_strategy)
def test_split_sentences_offsets_and_coverage(text):
    for off, sent in split_sentences(text):
        assert text[off:off + len(sent)] == sent


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcXYZ019 .,", max_size=40))
def test_word_shape_length_bounded(token):
    shape = word_shape(token)
    assert len(shape) <= len(token)
    # deterministic
    assert shape == word_shape(token)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=30))
def test_simhash_identical_inputs_equal(tokens):
    assert simhash64(tokens) == simhash64(list(tokens))
    assert hamming64(simhash64(tokens), simhash64(tokens)) == 0


@settings(max_examples=50, deadline=None)
@given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=6),
               min_size=1, max_size=40))
def test_minhash_identical_sets_equal(shingles):
    a = minhash_signature(shingles, 32)
    b = minhash_signature(set(shingles), 32)
    assert (a == b).all()


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 50), min_size=0, max_size=30),
       st.sets(st.integers(0, 50), min_size=0, max_size=30))
def test_jaccard_bounds_and_symmetry(a, b):
    j = jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == jaccard(b, a)
    assert jaccard(a, a) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab<>/&amp;p \n", max_size=120))
def test_extract_text_deterministic_and_no_tags(html):
    out = extract_text(html)
    assert out == extract_text(html)
    assert extract_text(html.encode()) == out


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abc xyz", min_size=1, max_size=20),
       st.text(alphabet="abc xyz", min_size=1, max_size=20))
def test_markdown_entity_offsets_index_plain_text(value, tail):
    value = value.strip() or "x"
    line = f"- find [{value}](thing) {tail}"
    parsed = parse_item(line)
    if parsed and parsed["entities"]:
        e = parsed["entities"][0]
        assert parsed["text"][e["start"]:e["end"]] == value
