"""Fast batched tagging path == reference-semantics per-sentence path."""

import numpy as np
import pytest

from spacy_crfsuite_ray.core.fast_tag import FastTagger, config_is_cacheable
from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer
from spacy_crfsuite_ray.sources.pages import _page_rows
from spacy_crfsuite_ray.core.sentences import split_sentences
from spacy_crfsuite_ray.stages.tag import tag_sentences
from spacy_crfsuite_ray.state.model import ensure_default_model, load_extractor


@pytest.fixture(scope="module")
def model():
    return load_extractor(ensure_default_model())


@pytest.fixture(scope="module")
def corpus():
    sents = []
    for i in range(150):
        r = _page_rows(i)
        if r["lang"] == "en":
            sents.extend(s for _, s in split_sentences(r["text"]))
    return sents


def test_config_cacheable(model):
    assert config_is_cacheable(model.component_config["features"])
    assert not config_is_cacheable([["low"], ["low", "dense_features"], ["low"]])


def test_fast_equals_slow_on_corpus(model, corpus):
    fast = FastTagger(model)
    got = fast.tag_texts(corpus)
    want = tag_sentences(model, RegexTokenizer(), corpus)
    n_ents = 0
    for g, w, sent in zip(got, want, corpus):
        assert len(g) == len(w), sent
        for ge, we in zip(g, w):
            assert (ge["start"], ge["end"], ge["value"], ge["entity"]) == (
                we["start"], we["end"], we["value"], we["entity"]), sent
            assert ge["confidence"] == pytest.approx(we["confidence"], abs=1e-9)
            n_ents += 1
    assert n_ents > 300  # the corpus genuinely exercises the tagger


def test_fast_handles_empty_and_whitespace(model):
    fast = FastTagger(model)
    out = fast.tag_texts(["", "   ", "Alice Martin works at Acme Corp."])
    assert out[0] == [] and out[1] == []
    assert len(out[2]) == 2


def test_token_cache_stays_bounded_under_novel_tokens(model, corpus,
                                                     monkeypatch):
    """A stream of never-seen tokens (a long-lived server's traffic) clears
    the per-token cache at its cap instead of growing it, and the tags stay
    equal to the reference path."""
    from spacy_crfsuite_ray.core import fast_tag

    cap = 64
    monkeypatch.setattr(fast_tag, "TOKEN_CACHE_MAX", cap)
    rng = np.random.RandomState(7)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    sents = []
    for i in range(60):
        novel = [("".join(rng.choice(letters, 8))).title() for _ in range(6)]
        sents.append(" ".join(novel) + " " + corpus[i % len(corpus)])
    fast = FastTagger(model)
    got = []
    for j in range(0, len(sents), 6):
        got.extend(fast.tag_texts(sents[j:j + 6]))
        assert len(fast._cache) <= cap
    want = tag_sentences(model, RegexTokenizer(), sents)
    assert sum(map(len, want)) > 20
    for g, w in zip(got, want):
        assert [(e["start"], e["end"], e["value"], e["entity"]) for e in g] \
            == [(e["start"], e["end"], e["value"], e["entity"]) for e in w]
        for ge, we in zip(g, w):
            assert ge["confidence"] == pytest.approx(we["confidence"],
                                                     abs=1e-9)


def test_fast_marginals_match_slow(model, corpus):
    from spacy_crfsuite_ray.core.crf import padded_marginals
    from spacy_crfsuite_ray.core.tokenizer import span_tokenize

    fast = FastTagger(model)
    sent = corpus[0]
    texts = [t for t, _, _ in span_tokenize(sent)]
    lens = np.array([len(texts)])
    marg = padded_marginals(fast._state_scores(texts, lens), lens, fast.T)[0]
    # slow path marginals
    msg = {"text": sent}
    RegexTokenizer().tokenize(msg)
    crf_tokens = model.featurizer(msg)
    feats = model.example_to_features(crf_tokens)
    slow = model.ent_tagger.predict_marginals_single(feats)
    assert marg.shape[0] == len(slow)
    for t, row in enumerate(slow):
        for j, lab in enumerate(model.ent_tagger.labels):
            assert marg[t, j] == pytest.approx(row[lab], abs=1e-9)


def test_tags_do_not_depend_on_batch_composition(model, corpus):
    """A sentence's tags are the same bits whether it is tagged with the
    whole corpus, in the tag stage's 128-sentence slices, alone or in
    reversed order — the property the byte-identical triples checks rely
    on."""
    whole = FastTagger(model).tag_texts(corpus)
    fast = FastTagger(model)
    sliced = [e for j in range(0, len(corpus), 128)
              for e in fast.tag_texts(corpus[j:j + 128])]
    fast = FastTagger(model)
    alone = [fast.tag_texts([s])[0] for s in corpus]
    reverse = FastTagger(model).tag_texts(corpus[::-1])[::-1]
    assert sum(map(len, whole)) > 300
    assert sliced == whole
    assert alone == whole
    assert reverse == whole


def test_vocabulary_mismatch_warns_once(model, corpus):
    """A feature config that matches almost none of the model's vocabulary
    warns once, on the first batch of at least 20 tokens; the default
    config never warns."""
    import warnings

    from spacy_crfsuite_ray.core.extractor import CRFExtractor

    def warned(fast, batches):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for batch in batches:
                fast.tag_texts(batch)
        return [str(w.message) for w in caught
                if "Almost no features match" in str(w.message)]

    short, batches = ["Acme Corp"], [corpus[:40], corpus[40:80]]
    assert warned(FastTagger(model), [short] + batches) == []
    odd = CRFExtractor({"features": [["digit"], ["digit"], ["digit"]]},
                       ent_tagger=model.ent_tagger)
    fast = FastTagger(odd)
    assert warned(fast, [short]) == []  # under 20 tokens: still armed
    assert len(warned(fast, batches)) == 1
    assert warned(fast, batches) == []


def _sentence_table(sents):
    import pyarrow as pa

    return pa.table({"sent": pa.array(sents, pa.string())})


def _assert_same_entities(got, want):
    """Spans and labels exact, confidences to 1e-9 (the fast path sums
    marginals in another order than the per-sentence path)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [(e["start"], e["end"], e["value"], e["entity"]) for e in g] \
            == [(e["start"], e["end"], e["value"], e["entity"]) for e in w]
        assert [e["confidence"] for e in g] == pytest.approx(
            [e["confidence"] for e in w], abs=1e-9)


def test_tag_batch_parse_texts_and_reference_agree(model, corpus):
    from spacy_crfsuite_ray.api import parse_texts
    from spacy_crfsuite_ray.stages.tag import tag_batch

    sents = corpus[:200] + ["", "   "]
    path = ensure_default_model()
    want = tag_sentences(model, RegexTokenizer(), sents)
    got = tag_batch(_sentence_table(sents), model_path=path)
    _assert_same_entities(got.column("entities").to_pylist(), want)
    parsed = parse_texts(sents, model_path=path)
    assert [r["text"] for r in parsed] == sents
    _assert_same_entities([r["entities"] for r in parsed], want)
    assert sum(map(len, want)) > 100


def test_model_file_replaced_in_place_is_reloaded(corpus, tmp_path):
    """A model file rewritten under a live process: the next tag call in
    the same process uses the new weights, and the cache holds one entry
    for the path, not one per rewrite."""
    import os
    import shutil

    from spacy_crfsuite_ray.api import parse_texts
    from spacy_crfsuite_ray.core.crf import LinearChainCRF
    from spacy_crfsuite_ray.core.extractor import CRFExtractor
    from spacy_crfsuite_ray.stages.tag import tag_batch
    from spacy_crfsuite_ray.state import model as model_mod

    sents = corpus[:60]
    p = str(tmp_path / "model.npz")
    shutil.copyfile(ensure_default_model(), p)
    old = tag_batch(_sentence_table(sents), model_path=p)
    old = old.column("entities").to_pylist()
    assert [r["entities"] for r in parse_texts(sents, model_path=p)] == old
    first = load_extractor(p)
    assert load_extractor(p) is first  # unchanged file: same cached object

    crf = LinearChainCRF.load(p)
    crf.W = np.zeros_like(crf.W)
    tmp = str(tmp_path / "zeroed.npz")
    crf.save(tmp)
    os.replace(tmp, p)

    reloaded = load_extractor(p)
    assert reloaded is not first
    assert not reloaded.ent_tagger.W.any()
    want = tag_sentences(CRFExtractor(None, ent_tagger=LinearChainCRF.load(p)),
                         RegexTokenizer(), sents)
    assert [[e["entity"] for e in w] for w in want] \
        != [[e["entity"] for e in o] for o in old]
    got = tag_batch(_sentence_table(sents), model_path=p)
    _assert_same_entities(got.column("entities").to_pylist(), want)
    _assert_same_entities([r["entities"] for r in parse_texts(sents, model_path=p)],
                          want)
    assert sum(k[0] == os.path.abspath(p) for k in model_mod._CACHE) == 1
