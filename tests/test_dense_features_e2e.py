"""Dense-feature path end-to-end: train/eval with word vectors attached
(reference tests/test_dense_features.py semantics, without spaCy)."""

import numpy as np
import pytest

from spacy_crfsuite_ray.core.extractor import CRFExtractor, gold_example_to_crf_tokens
from spacy_crfsuite_ray.core.features import DEFAULT_FEATURES, Featurizer
from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer


def _vectors(dim=8):
    words = ["chinese", "mexican", "thai", "north", "south", "show", "me",
             "restaurants", "food", "in", "the", "a", "find", "place"]
    rng = np.random.RandomState(7)
    return {w: rng.normal(size=dim).astype(np.float64) for w in words}


DENSE_CONFIG = {
    "features": [
        ["low", "title", "upper"],
        DEFAULT_FEATURES[1] + ["dense_features"],
        ["low", "title", "upper"],
    ],
    "c1": 0.003, "c2": 0.03, "max_iter": 120,
}

GOLD = [
    {"text": "show me chinese restaurants",
     "entities": [{"start": 8, "end": 15, "value": "chinese", "entity": "cuisine"}]},
    {"text": "find a mexican place in the north",
     "entities": [{"start": 7, "end": 14, "value": "mexican", "entity": "cuisine"},
                  {"start": 28, "end": 33, "value": "north", "entity": "location"}]},
    {"text": "thai food in the south",
     "entities": [{"start": 0, "end": 4, "value": "thai", "entity": "cuisine"},
                  {"start": 17, "end": 22, "value": "south", "entity": "location"}]},
]


def test_dense_config_detected():
    ext = CRFExtractor(DENSE_CONFIG)
    assert ext.use_dense_features()
    assert ext.featurizer.use_dense_features


def test_dense_feature_keys_flow_into_crf():
    vecs = _vectors()
    tok = RegexTokenizer(vectors=vecs)
    ext = CRFExtractor(DENSE_CONFIG)
    ex = dict(GOLD[0])
    crf_tokens = gold_example_to_crf_tokens(
        ex, tokenizer=tok, featurizer=ext.featurizer
    )
    feats = ext.example_to_features(crf_tokens)
    assert isinstance(feats[0]["0:dense_features"], dict)
    from spacy_crfsuite_ray.core.crf import flatten_features

    flat = dict(flatten_features(feats[0]))
    assert any(k.startswith("0:dense_features:text_dense_features:")
               for k in flat)


def test_dense_train_eval_perfect_fit():
    vecs = _vectors()
    tok = RegexTokenizer(vectors=vecs)
    ext = CRFExtractor(DENSE_CONFIG)
    samples = [
        gold_example_to_crf_tokens(dict(e), tokenizer=tok,
                                   featurizer=ext.featurizer)
        for e in GOLD
    ]
    ext.train(samples)
    stats, _ = ext.eval(samples)
    assert stats["weighted avg"]["f1-score"] == pytest.approx(1.0)


def test_dense_config_not_fast_path_eligible():
    from spacy_crfsuite_ray.core.fast_tag import config_is_cacheable

    assert not config_is_cacheable(DENSE_CONFIG["features"])


def test_tag_texts_takes_reference_path_for_dense_config(tmp_path):
    from spacy_crfsuite_ray.stages.tag import tag_sentences, tag_texts
    from spacy_crfsuite_ray.state.model import load_extractor

    tok = RegexTokenizer()
    ext = CRFExtractor(DENSE_CONFIG)
    ext.train([gold_example_to_crf_tokens(dict(e), tokenizer=tok,
                                          featurizer=ext.featurizer)
               for e in GOLD])
    path = str(tmp_path / "dense.npz")
    ext.ent_tagger.save(path)
    texts = [e["text"] for e in GOLD] + ["", "thai place in the north"]
    got = tag_texts(texts, path, DENSE_CONFIG)
    cached = load_extractor(path, DENSE_CONFIG)
    assert got == tag_sentences(cached, RegexTokenizer(), texts)
    assert any(got)
    assert not hasattr(cached, "fast_tagger")
