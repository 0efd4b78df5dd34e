"""Regression tests for the round-1 code-review findings."""

import os
import warnings

import numpy as np
import pytest


WIDE_CONFIG = {
    "features": [
        ["low", "title"],
        ["low", "title", "upper"],
        ["low", "bias", "prefix2", "suffix3", "title", "upper", "digit",
         "shape"],
        ["low", "title", "upper"],
        ["low", "title"],
    ],
    "c1": 0.003, "c2": 0.03, "max_iter": 120,
}


def test_fast_path_matches_slow_for_wide_window(restaurant_examples):
    """Window size 5 → two offsets out of range at sentence edges; BOS/EOS
    flag weight must stay 1 (review finding #1)."""
    from spacy_crfsuite_ray.core.extractor import (
        CRFExtractor, gold_example_to_crf_tokens,
    )
    from spacy_crfsuite_ray.core.fast_tag import FastTagger
    from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer
    from spacy_crfsuite_ray.stages.tag import tag_sentences

    tok = RegexTokenizer()
    samples = [gold_example_to_crf_tokens(dict(e), tokenizer=tok)
               for e in restaurant_examples]
    ext = CRFExtractor(WIDE_CONFIG)
    ext.train(samples)
    sents = [e["text"] for e in restaurant_examples]
    fast = FastTagger(ext).tag_texts(sents)
    slow = tag_sentences(ext, RegexTokenizer(), sents)
    for f, s in zip(fast, slow):
        assert len(f) == len(s)
        for fe, se in zip(f, s):
            assert (fe["value"], fe["entity"]) == (se["value"], se["entity"])
            assert fe["confidence"] == pytest.approx(se["confidence"], abs=1e-9)


def test_resume_reshard_reruns_and_prunes(ray_session, tmp_path):
    """Changing `shards` between runs must never mix old and new shard
    contents (review finding #2)."""
    import pyarrow.parquet as pq

    from spacy_crfsuite_ray.pipelines.kg import run_phase1
    from spacy_crfsuite_ray.sources.pages import generate_pages, page_files

    from spacy_crfsuite_ray.pipelines.kg import _kind_files

    def n_sentence_rows(out):
        return sum(pq.read_metadata(f).num_rows for f in _kind_files(out, "e"))

    pages_dir, _ = generate_pages(30, str(tmp_path / "p"), rows_per_file=10)
    files = page_files(pages_dir)
    out = str(tmp_path / "out")
    run_phase1(files, out, shards=3)
    rows3 = n_sentence_rows(out)
    stats = run_phase1(files, out, shards=1)
    assert stats["shards_run"] == 1  # stale manifests must NOT be reused
    shard_dirs = [d for d in os.listdir(os.path.join(out, "tagged"))
                  if d.startswith("shard=")]
    assert shard_dirs == ["shard=00000"]  # extra shards pruned
    rows1 = n_sentence_rows(out)
    assert rows1 == rows3  # same corpus, no duplication


def test_load_extractor_cache_respects_config(tmp_path):
    from spacy_crfsuite_ray.state.model import ensure_default_model, load_extractor

    path = ensure_default_model()
    a = load_extractor(path)
    b = load_extractor(path, {"BILOU_flag": False})
    assert a is not b
    assert a.component_config["BILOU_flag"] is True
    assert b.component_config["BILOU_flag"] is False
    assert load_extractor(path) is a  # same key still cached


def test_generate_pages_regeneration_wipes_stale_parts(tmp_path):
    import pyarrow.parquet as pq

    from spacy_crfsuite_ray.sources.pages import generate_pages, page_files

    d = str(tmp_path / "fx")
    generate_pages(50, d, rows_per_file=10)
    assert len(page_files(os.path.join(d, "pages"))) == 5
    generate_pages(10, d, rows_per_file=10)
    files = page_files(os.path.join(d, "pages"))
    assert len(files) == 1  # stale part files removed
    assert pq.read_metadata(files[0]).num_rows == 10


def test_misaligned_annotation_warns():
    from spacy_crfsuite_ray.core.features import Featurizer
    from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer

    msg = {"text": "hello world",
           "entities": [{"start": 0, "end": 4, "entity": "x", "value": "hell"}]}
    RegexTokenizer().tokenize(msg)
    with pytest.warns(UserWarning, match="Misaligned"):
        tags = Featurizer().apply_bilou_schema(msg)
    assert tags == ["O", "O"]


def test_dev_samples_used_for_selection(restaurant_examples):
    from spacy_crfsuite_ray.core.extractor import (
        CRFExtractor, gold_example_to_crf_tokens,
    )
    from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer

    tok = RegexTokenizer()
    samples = [gold_example_to_crf_tokens(dict(e), tokenizer=tok)
               for e in restaurant_examples]
    train, dev = samples[:10], samples[10:]
    ext = CRFExtractor({"c1": 0.003, "c2": 0.03, "max_iter": 60})
    ext.train(train, dev_samples=dev)  # must not be a silent no-op
    stats, _ = ext.eval(train)
    assert stats["weighted avg"]["f1-score"] > 0.8


def test_cli_tag_dense_config_falls_back(tmp_path, capsys):
    import json

    from spacy_crfsuite_ray.cli import main
    from spacy_crfsuite_ray.core.features import DEFAULT_FEATURES

    gold = tmp_path / "g.md"
    gold.write_text("## i\n- show me [chinese](cuisine) restaurants\n"
                    "- find [thai](cuisine) food\n")
    out = tmp_path / "m"
    assert main(["train", str(gold), "-o", str(out)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"features": [
        DEFAULT_FEATURES[0],
        DEFAULT_FEATURES[1] + ["dense_features"],
        DEFAULT_FEATURES[2],
    ]}))
    # non-cacheable config: must fall back, not crash (review finding #6)
    assert main(["tag", "show me chinese restaurants",
                 "-m", str(out / "model.npz"), "-c", str(cfg)]) == 0
