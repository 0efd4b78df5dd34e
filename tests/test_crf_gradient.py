"""Numerical gradient check: the analytic CRF gradient must match finite
differences — guards the forward-backward/expected-counts implementation.
The batched training kernel must also equal a per-sentence oracle."""

import hashlib

import numpy as np
import pytest

from spacy_crfsuite_ray.core.crf import (
    EXP_RANGE,
    LinearChainCRF,
    TrainBatch,
    lbfgs,
    penalized,
    unpack,
)


@pytest.fixture(scope="module")
def setup():
    X = [
        [{"a": True, "w": 0.5}, {"b": True}, {"a": True, "c": "x"}],
        [{"b": True}, {"c": "y", "w": 2.0}],
        [{"a": True}],
    ]
    y = [["O", "E", "O"], ["E", "O"], ["E"]]
    crf = LinearChainCRF()
    # build vocab/labels by a tiny fit (1 iteration)
    crf.fit(X, y, c1=0.0, c2=0.0, max_iterations=1)
    encs = []
    lab_idx = {lab: i for i, lab in enumerate(crf.labels)}
    for sent, tags in zip(X, y):
        enc = crf._encode(sent, grow_vocab=False)
        enc.labels = np.asarray([lab_idx[t] for t in tags], dtype=np.int64)
        encs.append(enc)
    return crf, encs


def test_analytic_gradient_matches_finite_differences(setup):
    crf, encs = setup
    F, L = len(crf.vocab), len(crf.labels)
    rng = np.random.RandomState(3)
    W = rng.normal(scale=0.3, size=(F, L))
    T = rng.normal(scale=0.3, size=(L, L))

    nll, gW, gT = crf._nll_grad(encs, W, T)
    assert np.isfinite(nll)

    eps = 1e-6
    for arr, grad in ((W, gW), (T, gT)):
        flat = arr.ravel()
        gflat = grad.ravel()
        for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            nll_p, _, _ = crf._nll_grad(encs, W, T)
            flat[idx] = orig - eps
            nll_m, _, _ = crf._nll_grad(encs, W, T)
            flat[idx] = orig
            numeric = (nll_p - nll_m) / (2 * eps)
            assert numeric == pytest.approx(gflat[idx], abs=1e-4), idx


def test_marginals_sum_to_one_and_positive(setup):
    crf, encs = setup
    feats = [{"a": True}, {"b": True, "w": 1.5}, {"c": "x"}]
    margs = crf.predict_marginals_single(feats)
    for row in margs:
        total = sum(row.values())
        assert total == pytest.approx(1.0)
        assert all(v >= 0 for v in row.values())


def test_viterbi_is_argmax_sequence(setup):
    """Viterbi path must score >= every other label sequence."""
    import itertools

    crf, _ = setup
    feats = [{"a": True}, {"b": True}, {"c": "y"}]
    enc = crf._encode(feats, grow_vocab=False)
    S = crf._state_scores(enc)

    def score(path):
        s = sum(S[t, j] for t, j in enumerate(path))
        s += sum(crf.T[path[t - 1], path[t]] for t in range(1, len(path)))
        return s

    best = crf.predict_single(feats)
    best_idx = [crf.labels.index(lab) for lab in best]
    L = len(crf.labels)
    for path in itertools.product(range(L), repeat=3):
        assert score(best_idx) >= score(list(path)) - 1e-9


# ------------------------------------------------- batched kernel vs oracle


def oracle_nll_grad(encs, W, T):
    """Per-sentence, per-token negative log-likelihood and gradients: the
    direct reading of the linear-chain CRF that the batched kernel
    (``TrainBatch.nll_grad``) must reproduce."""
    crf = LinearChainCRF()
    crf.W, crf.T, crf.labels = W, T, list(range(T.shape[0]))
    gW = np.zeros_like(W)
    gT = np.zeros_like(T)
    nll = 0.0
    for enc in encs:
        S = crf._state_scores(enc)
        log_alpha, log_beta, log_Z = crf._forward_backward(S)
        y = enc.labels
        n = S.shape[0]
        score = S[np.arange(n), y].sum() + (T[y[:-1], y[1:]].sum() if n > 1 else 0.0)
        nll += log_Z - score
        marg = np.exp(log_alpha + log_beta - log_Z)
        for t in range(n):
            if enc.ids[t].size:
                diff = marg[t].copy()
                diff[y[t]] -= 1.0
                np.add.at(gW, enc.ids[t], enc.wts[t][:, None] * diff[None, :])
        for t in range(1, n):
            pair = (log_alpha[t - 1][:, None] + T + (S[t] + log_beta[t])[None, :]) - log_Z
            gT += np.exp(pair)
            gT[y[t - 1], y[t]] -= 1.0
    return nll, gW, gT


def assert_matches_oracle(got, want):
    """nll, gW and gT equal to rtol 1e-9. Gradient entries are sums of
    (marginal - gold) terms that cancel to ~0, where only an absolute floor
    relative to the largest entry is meaningful."""
    assert np.isfinite(got[0]) and got[0] == pytest.approx(want[0], rel=1e-9)
    for g, w in zip(got[1:], want[1:]):
        assert np.isfinite(g).all()
        np.testing.assert_allclose(g, w, rtol=1e-9,
                                   atol=1e-12 * max(1.0, np.abs(w).max()))


def encode_gold(X, y):
    crf = LinearChainCRF()
    encs = crf._encode_gold(X, y)
    return crf, encs


@pytest.fixture(scope="module")
def default_gold():
    """The default KG model's training set, featurized and encoded."""
    from spacy_crfsuite_ray.core.extractor import CRFExtractor, gold_example_to_crf_tokens
    from spacy_crfsuite_ray.core.features import sentence_to_tags
    from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer
    from spacy_crfsuite_ray.sources.pages import gold_training_examples
    from spacy_crfsuite_ray.state.model import DEFAULT_CONFIG

    tok = RegexTokenizer()
    samples = [gold_example_to_crf_tokens(dict(e), tokenizer=tok)
               for e in gold_training_examples()]
    ext = CRFExtractor(DEFAULT_CONFIG)
    X = [ext.example_to_features(s) for s in samples]
    y = [sentence_to_tags(s) for s in samples]
    return encode_gold(X, y)


def random_weights(crf, seed, w_scale=0.3, t_scale=0.3):
    rng = np.random.RandomState(seed)
    F, L = len(crf.vocab), len(crf.labels)
    return rng.normal(scale=w_scale, size=(F, L)), rng.normal(scale=t_scale, size=(L, L))


def test_batched_kernel_matches_oracle_on_default_gold(default_gold):
    crf, encs = default_gold
    W, T = random_weights(crf, 0)
    assert_matches_oracle(crf._nll_grad(encs, W, T), oracle_nll_grad(encs, W, T))


def test_batched_kernel_length_one_sentences():
    X = [[{"a": True}], [{"b": True, "w": 0.5}], [{"a": True, "c": "x"}]]
    y = [["O"], ["E"], ["F"]]
    crf, encs = encode_gold(X, y)
    W, T = random_weights(crf, 1, t_scale=1.0)
    assert_matches_oracle(crf._nll_grad(encs, W, T), oracle_nll_grad(encs, W, T))


def test_batched_kernel_tokens_without_known_features():
    crf, encs = encode_gold(
        [[{"a": True}, {"b": True}], [{"c": "x"}, {"a": True}, {"b": True}]],
        [["O", "E"], ["E", "O", "E"]],
    )
    lab = {lab: i for i, lab in enumerate(crf.labels)}
    dev = []
    # unknown features (grow_vocab=False drops them): empty tokens in the
    # middle, at both ends, and a sentence with no known feature at all
    for sent, tags in (
        ([{"zz": True}, {"a": True}, {"zz": 1.0}, {"b": True}, {"q": "r"}],
         ["O", "E", "E", "O", "O"]),
        ([{"zz": True}, {"yy": True}], ["E", "O"]),
    ):
        enc = crf._encode(sent, grow_vocab=False)
        enc.labels = np.asarray([lab[t] for t in tags], dtype=np.int64)
        dev.append(enc)
    assert any(ids.size == 0 for enc in dev for ids in enc.ids)
    W, T = random_weights(crf, 2)
    assert_matches_oracle(crf._nll_grad(dev, W, T), oracle_nll_grad(dev, W, T))
    assert_matches_oracle(crf._nll_grad(dev[1:], W, T),
                          oracle_nll_grad(dev[1:], W, T))
    both = encs + dev
    assert_matches_oracle(crf._nll_grad(both, W, T), oracle_nll_grad(both, W, T))


def test_batched_kernel_non_unit_feature_weights():
    X = [
        [{"a": 2.5, "b": -0.75}, {"w": [0.5, 0.0, -3.0]}, {"a": 0.1}],
        [{"b": 4.0}, {"a": 1.5, "c": "x"}],
        [{"w": [1.0, 2.0, 3.0], "c": "y"}, {"b": -2.0}, {"a": 3.0}, {"c": "x"}],
    ]
    y = [["O", "E", "O"], ["E", "O"], ["E", "E", "O", "O"]]
    crf, encs = encode_gold(X, y)
    assert any(np.any(w != 1.0) for enc in encs for w in enc.wts)
    W, T = random_weights(crf, 3, w_scale=1.0, t_scale=1.0)
    assert_matches_oracle(crf._nll_grad(encs, W, T), oracle_nll_grad(encs, W, T))


def test_batched_kernel_large_weights_stay_finite(default_gold):
    """|W| ~ 50 and transitions near +100: the forward/backward sums past a
    sentence's end leave the exp() range, so padded positions must be
    masked before exp, never multiplied by 0 after it (inf * 0 = nan)."""
    crf, encs = default_gold
    W, T = random_weights(crf, 4, w_scale=50.0, t_scale=5.0)
    T += 100.0
    assert_matches_oracle(crf._nll_grad(encs, W, T), oracle_nll_grad(encs, W, T))


def test_batched_kernel_wide_transition_range(default_gold):
    """Transitions spread wider than ``EXP_RANGE`` (a steep line-search
    probe) take the exact log-space path."""
    crf, encs = default_gold
    W, T = random_weights(crf, 5, w_scale=2.0, t_scale=EXP_RANGE)
    assert float(T.max() - T.min()) > EXP_RANGE
    sub = encs[:40]
    assert_matches_oracle(crf._nll_grad(sub, W, T), oracle_nll_grad(sub, W, T))


def test_batched_kernel_sub_batches_match_one_batch(default_gold, monkeypatch):
    from spacy_crfsuite_ray.core import crf as crf_module

    crf, encs = default_gold
    L = len(crf.labels)
    W, T = random_weights(crf, 6)
    whole = TrainBatch(encs, L)
    monkeypatch.setattr(crf_module, "SUB_BATCH", 7)
    split = TrainBatch(encs, L)
    assert len(split.parts) > 1 and len(whole.parts) == 1
    assert_matches_oracle(split.nll_grad(W, T), whole.nll_grad(W, T))


def test_fit_matches_oracle_fit(restaurant_examples):
    """``fit`` (batched kernel + shared L-BFGS) lands on the weights an
    L-BFGS run over the per-sentence oracle reaches."""
    from spacy_crfsuite_ray.core.extractor import CRFExtractor, gold_example_to_crf_tokens
    from spacy_crfsuite_ray.core.features import sentence_to_tags
    from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer

    tok = RegexTokenizer()
    samples = [gold_example_to_crf_tokens(dict(e), tokenizer=tok)
               for e in restaurant_examples]
    ext = CRFExtractor()
    X = [ext.example_to_features(s) for s in samples]
    y = [sentence_to_tags(s) for s in samples]
    c1, c2 = 0.003, 0.03
    fitted = LinearChainCRF().fit(X, y, c1=c1, c2=c2, max_iterations=60)

    crf, encs = encode_gold(X, y)
    F, L = len(crf.vocab), len(crf.labels)
    theta = lbfgs(
        lambda th: penalized(oracle_nll_grad(encs, *unpack(th, F, L)), th, c1, c2),
        np.zeros(F * L + L * L), 60, 1e-5)
    W, T = unpack(theta, F, L)
    assert fitted.vocab == crf.vocab and fitted.labels == crf.labels
    assert np.abs(fitted.W - W).max() < 1e-6
    assert np.abs(fitted.T - T).max() < 1e-6


def test_default_model_training_is_byte_identical(tmp_path):
    from spacy_crfsuite_ray.sources.pages import gold_training_examples
    from spacy_crfsuite_ray.state.model import train_extractor

    digests = set()
    for k in range(2):
        path = str(tmp_path / f"m{k}.npz")
        train_extractor(gold_training_examples()).ent_tagger.save(path)
        with open(path, "rb") as f:
            digests.add(hashlib.sha256(f.read()).hexdigest())
    assert len(digests) == 1
