"""Fast batched tagging path — EXACTLY the semantics of the per-sentence
reference path (featurize → forward-backward marginals → BILOU decode,
/root/reference/spacy_crfsuite/crf_extractor.py:148-165), restructured for
throughput:

- per-token-TEXT score-row cache: in the default config every window feature
  (low/title/prefix/suffix/shape/…) is a pure function of the token text, so
  for each distinct text ``FastTagger._cache`` keeps one state-score row per
  window offset (``W[ids].sum(0)``, an (n_offsets, L) array) and the
  matched-id count per offset (cleared on a miss once it holds
  ``TOKEN_CACHE_MAX`` entries). No feature-id list outlives the miss that
  built it;
- state scores for a whole batch: the cached rows of the batch's distinct
  token texts, gathered through each token's text number in one shifted,
  sentence-edge-masked add per window offset, and the BOS/EOS rows
  added once wherever any offset falls outside the sentence;
- marginals from ``crf.padded_marginals``, the forward-backward kernel that
  training also runs, over length-sorted sub-batches of ``SUB_BATCH``
  sentences;
- argmax and confidence once for the whole batch, then an array-based BILOU
  decode per sentence (no per-token {label: prob} dicts).

Every step is per token or per sentence, so a sentence's tags do not depend
on the batch it is tagged in. tests/test_fast_tag.py asserts entity-level
equality with the reference-semantics path on a large fixture corpus. Falls
back to the slow path when the config uses dense features (they need
per-token vectors, which the cache cannot key on).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from .bilou import NO_ENTITY_TAG
from .crf import SUB_BATCH, flatten_features, padded_marginals
from .extractor import CRFExtractor
from .features import FUNCTION_DICT, CRFToken
from .tokenizer import pos_of, span_tokenize, word_shape


# Entries of FastTagger._cache (one per distinct token text) at which a miss
# clears it: a long-lived server sees an unbounded stream of novel tokens.
# One process tagging an 8,000-page fixture reaches ~7,600 entries, so the
# cap stays idle on the bulk path.
TOKEN_CACHE_MAX = 65_536


def config_is_cacheable(features: List[List[str]]) -> bool:
    """True when every configured feature is a pure function of token text.
    ``pattern`` is fine for raw-text input (always {} — the stage tags plain
    sentences, never pre-tokenized input carrying RegexFeaturizer patterns);
    ``dense_features`` needs per-token vectors, so it blocks the fast path."""
    for flist in features:
        if "dense_features" in flist:
            return False
    return True


class FastTagger:
    def __init__(self, extractor: CRFExtractor):
        self.features = extractor.component_config["features"]
        self.bilou = extractor.component_config["BILOU_flag"]
        if not config_is_cacheable(self.features):
            raise ValueError("config not cacheable; use the per-sentence path")
        crf = extractor.ent_tagger
        self.W, self.T = crf.W, crf.T
        self.labels, self.vocab = crf.labels, crf.vocab
        self.L = len(self.labels)
        self.half = len(self.features) // 2
        self.offsets = list(range(-self.half, self.half + 1))
        self._cache: Dict[str, Tuple[np.ndarray, Tuple[int, ...]]] = {}
        self._vocab_checked = False
        # confidence groups: for label j, mask of labels k with k[2:] == j[2:]
        # (reference crf_extractor.py:350-357 sum-over-entity semantics)
        suffixes = [lab[2:] for lab in self.labels]
        self.conf_mask = np.array(
            [[1.0 if suffixes[k] == suffixes[j] else 0.0
              for k in range(self.L)] for j in range(self.L)]
        )

    def _token_scores(self, text: str) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """For one token text: its state-score row per window offset, an
        (n_offsets, L) array, and the matched vocab-id count per offset."""
        token = CRFToken(text, pos_of(text), "N/A", word_shape(text), {}, [])
        rows = np.zeros((len(self.offsets), self.L))
        counts = []
        for k, off in enumerate(self.offsets):
            fd = {f"{off}:{feature}": FUNCTION_DICT[feature](token)
                  for feature in self.features[k]}
            ids = [self.vocab[name] for name, _w in flatten_features(fd)
                   if name in self.vocab]
            rows[k] = self.W[ids].sum(axis=0)
            counts.append(len(ids))
        if len(self._cache) >= TOKEN_CACHE_MAX:
            self._cache.clear()
        entry = self._cache[text] = (rows, tuple(counts))
        return entry

    def _state_scores(self, tokens: List[str], lens: np.ndarray) -> np.ndarray:
        """(n_tok, L) state scores of sentences given back to back as token
        texts with lengths ``lens``: the same sums the generic encoder's
        feature ids give, added per window offset."""
        # number the call's distinct texts once: the rows copied are one per
        # distinct text, not one per token (a whole block has ~66 tokens
        # per distinct text)
        uid_of: Dict[str, int] = {}
        uid = np.fromiter((uid_of.setdefault(t, len(uid_of)) for t in tokens),
                          dtype=np.intp, count=len(tokens))
        get = self._cache.get
        entries = [get(t) or self._token_scores(t) for t in uid_of]
        table = np.array([r for r, _ in entries])  # (n_distinct, n_offsets, L)
        n_tok = len(tokens)
        pos = np.arange(n_tok) - np.repeat(np.cumsum(lens) - lens, lens)
        room = np.repeat(lens, lens) - pos  # tokens from here to the end
        counts = None if self._vocab_checked else np.array(
            [c for _, c in entries])
        n_ids = 0
        S = np.zeros((n_tok, self.L))
        for k, off in enumerate(self.offsets):
            idx = np.flatnonzero((pos >= -off) & (room > off))
            src = uid[idx + off]
            S[idx] += table[src, k]
            if counts is not None:
                n_ids += int(counts[src, k].sum())
        # the generic path sets the single dict key "BOS" no matter how many
        # window offsets fall before the sentence: add its row exactly once
        # (same for "EOS" after it)
        for flag, edge in (("BOS", pos < self.half),
                           ("EOS", room <= self.half)):
            fid = self.vocab.get(flag)
            if fid is not None:
                S[edge] += self.W[fid]
                n_ids += int(edge.sum())
        if counts is not None:
            self._check_vocab(n_ids, n_tok)
        return S

    def _check_vocab(self, n_ids: int, n_tok: int) -> None:
        if n_tok < 20:  # only a large-enough sample disarms the check
            return
        self._vocab_checked = True
        if n_ids / n_tok < 2.0:
            import warnings

            warnings.warn(
                "Almost no features match the model vocabulary "
                f"({n_ids / n_tok:.1f} ids/token) — the tagging config's "
                "feature set likely differs from the one the model was "
                "trained with; predictions will be near-uniform."
            )

    # ---------------------------------------------------------------- decode

    def decode(
        self, text: str, spans: List[Tuple[str, int, int]], arg: List[int],
        conf_all: List[float],
    ) -> List[Dict[str, Any]]:
        """BILOU decode of one sentence from its tokens' argmax label ids and
        confidences, with the reference's exact confidence and repair
        semantics (warnings are not re-emitted on this hot path)."""
        labels = self.labels
        n = len(spans)
        ents = []
        if self.bilou:
            i = 0
            while i < n:
                lab = labels[arg[i]]
                p = lab[:2]
                if p == "U-":
                    ents.append(self._ent(text, spans, i, i, lab[2:],
                                          conf_all[i]))
                    i += 1
                elif p == "B-":
                    entity = lab[2:]
                    conf = conf_all[i]
                    j = i + 1
                    end = None
                    while j < n:
                        labj = labels[arg[j]]
                        conf = min(conf, conf_all[j])
                        if labj.startswith("L-"):
                            end = j
                            break
                        if labj.startswith("I-"):
                            j += 1
                            continue
                        end = j - 1  # unclosed B-: back up (repair #2)
                        break
                    if end is None:  # ran off the end while in I-: the
                        # reference probes idx==n, gets ("", 0.0), takes the
                        # min → confidence collapses to 0.0, then backs up
                        end = j - 1
                        conf = 0.0
                    ents.append(self._ent(text, spans, i, end, entity, conf))
                    i = end + 1
                else:
                    i += 1
        else:
            for i in range(n):
                lab = labels[arg[i]]
                if lab != NO_ENTITY_TAG:
                    ents.append(
                        {
                            "start": spans[i][1],
                            "end": spans[i][2],
                            "value": spans[i][0],
                            "entity": lab,
                            "confidence": conf_all[i],
                        }
                    )
        return ents

    @staticmethod
    def _ent(text, spans, start, end, entity, confidence):
        value = spans[start][0]
        for k in range(start + 1, end + 1):
            value += text[spans[k - 1][2]:spans[k][1]] + spans[k][0]
        return {
            "start": spans[start][1],
            "end": spans[end][2],
            "value": value,
            "entity": entity,
            "confidence": confidence,
        }

    # ------------------------------------------------------------------ API

    def tag_texts(self, sentences: List[str]) -> List[List[Dict[str, Any]]]:
        """Batch equivalent of [extractor.process({'text': s}) for s]."""
        out: List[List[Dict[str, Any]]] = [[] for _ in sentences]
        keep = [(si, spans) for si, spans in enumerate(
            span_tokenize(s) if s else [] for s in sentences) if spans]
        if not keep:
            return out
        lens = np.array([len(spans) for _, spans in keep], dtype=np.int64)
        S_tok = self._state_scores(
            [t for _, spans in keep for t, _, _ in spans], lens)
        # length-sorted sub-batches bound the padding; ``perm`` lists the
        # tokens sentence by sentence in that order
        order = np.argsort(lens, kind="stable")
        starts = np.cumsum(lens) - lens
        sorted_lens = lens[order]
        bounds = np.concatenate(([0], np.cumsum(sorted_lens)))
        perm = np.arange(bounds[-1]) + np.repeat(starts[order] - bounds[:-1],
                                                 sorted_lens)
        marg = np.empty_like(S_tok)
        for c in range(0, len(order), SUB_BATCH):
            tok = perm[bounds[c]:bounds[min(c + SUB_BATCH, len(order))]]
            marg[tok] = padded_marginals(
                S_tok[tok], sorted_lens[c:c + SUB_BATCH], self.T)[0]
        arg = marg.argmax(axis=1)
        if self.bilou:  # sum over the label's entity group
            conf = (marg * self.conf_mask[arg]).sum(axis=1)
        else:
            conf = marg.max(axis=1)
        arg, conf = arg.tolist(), conf.tolist()
        for (si, spans), t0, n in zip(keep, starts.tolist(), lens.tolist()):
            out[si] = self.decode(sentences[si], spans, arg[t0:t0 + n],
                                  conf[t0:t0 + n])
        return out
