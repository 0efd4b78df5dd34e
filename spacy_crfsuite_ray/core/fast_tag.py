"""Fast batched tagging path — EXACTLY the semantics of the per-sentence
reference path (featurize → forward-backward marginals → BILOU decode,
/root/reference/spacy_crfsuite/crf_extractor.py:148-165), restructured for
throughput:

- per-token-TEXT feature-id cache: in the default config every window feature
  (low/title/prefix/suffix/shape/…) is a pure function of the token text, so
  the (window-offset → vocab-id list) encoding is memoized per distinct text
  (cleared on a miss once it holds ``TOKEN_CACHE_MAX`` entries);
- state scores for a whole batch in 2 numpy calls (fancy-index + reduceat);
- forward-backward vectorized over a PADDED (B, T, L) tensor, length-sorted
  sub-batches to bound padding waste;
- array-based BILOU decode (no per-token {label: prob} dicts).

tests/test_fast_tag.py asserts entity-level equality with the reference-
semantics path on a large fixture corpus. Falls back to the slow path when
the config uses pattern/dense/pos-from-input features (CoNLL pre-tokenized
input carries external POS, which the cache cannot key on).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .bilou import NO_ENTITY_TAG
from .crf import SUB_BATCH, flatten_features, padded_alpha_beta
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
        self.extractor = extractor
        crf = extractor.ent_tagger
        self.crf = crf
        self.features = extractor.component_config["features"]
        self.bilou = extractor.component_config["BILOU_flag"]
        if not config_is_cacheable(self.features):
            raise ValueError("config not cacheable; use the per-sentence path")
        self.W = crf.W
        self.T = crf.T
        self.labels = crf.labels
        self.vocab = crf.vocab
        self.L = len(self.labels)
        half = len(self.features) // 2
        self.half = half
        self.offsets = list(range(-half, half + 1))
        self.bos_ids = self._flag_ids("BOS")
        self.eos_ids = self._flag_ids("EOS")
        self._cache: Dict[str, List[np.ndarray]] = {}
        # confidence groups: for label j, mask of labels k with k[2:] == j[2:]
        # (reference crf_extractor.py:350-357 sum-over-entity semantics)
        suffixes = [lab[2:] for lab in self.labels]
        self.conf_mask = np.array(
            [[1.0 if suffixes[k] == suffixes[j] else 0.0
              for k in range(self.L)] for j in range(self.L)]
        )

    def _flag_ids(self, flag: str) -> List[int]:
        idx = self.vocab.get(flag)
        return [idx] if idx is not None else []

    def _token_window_ids(self, text: str) -> List[List[int]]:
        """For one token text: vocab-id list per window offset (plain Python
        lists — encode concatenates with list.extend, no numpy per token)."""
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        token = CRFToken(text, pos_of(text), "N/A", word_shape(text), {}, [])
        out = []
        for off_idx, off in enumerate(self.offsets):
            prefix = str(off)
            fd: Dict[str, Any] = {}
            for feature in self.features[off_idx]:
                fd[f"{prefix}:{feature}"] = FUNCTION_DICT[feature](token)
            ids = sorted(
                self.vocab[name]
                for name, _w in flatten_features(fd)
                if name in self.vocab
            )
            out.append(ids)
        if len(self._cache) >= TOKEN_CACHE_MAX:
            self._cache.clear()
        self._cache[text] = out
        return out

    def encode_sentence(self, texts: List[str]):
        """Flat per-sentence encoding: (flat_ids int64 array, per-token
        counts) — exactly the ids the generic encoder produces for the
        default config, grouped per token by counts."""
        n = len(texts)
        window = [self._token_window_ids(t) for t in texts]
        flat: List[int] = []
        counts = np.empty(n, dtype=np.int64)
        for i in range(n):
            before = len(flat)
            bos_added = eos_added = False
            for off_idx, off in enumerate(self.offsets):
                j = i + off
                if j < 0:
                    # the generic path sets the single dict key "BOS" no
                    # matter how many window offsets fall out of range —
                    # add the flag id exactly once (same for EOS)
                    if not bos_added:
                        flat.extend(self.bos_ids)
                        bos_added = True
                elif j >= n:
                    if not eos_added:
                        flat.extend(self.eos_ids)
                        eos_added = True
                else:
                    flat.extend(window[j][off_idx])
            counts[i] = len(flat) - before
        return np.asarray(flat, dtype=np.int64), counts

    # -------------------------------------------------------------- numerics

    def _state_scores_batch(self, encoded) -> List[np.ndarray]:
        """All sentences' (T, L) state scores via ONE fancy-index +
        reduceat over the concatenated feature ids.

        ``encoded``: list of (flat_ids, per-token counts) pairs."""
        if not encoded:
            return []
        flat = np.concatenate([ids for ids, _ in encoded])
        counts = np.concatenate([c for _, c in encoded])
        rows = self.W[flat]  # (total_feats, L)
        offsets = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        if (counts == 0).any():
            # reduceat mishandles zero-length segments; rare → plain loop
            S_tok = np.zeros((len(counts), self.L))
            pos = 0
            for i, c in enumerate(counts):
                if c:
                    S_tok[i] = rows[pos:pos + c].sum(axis=0)
                    pos += c
        else:
            S_tok = np.add.reduceat(rows, offsets, axis=0)
        out = []
        pos = 0
        for _, c in encoded:
            n = len(c)
            out.append(S_tok[pos:pos + n])
            pos += n
        return out

    def marginals_batch(self, S_list: List[np.ndarray]) -> List[np.ndarray]:
        """Padded batched forward-backward; returns per-sentence (T, L)
        marginal arrays. Sentences are length-sorted into sub-batches to
        bound padding waste."""
        order = sorted(range(len(S_list)), key=lambda i: S_list[i].shape[0])
        results: List[Optional[np.ndarray]] = [None] * len(S_list)
        for c0 in range(0, len(order), SUB_BATCH):
            idxs = order[c0:c0 + SUB_BATCH]
            results_chunk = self._marginals_padded([S_list[i] for i in idxs])
            for i, m in zip(idxs, results_chunk):
                results[i] = m
        return results  # type: ignore[return-value]

    def _marginals_padded(self, S_list: List[np.ndarray]) -> List[np.ndarray]:
        B = len(S_list)
        lens = np.array([s.shape[0] for s in S_list], dtype=np.int64)
        Tm = int(lens.max())
        L = self.L
        S = np.zeros((B, Tm, L))
        for b, sb in enumerate(S_list):
            S[b, :sb.shape[0]] = sb
        alpha, beta = padded_alpha_beta(S, lens, self.T)

        out = []
        for b in range(B):
            n = int(lens[b])
            a = alpha[b, :n]
            z = a[-1]
            logZ = z.max() + np.log(np.exp(z - z.max()).sum())
            out.append(np.exp(a + beta[b, :n] - logZ))
        return out

    # ---------------------------------------------------------------- decode

    def decode(
        self, text: str, spans: List[Tuple[str, int, int]], marg: np.ndarray
    ) -> List[Dict[str, Any]]:
        """Array-based BILOU decode with the reference's exact confidence and
        repair semantics (warnings are not re-emitted on this hot path)."""
        labels = self.labels
        n = len(spans)
        arg = np.argmax(marg, axis=1)
        conf_all = (marg * self.conf_mask[arg]).sum(axis=1)
        ents = []
        if self.bilou:
            i = 0
            while i < n:
                lab = labels[arg[i]]
                p = lab[:2]
                if p == "U-":
                    ents.append(self._ent(text, spans, i, i, lab[2:],
                                          float(conf_all[i])))
                    i += 1
                elif p == "B-":
                    entity = lab[2:]
                    conf = float(conf_all[i])
                    j = i + 1
                    end = None
                    while j < n:
                        labj = labels[arg[j]]
                        conf = min(conf, float(conf_all[j]))
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
                            "confidence": float(marg[i, arg[i]]),
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
        spans_list = []
        encoded = []
        keep = []
        for si, sent in enumerate(sentences):
            if not sent or not sent.strip():
                continue
            spans = span_tokenize(sent)
            if not spans:
                continue
            spans_list.append(spans)
            encoded.append(self.encode_sentence([t for t, _, _ in spans]))
            keep.append(si)
        if encoded and not getattr(self, "_vocab_checked", False):
            n_tok = sum(len(c) for _, c in encoded)
            n_ids = sum(len(ids) for ids, _ in encoded)
            if n_tok >= 20:  # only a large-enough sample disarms the check
                self._vocab_checked = True
            if n_tok >= 20 and n_ids / n_tok < 2.0:
                import warnings

                warnings.warn(
                    "Almost no features match the model vocabulary "
                    f"({n_ids / n_tok:.1f} ids/token) — the tagging config's "
                    "feature set likely differs from the one the model was "
                    "trained with; predictions will be near-uniform."
                )
        S_list = self._state_scores_batch(encoded)
        marg_list = self.marginals_batch(S_list) if S_list else []
        out: List[List[Dict[str, Any]]] = [[] for _ in sentences]
        for si, spans, marg in zip(keep, spans_list, marg_list):
            out[si] = self.decode(sentences[si], spans, marg)
        return out
