"""Numpy linear-chain CRF: training (L-BFGS), Viterbi, forward-backward marginals.

The reference delegates these numerics to the python-crfsuite C extension via
sklearn_crfsuite (/root/reference/spacy_crfsuite/compat.py:4-208); that library
is unavailable here, so this is a from-scratch implementation of the published
linear-chain CRF algorithms (Lafferty et al. 2001; Nocedal L-BFGS). What must
match the reference is the *decoded spans*, not the weights (SURVEY.md §7.3).

Training is batched: ``fit`` packs the encoded gold sentences once into a
``TrainBatch`` (length-sorted padded sub-batches of flat feature-id/weight
arrays, gold labels and the constant gold transition counts). Each
objective call then runs, per sub-batch, one fancy-index of ``W`` plus a
segment reduce for the state scores, the shared marginals kernel, one
sorted-segment reduce over feature ids for the state gradient and a masked
outer-product sum for the transition gradient. Every reduction runs in a
fixed order, so the fitted weights (and the saved npz) are deterministic.
The optimizer is one L-BFGS loop (``lbfgs``) shared by ``fit`` — whose
best-dev-set selection is its ``on_step`` callback — and the data-parallel
``pipelines.train.fit_distributed``.

The marginals kernel, ``padded_marginals``, is the one forward-backward of
batched training and batched tagging (``fast_tag``): flat per-token state
scores are scattered into a padded (B, Tm, L) tensor, ``padded_alpha_beta``
runs over it, logZ is taken per sentence in one vectorized step, and the
unary marginals are gathered back at the real tokens.

Feature-dict encoding mirrors pycrfsuite's ItemSequence semantics:
- str value        → attribute "key=value", weight 1.0
- bool             → attribute "key", weight 1.0 / 0.0
- int/float        → attribute "key", weight float(value)
- nested dict      → recurse with "key:subkey"
Zero-weight attributes are dropped (mathematically identical).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np


def flatten_features(fd: Dict[str, Any], prefix: str = "") -> List[Tuple[str, float]]:
    out: List[Tuple[str, float]] = []
    for key, value in fd.items():
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            if value:
                out.append((name, 1.0))
        elif isinstance(value, str):
            out.append((f"{name}={value}", 1.0))
        elif isinstance(value, dict):
            out.extend(flatten_features(value, prefix=f"{name}:"))
        elif value is None:
            continue
        elif isinstance(value, (int, float, np.floating, np.integer)):
            v = float(value)
            if v != 0.0:
                out.append((name, v))
        elif isinstance(value, (list, tuple, np.ndarray)):
            for i, v in enumerate(value):
                v = float(v)
                if v != 0.0:
                    out.append((f"{name}:{i}", v))
        else:
            out.append((f"{name}={value}", 1.0))
    return out


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


class EncodedSentence:
    """Sparse per-token features: ids[t] / wts[t] arrays, plus gold label ids."""

    __slots__ = ("ids", "wts", "labels")

    def __init__(self, ids: List[np.ndarray], wts: List[np.ndarray],
                 labels: Optional[np.ndarray] = None):
        self.ids = ids
        self.wts = wts
        self.labels = labels


# Widest transition-weight range for which exp(Tr - max Tr) keeps every
# entry a normal float (e^-500 >> 1e-308): up to it the recursions run as
# scaled exp-space matrix products, beyond it as exact log-space reductions.
EXP_RANGE = 500.0


def _exp_transitions(Tr: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
    """(max Tr, exp(Tr - max Tr)), or (max Tr, None) when the range of
    ``Tr`` is too wide for the exp-space path."""
    t_shift = float(Tr.max())
    if t_shift - float(Tr.min()) > EXP_RANGE:
        return t_shift, None
    return t_shift, np.exp(Tr - t_shift)


def padded_alpha_beta(S: np.ndarray, lens: np.ndarray, Tr: np.ndarray):
    """Forward (alpha) and backward (beta) log-potentials of a padded
    (B, Tm, L) state-score tensor of sentences with lengths ``lens``, under
    transitions ``Tr``. beta is reset to 0 at each sentence end, so every
    real position holds that sentence's own values; padded positions hold
    finite junk that callers must mask."""
    B, Tm, L = S.shape
    t_shift, expT = _exp_transitions(Tr)  # keep exp() in range

    alpha = np.zeros((B, Tm, L))
    alpha[:, 0] = S[:, 0]
    for t in range(1, Tm):
        prev = alpha[:, t - 1]  # (B, L)
        if expT is None:
            lse = _logsumexp(prev[:, :, None] + Tr, axis=1)
        else:
            m = prev.max(axis=1, keepdims=True)
            lse = m + t_shift + np.log(
                np.einsum("bi,ij->bj", np.exp(prev - m), expT)
            )
        alpha[:, t] = S[:, t] + lse

    beta = np.zeros((B, Tm, L))
    # rows finishing at t get beta=0 (enforced by init + reset below)
    for t in range(Tm - 2, -1, -1):
        nxt = S[:, t + 1] + beta[:, t + 1]  # (B, L)
        if expT is None:
            lse = _logsumexp(Tr + nxt[:, None, :], axis=2)
        else:
            m = nxt.max(axis=1, keepdims=True)
            lse = m + t_shift + np.log(
                np.einsum("ij,bj->bi", expT, np.exp(nxt - m))
            )
        beta[:, t] = lse
        ending = lens - 1 == t
        if ending.any():
            beta[ending, t] = 0.0
    return alpha, beta


def padded_marginals(S_tok: np.ndarray, lens: np.ndarray, Tr: np.ndarray):
    """Unary marginals of sentences given back to back as flat (n_tok, L)
    state scores ``S_tok`` with lengths ``lens``: scatter them into a padded
    (B, Tm, L) tensor, run ``padded_alpha_beta``, take each sentence's logZ
    and gather the marginals at the real tokens. Returns (marginals
    (n_tok, L), logZ (B,), S, alpha, beta); training reads the padded
    tensors for its pair marginals. The one kernel of batched training
    (``_SubBatch``) and batched tagging (``fast_tag``)."""
    B, Tm, L = lens.size, int(lens.max()), Tr.shape[0]
    tok_b = np.repeat(np.arange(B), lens)
    tok_pos = tok_b * Tm + np.arange(tok_b.size) - np.repeat(
        np.cumsum(lens) - lens, lens)
    S = np.zeros((B * Tm, L))
    S[tok_pos] = S_tok
    S = S.reshape(B, Tm, L)
    alpha, beta = padded_alpha_beta(S, lens, Tr)
    last = alpha[np.arange(B), lens - 1]
    m = last.max(axis=1)
    logZ = m + np.log(np.exp(last - m[:, None]).sum(axis=1))
    marg = np.exp(alpha.reshape(-1, L)[tok_pos] + beta.reshape(-1, L)[tok_pos]
                  - logZ[tok_b][:, None])
    return marg, logZ, S, alpha, beta


# Sentences per padded sub-batch, in training and in fast_tag's batched
# tagging: bounds the (B, Tm, L) tensors, so memory does not grow with the
# number of sentences.
SUB_BATCH = 512


class _SubBatch:
    """One padded sub-batch of encoded gold sentences, as flat index arrays
    built once per fit: feature ids/weights concatenated in token order,
    gold label ids, the non-empty token segments for the state-score reduce
    and the feature-id-sorted segments for the state-gradient reduce."""

    def __init__(self, encs: List[EncodedSentence]):
        self.lens = np.array([len(e.ids) for e in encs], dtype=np.int64)
        n_tok, Tm = int(self.lens.sum()), int(self.lens.max())
        self.gold = np.concatenate([e.labels for e in encs])
        counts = np.array([ids.size for e in encs for ids in e.ids],
                          dtype=np.int64)
        self.ids = np.concatenate([ids for e in encs for ids in e.ids])
        self.wts = np.concatenate([w for e in encs for w in e.wts])
        # reduceat mishandles zero-length segments (tokens with no known
        # feature), so reduce over the non-empty tokens only: their starts
        # are strictly increasing and each segment runs to the next one
        nz = counts > 0
        self.nz_tok = np.flatnonzero(nz)
        self.nz_starts = (np.cumsum(counts) - counts)[nz]
        order = np.argsort(self.ids, kind="stable")
        sorted_ids = self.ids[order]
        first = np.ones(sorted_ids.size, dtype=bool)
        first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        self.uniq = sorted_ids[first]
        self.uniq_starts = np.flatnonzero(first)
        self.sorted_tok = np.repeat(np.arange(n_tok), counts)[order]
        self.sorted_wts = self.wts[order]
        # pair (t, t + 1) is real iff t + 1 < len
        self.pair_mask = np.arange(1, Tm)[None, :] < self.lens[:, None]

    def accumulate(self, W: np.ndarray, Tr: np.ndarray, gW: np.ndarray,
                   pair: np.ndarray) -> float:
        """Add this sub-batch's expected-minus-gold state counts into ``gW``
        and its expected transition counts into ``pair``; return
        Σ logZ − gold state score."""
        L = Tr.shape[0]
        n_tok = self.gold.size
        S_tok = np.zeros((n_tok, L))
        if self.ids.size:
            rows = W.take(self.ids, axis=0)
            rows *= self.wts[:, None]  # in place: no second (nnz, L) array
            S_tok[self.nz_tok] = np.add.reduceat(rows, self.nz_starts, axis=0)
        diff, logZ, S, alpha, beta = padded_marginals(S_tok, self.lens, Tr)
        tok = np.arange(n_tok)
        nll = float(logZ.sum()) - float(S_tok[tok, self.gold].sum())
        diff[tok, self.gold] -= 1.0
        if self.ids.size:
            rows = diff.take(self.sorted_tok, axis=0)
            rows *= self.sorted_wts[:, None]
            gW[self.uniq] += np.add.reduceat(rows, self.uniq_starts, axis=0)

        if S.shape[1] > 1:
            # pair marginal (b, t, i, j) = exp(alpha[t, i] + Tr[i, j]
            # + S[t + 1, j] + beta[t + 1, j] - logZ). Padded pairs are masked
            # to -inf BEFORE exp: their alpha/beta are not log-probabilities
            # and would overflow (inf * 0 = nan in the sum).
            A = alpha[:, :-1]
            V = S[:, 1:] + beta[:, 1:]
            t_shift, expT = _exp_transitions(Tr)
            if expT is None:  # exact, one (B, L, L) slice per position
                for t in range(A.shape[1]):
                    lp = A[:, t, :, None] + Tr + V[:, t, None, :]
                    lp -= logZ[:, None, None]
                    lp[~self.pair_mask[:, t]] = -np.inf
                    pair += np.exp(lp).sum(axis=0)
            else:  # factored into an outer product: no (B, Tm, L, L) tensor
                mA = A.max(axis=2)
                mV = V.max(axis=2)
                c = np.where(self.pair_mask,
                             mA + mV + t_shift - logZ[:, None], -np.inf)
                U = np.exp(A - mA[..., None]) * np.exp(c)[..., None]
                pair += expT * np.einsum("bti,btj->ij", U,
                                         np.exp(V - mV[..., None]))
        return nll


class TrainBatch:
    """Encoded gold sentences packed once per fit for the batched training
    kernel: length-sorted sub-batches of at most ``SUB_BATCH`` sentences
    (bounded padding and memory), plus the gold transition counts, a
    constant."""

    def __init__(self, encs: List[EncodedSentence], n_labels: int):
        order = sorted(range(len(encs)), key=lambda i: len(encs[i].ids))
        self.parts = [
            _SubBatch([encs[i] for i in order[c:c + SUB_BATCH]])
            for c in range(0, len(order), SUB_BATCH)
        ]
        self.gold_T = np.zeros((n_labels, n_labels))
        for enc in encs:
            np.add.at(self.gold_T, (enc.labels[:-1], enc.labels[1:]), 1.0)

    def nll_grad(self, W: np.ndarray, Tr: np.ndarray):
        """(nll, gW, gT): one padded forward-backward per sub-batch."""
        gW = np.zeros_like(W)
        pair = np.zeros_like(Tr)
        nll = -float((self.gold_T * Tr).sum())
        for part in self.parts:
            nll += part.accumulate(W, Tr, gW, pair)
        return nll, gW, pair - self.gold_T


def unpack(theta: np.ndarray, F: int, L: int):
    """Flat parameter vector → (W (F, L), T (L, L)) views."""
    return theta[:F * L].reshape(F, L), theta[F * L:].reshape(L, L)


def penalized(nll_grad, theta: np.ndarray, c1: float, c2: float):
    """crfsuite's objective over the flat parameters: NLL + c2·||θ||² + c1·|θ|₁
    (the L1 term through its sign pseudo-gradient). Returns (loss, grad)."""
    nll, gW, gT = nll_grad
    loss = nll + c2 * float(theta @ theta) + c1 * float(np.abs(theta).sum())
    grad = np.concatenate([gW.ravel(), gT.ravel()])
    grad += 2.0 * c2 * theta + c1 * np.sign(theta)
    return loss, grad


def lbfgs(
    objective: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    theta0: np.ndarray,
    max_iterations: int,
    tol: float,
    on_step: Optional[Callable[[np.ndarray], None]] = None,
) -> np.ndarray:
    """Minimize ``objective(theta) -> (loss, grad)`` by L-BFGS (Nocedal):
    two-loop recursion over the last 10 curvature pairs, Armijo
    backtracking line search, steepest descent when the direction is not a
    descent direction. Stops after ``max_iterations`` steps, when the line
    search fails, or when the relative loss improvement drops below ``tol``.
    ``on_step`` sees every accepted iterate (a fresh array each step)."""
    theta = theta0
    loss, grad = objective(theta)
    s_hist: List[np.ndarray] = []
    y_hist: List[np.ndarray] = []
    for _ in range(max_iterations):
        # L-BFGS two-loop recursion
        q = grad.copy()
        alphas = []
        for s, yv in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / (yv @ s)
            a = rho * (s @ q)
            alphas.append((a, rho, s, yv))
            q -= a * yv
        if y_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        for a, rho, s, yv in reversed(alphas):
            b = rho * (yv @ q)
            q += (a - b) * s
        direction = -q
        # backtracking Armijo line search
        step = 1.0
        d_dot_g = direction @ grad
        if d_dot_g >= 0:  # safeguard: fall back to steepest descent
            direction = -grad
            d_dot_g = -(grad @ grad)
        new = None
        for _ls in range(30):
            cand = theta + step * direction
            l2, g2 = objective(cand)
            if l2 <= loss + 1e-4 * step * d_dot_g:
                new = (l2, g2, cand)
                break
            step *= 0.5
        if new is None:
            break
        new_loss, new_grad, new_theta = new
        s_vec = new_theta - theta
        y_vec = new_grad - grad
        if (y_vec @ s_vec) > 1e-10:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            if len(s_hist) > 10:
                s_hist.pop(0)
                y_hist.pop(0)
        rel_improve = abs(loss - new_loss) / max(1.0, abs(loss))
        theta, loss, grad = new_theta, new_loss, new_grad
        if on_step is not None:
            on_step(theta)
        if rel_improve < tol:
            break
    return theta


class LinearChainCRF:
    """Linear-chain CRF over dict-features with dense transition matrix
    (equivalent to crfsuite ``all_possible_transitions=True``)."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self.vocab: Dict[str, int] = {}
        self.W: Optional[np.ndarray] = None  # (n_features, n_labels) state weights
        self.T: Optional[np.ndarray] = None  # (n_labels, n_labels) transition weights

    # ------------------------------------------------------------------ encoding

    def _encode(self, sent_features: Sequence[Dict[str, Any]],
                grow_vocab: bool) -> EncodedSentence:
        ids, wts = [], []
        for fd in sent_features:
            pairs = flatten_features(fd)
            row_ids, row_wts = [], []
            for name, w in pairs:
                idx = self.vocab.get(name)
                if idx is None:
                    if not grow_vocab:
                        continue
                    idx = len(self.vocab)
                    self.vocab[name] = idx
                row_ids.append(idx)
                row_wts.append(w)
            ids.append(np.asarray(row_ids, dtype=np.int64))
            wts.append(np.asarray(row_wts, dtype=np.float64))
        return EncodedSentence(ids, wts)

    def _state_scores(self, enc: EncodedSentence) -> np.ndarray:
        T = len(enc.ids)
        L = len(self.labels)
        S = np.zeros((T, L))
        W = self.W
        for t in range(T):
            if enc.ids[t].size:
                S[t] = enc.wts[t] @ W[enc.ids[t]]
        return S

    # ------------------------------------------------------------------ inference

    def _forward_backward(self, S: np.ndarray):
        """Returns (log_alpha, log_beta, log_Z) for state scores S (T,L)."""
        T, L = S.shape
        log_alpha = np.zeros((T, L))
        log_beta = np.zeros((T, L))
        log_alpha[0] = S[0]
        Tr = self.T
        for t in range(1, T):
            log_alpha[t] = S[t] + _logsumexp(log_alpha[t - 1][:, None] + Tr, axis=0)
        for t in range(T - 2, -1, -1):
            log_beta[t] = _logsumexp(Tr + (S[t + 1] + log_beta[t + 1])[None, :], axis=1)
        log_Z = _logsumexp(log_alpha[-1], axis=0)
        return log_alpha, log_beta, log_Z

    def predict_marginals_single(
        self, sent_features: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, float]]:
        """Per-token marginal distribution over labels (crfsuite
        ``predict_marginals_single`` equivalent; feeds the reference's
        marginal-argmax decode, crf_extractor.py:164)."""
        if not sent_features:
            return []
        enc = self._encode(sent_features, grow_vocab=False)
        S = self._state_scores(enc)
        log_alpha, log_beta, log_Z = self._forward_backward(S)
        marg = np.exp(log_alpha + log_beta - log_Z)
        return [
            {lab: float(marg[t, j]) for j, lab in enumerate(self.labels)}
            for t in range(S.shape[0])
        ]

    def predict_single(self, sent_features: Sequence[Dict[str, Any]]) -> List[str]:
        """Viterbi decode (crfsuite ``predict_single`` equivalent)."""
        if not sent_features:
            return []
        enc = self._encode(sent_features, grow_vocab=False)
        S = self._state_scores(enc)
        T_len, L = S.shape
        delta = S[0].copy()
        back = np.zeros((T_len, L), dtype=np.int64)
        for t in range(1, T_len):
            cand = delta[:, None] + self.T
            back[t] = np.argmax(cand, axis=0)
            delta = S[t] + np.max(cand, axis=0)
        path = [int(np.argmax(delta))]
        for t in range(T_len - 1, 0, -1):
            path.append(int(back[t, path[-1]]))
        path.reverse()
        return [self.labels[j] for j in path]

    def predict(self, X: Sequence[Sequence[Dict[str, Any]]]) -> List[List[str]]:
        return [self.predict_single(sent) for sent in X]

    @property
    def classes_(self) -> List[str]:
        return list(self.labels)

    # ------------------------------------------------------------------ training

    @staticmethod
    def _nll_grad(encs: Union[List[EncodedSentence], "TrainBatch"],
                  W: np.ndarray, T: np.ndarray):
        """Negative log-likelihood and gradients over encoded gold sentences
        (a list is packed into a ``TrainBatch`` on the fly; ``fit`` packs
        once and passes the batch)."""
        if not isinstance(encs, TrainBatch):
            encs = TrainBatch(encs, T.shape[0])
        return encs.nll_grad(W, T)

    def _encode_gold(self, X: Sequence[Sequence[Dict[str, Any]]],
                     y: Sequence[Sequence[str]]) -> List[EncodedSentence]:
        """Build the label and feature vocabularies (first-seen order, so
        deterministic) and encode the non-empty training sentences."""
        self.labels = []
        seen = set()
        for tags in y:
            for tag in tags:
                if tag not in seen:
                    seen.add(tag)
                    self.labels.append(tag)
        lab_idx = {lab: i for i, lab in enumerate(self.labels)}
        self.vocab = {}
        encs: List[EncodedSentence] = []
        for sent, tags in zip(X, y):
            if not sent:
                continue
            enc = self._encode(sent, grow_vocab=True)
            enc.labels = np.asarray([lab_idx[t] for t in tags], dtype=np.int64)
            encs.append(enc)
        return encs

    def fit(
        self,
        X: Sequence[Sequence[Dict[str, Any]]],
        y: Sequence[Sequence[str]],
        c1: float = 0.1,
        c2: float = 0.1,
        max_iterations: int = 100,
        tol: float = 1e-5,
        X_dev=None,
        y_dev=None,
    ) -> "LinearChainCRF":
        encs = self._encode_gold(X, y)
        lab_idx = {lab: i for i, lab in enumerate(self.labels)}
        F, L = len(self.vocab), len(self.labels)
        batch = TrainBatch(encs, L)

        def objective(theta):
            return penalized(self._nll_grad(batch, *unpack(theta, F, L)),
                             theta, c1, c2)

        # optional dev set: track held-out NLL each iteration and keep the
        # best-dev weights at the end (crfsuite-style holdout monitoring
        # plus selection)
        dev_encs: List[EncodedSentence] = []
        if X_dev and y_dev:
            for sent, tags in zip(X_dev, y_dev):
                if not sent or any(t not in lab_idx for t in tags):
                    continue  # unseen label → sentence can't be scored
                enc = self._encode(sent, grow_vocab=False)
                enc.labels = np.asarray([lab_idx[t] for t in tags],
                                        dtype=np.int64)
                dev_encs.append(enc)
        theta0 = np.zeros(F * L + L * L)
        if not dev_encs:
            theta = lbfgs(objective, theta0, max_iterations, tol)
        else:
            dev_batch = TrainBatch(dev_encs, L)
            best = [np.inf, theta0]  # (dev NLL, weights)

            def keep_best(theta):
                d = self._nll_grad(dev_batch, *unpack(theta, F, L))[0]
                if d < best[0]:
                    best[:] = [d, theta]

            keep_best(theta0)
            lbfgs(objective, theta0, max_iterations, tol, on_step=keep_best)
            theta = best[1]
        self.W, self.T = unpack(theta, F, L)
        return self

    # ------------------------------------------------------------------ artifacts

    def state_dict(self) -> Dict[str, Any]:
        return {
            "labels": self.labels,
            "vocab": self.vocab,
            "W": self.W,
            "T": self.T,
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            W=self.W,
            T=self.T,
            labels=json.dumps(self.labels),
            vocab=json.dumps(self.vocab),
        )

    @classmethod
    def load(cls, path: str) -> "LinearChainCRF":
        data = np.load(path, allow_pickle=False)
        model = cls()
        model.W = data["W"]
        model.T = data["T"]
        model.labels = json.loads(str(data["labels"]))
        model.vocab = json.loads(str(data["vocab"]))
        return model
