"""Default KG tagger model artifact.

Trained once on the driver over the deterministic synthetic gold set (same
vocabularies/templates as the pages fixture) and saved as an npz. Training is
deterministic, so the artifact is content-stable across runs, and
``model_digest`` names it in phase-1 manifests.

``load_extractor`` is the package's one model cache — the per-process model
singleton of the reference (``spacy_crfsuite/serve.py:38-60``). Every Ray
worker, the API and the server reach the model through it (via
``stages/tag.py:tag_texts``), so each process loads a model file once and
reuses it for every later task or request. An entry is keyed on the model
file as it is NOW: (absolute path, config) plus the file's identity
(``st_mtime_ns``, ``st_size``, ``st_ino`` from one ``os.stat``). A file
rewritten or ``os.replace``d in place therefore reloads on the next call, and
the reload replaces the entry, so a long-lived process holds one model per
(path, config), never one per rewrite. (A same-size rewrite through the same
inode within the filesystem's timestamp granularity is invisible to a stat;
model writers here use ``os.replace``, which always changes the inode.)
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

from ..core.crf import LinearChainCRF
from ..core.extractor import CRFExtractor, gold_example_to_crf_tokens
from ..core.tokenizer import RegexTokenizer

_LOCK = threading.Lock()
# (abspath, config key) -> (file identity, extractor)
_CACHE: Dict[Tuple[str, str], Tuple[Tuple[int, int, int], CRFExtractor]] = {}

DEFAULT_CONFIG = {"c1": 0.003, "c2": 0.03, "max_iter": 150}


def artifact_dir() -> str:
    d = os.environ.get(
        "SCR_RAY_ARTIFACTS", os.path.join(tempfile.gettempdir(), "scr_ray_artifacts")
    )
    os.makedirs(d, exist_ok=True)
    return d


def default_model_path() -> str:
    return os.path.join(artifact_dir(), "kg_crf_v1.npz")


def train_extractor(examples: List[Dict], config: Optional[Dict] = None) -> CRFExtractor:
    tok = RegexTokenizer()
    samples = [gold_example_to_crf_tokens(dict(e), tokenizer=tok) for e in examples]
    ext = CRFExtractor(config or DEFAULT_CONFIG)
    ext.train(samples)
    return ext


def ensure_default_model(path: Optional[str] = None) -> str:
    """Train + save the default KG model if missing; returns the path.
    Guarded against concurrent PROCESSES (fcntl) as well as threads."""
    import fcntl

    path = path or default_model_path()
    with _LOCK:
        if os.path.exists(path):
            return path
        with open(path + ".lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not os.path.exists(path):  # re-check under the lock
                from ..sources.pages import gold_training_examples

                ext = train_extractor(gold_training_examples())
                tmp = f"{path}.tmp.{os.getpid()}.npz"
                ext.ent_tagger.save(tmp)
                os.replace(tmp, path)
    return path


def model_digest(path: str) -> str:
    """First 16 hex chars of the model file's sha256: names the model in
    manifests, so output tagged by another model never counts as current."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def _config_key(config: Optional[Dict]) -> str:
    import json

    return json.dumps(config, sort_keys=True, default=str) if config else ""


def load_extractor(path: Optional[str] = None,
                   config: Optional[Dict] = None) -> CRFExtractor:
    """Load a CRFExtractor from an npz artifact (process-level cache, keyed
    by path AND config so different configs never share state, and
    reloaded when the file's identity changes — see the module docstring).
    The stat precedes the load, so a file replaced in between reloads on the
    next call rather than being served stale."""
    path = path or ensure_default_model()
    st = os.stat(path)
    ident = (st.st_mtime_ns, st.st_size, st.st_ino)
    key = (os.path.abspath(path), _config_key(config))
    with _LOCK:
        hit = _CACHE.get(key)
        if hit is None or hit[0] != ident:
            hit = (ident, CRFExtractor(config, ent_tagger=LinearChainCRF.load(path)))
            _CACHE[key] = hit
        return hit[1]


def convert_reference_weights(
    state_features: Dict,
    transition_features: Dict,
    classes: List[str],
    out_path: str,
) -> str:
    """Convert a reference (sklearn_crfsuite.CRF) model's learned weights to
    this engine's npz artifact.

    The reference persists models as joblib pickles of sklearn_crfsuite.CRF
    (/root/reference/spacy_crfsuite/crf_extractor.py:96-117); unpickling them
    requires the sklearn_crfsuite classes, which do not exist in this
    environment. On a machine that CAN load the pickle, extract the three
    public attributes and feed them here::

        crf = joblib.load("model.bz2").ent_tagger  # sklearn_crfsuite.CRF
        convert_reference_weights(
            crf.state_features_,       # {(attr, label): weight}
            crf.transition_features_,  # {(label_from, label_to): weight}
            list(crf.classes_),
            "model.npz",
        )

    Attribute strings are python-crfsuite ItemSequence names ("key=value" /
    weighted numeric keys) — the exact vocabulary this engine's encoder
    emits (core/crf.py flatten_features), so converted weights score
    identically under our Viterbi/forward-backward inference.
    """
    import numpy as np

    labels = list(classes)
    lab_idx = {lab: i for i, lab in enumerate(labels)}
    vocab: Dict[str, int] = {}
    for attr, _lab in state_features:
        if attr not in vocab:
            vocab[attr] = len(vocab)
    W = np.zeros((len(vocab), len(labels)))
    for (attr, lab), w in state_features.items():
        W[vocab[attr], lab_idx[lab]] = float(w)
    T = np.zeros((len(labels), len(labels)))
    for (a, b), w in transition_features.items():
        T[lab_idx[a], lab_idx[b]] = float(w)
    model = LinearChainCRF()
    model.labels = labels
    model.vocab = vocab
    model.W = W
    model.T = T
    model.save(out_path)
    return out_path
