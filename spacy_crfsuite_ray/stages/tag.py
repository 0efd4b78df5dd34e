"""CRF tagging stage — the stateful heart of the pipeline.

Mirrors the reference's per-process model singleton (T1/T2 in SURVEY.md §2.4)
as a callable CLASS, ``CRFTagStage``, cached once per Ray worker process by
``tag_batch``: the CRF weights + tokenizer load once in ``__init__``;
``__call__`` tags one Arrow batch of sentences (tokenize → featurize →
forward-backward marginals → BILOU span decode, reference
crf_extractor.py:148-165 semantics).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import pyarrow as pa

from ..core.tokenizer import RegexTokenizer
from ..state.model import load_extractor

ENTITY_TYPE = pa.struct(
    [
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("value", pa.string()),
        ("entity", pa.string()),
        ("confidence", pa.float64()),
    ]
)


def tag_sentences(
    extractor, tokenizer, sentences: List[str]
) -> List[List[Dict[str, Any]]]:
    """Pure helper shared by the Ray stage and the sequential oracle —
    guarantees Ray output == core output per sentence by construction."""
    out = []
    for sent in sentences:
        if not sent or not sent.strip():
            out.append([])
            continue
        message = {"text": sent}
        tokenizer.tokenize(message)
        out.append(extractor.process(message))
    return out


_WORKER_STAGE_CACHE: dict = {}


def tag_batch(batch: pa.Table, model_path: Optional[str] = None) -> pa.Table:
    """Task-based tagging with a per-WORKER-PROCESS singleton stage (module
    global — survives across tasks in the same Ray worker). For this CRF the
    state is a ~100KB npz, so warm task workers beat spawning an actor
    pool."""
    key = model_path or "__default__"
    stage = _WORKER_STAGE_CACHE.get(key)
    if stage is None:
        stage = CRFTagStage(model_path)
        _WORKER_STAGE_CACHE[key] = stage
    return stage(batch)


class CRFTagStage:
    """Uses the cached/batched fast path (core/fast_tag.py) when the model
    config allows it; falls back to the per-sentence reference-semantics path
    otherwise. Both produce identical entities (tests/test_fast_tag.py)."""

    def __init__(self, model_path: Optional[str] = None,
                 config: Optional[Dict] = None):
        from ..core.fast_tag import FastTagger, config_is_cacheable

        self.extractor = load_extractor(model_path, config)
        self.tokenizer = RegexTokenizer()
        self.fast = (
            FastTagger(self.extractor)
            if config_is_cacheable(self.extractor.component_config["features"])
            else None
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        sentences = batch.column("sent").to_pylist()
        if self.fast is not None:
            entities = self.fast.tag_texts(sentences)
        else:
            entities = tag_sentences(self.extractor, self.tokenizer, sentences)
        return batch.append_column(
            "entities", pa.array(entities, type=pa.list_(ENTITY_TYPE))
        )
