"""CRF tagging — the one entry point the tag stage, the API and the server
share.

``tag_texts`` gets the model from ``state/model.py:load_extractor`` (the
per-process model singleton of SURVEY.md §2.4 T1/T2, reloaded when the model
file changes) and tags with the warm ``FastTagger`` kept on that extractor
when the feature config allows it, or with the per-sentence
``tag_sentences`` otherwise (reference crf_extractor.py:148-165 semantics;
both paths give identical entities, tests/test_fast_tag.py). ``tag_batch``
is the Ray ``map_batches`` UDF over a ``sent`` column: as a module function
it runs in warm task workers, and the model cache makes each worker load the
~100KB npz once, so no actor pool is needed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import pyarrow as pa

from ..core.fast_tag import FastTagger, config_is_cacheable
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


def tag_texts(
    texts: List[str],
    model_path: Optional[str] = None,
    config: Optional[Dict] = None,
) -> List[List[Dict[str, Any]]]:
    """Entities for each text, from the current model at ``model_path``."""
    extractor = load_extractor(model_path, config)
    if not config_is_cacheable(extractor.component_config["features"]):
        return tag_sentences(extractor, RegexTokenizer(), texts)
    # the warm tagger lives ON the cached extractor, so it is dropped with
    # the extractor when the model file changes
    fast = getattr(extractor, "fast_tagger", None)
    if fast is None:
        fast = extractor.fast_tagger = FastTagger(extractor)
    return fast.tag_texts(texts)


def tag_batch(batch: pa.Table, model_path: Optional[str] = None) -> pa.Table:
    """Append the ``entities`` column for the batch's ``sent`` column."""
    entities = tag_texts(batch.column("sent").to_pylist(), model_path)
    return batch.append_column(
        "entities", pa.array(entities, type=pa.list_(ENTITY_TYPE))
    )
