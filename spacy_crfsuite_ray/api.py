"""Batch inference API — parity with the reference's HTTP surface
(/root/reference/spacy_crfsuite/serve.py:63-93) without the web framework
(no network in this environment): ``parse_texts`` returns the same
``{"text", "entities"}`` response shape the /parse endpoint produces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .stages.tag import tag_texts


def parse_texts(
    texts: List[str],
    model_path: Optional[str] = None,
    config: Optional[Dict] = None,
) -> List[Dict[str, Any]]:
    """Tag a batch of raw texts with ``stages/tag.py:tag_texts``."""
    ents = tag_texts(texts, model_path, config)
    return [{"text": t, "entities": e} for t, e in zip(texts, ents)]


def parse_document(
    text: str,
    model_path: Optional[str] = None,
    config: Optional[Dict] = None,
) -> Dict[str, Any]:
    """Document-level equivalent of the reference's spaCy component
    (crf_extractor.py:571-606 CRFEntityExtractor): split into sentences, tag
    each, and return entities with DOCUMENT-absolute char offsets."""
    from .core.sentences import split_sentences

    sents = split_sentences(text)
    parsed = parse_texts([s for _, s in sents], model_path, config)
    entities: List[Dict[str, Any]] = []
    for (base, sent), row in zip(sents, parsed):
        for e in row["entities"]:
            entities.append({**e, "start": e["start"] + base,
                             "end": e["end"] + base})
    return {"text": text, "entities": entities}
