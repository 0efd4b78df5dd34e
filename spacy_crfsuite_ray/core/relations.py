"""Dependency-pattern relation extraction: tagged sentence → (subj, pred, obj).

The reference has no relation stage; the north_star adds "dependency-pattern
relation extraction to emit (subj, pred, obj) triples" around the CRF mention
detector. Patterns are deterministic regexes over the text BETWEEN two entity
mentions in the same sentence (no parser is available in this environment), a
published-in-the-open-IE-literature surface-pattern approach (ReVerb-style).

A triple fires only for ADJACENT entity pairs (no third entity in between) and
an inter-text of at most ``MAX_GAP_CHARS`` chars — keeps precision high and
work bounded per row. ``extract_relations`` is the per-sentence reference
(the sequential oracle calls it); ``stages/relations.py`` derives the same
triples for a whole batch from Arrow arrays.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

# (compiled_pattern, predicate), tried in order: the first that matches wins,
# so a longer phrase precedes any pattern it contains ("was founded by" before
# "founded"). The left entity of the pair is always the subject.
_PATTERNS = [
    (re.compile(r",?\s*(?:the\s+)?president of\b", re.I), "president_of"),
    (re.compile(r",?\s*(?:the\s+)?ceo of\b", re.I), "ceo_of"),
    (re.compile(r",?\s*(?:the\s+)?founder of\b", re.I), "founder_of"),
    (re.compile(r",?\s*(?:the\s+)?director of\b", re.I), "director_of"),
    (re.compile(r"\bwas born in\b", re.I), "born_in"),
    (re.compile(r"\bwas founded by\b", re.I), "founded_by"),
    (re.compile(r"\bfounded\b", re.I), "founded"),
    (re.compile(r"\bacquired\b", re.I), "acquired"),
    (re.compile(r"\bworks? (?:at|for)\b", re.I), "works_at"),
    (re.compile(r"\b(?:is )?(?:located|headquartered|based) in\b", re.I),
     "located_in"),
    (re.compile(r"\bis the capital of\b", re.I), "capital_of"),
    (re.compile(r"\bmarried\b", re.I), "married"),
    (re.compile(r"\bvisited\b", re.I), "visited"),
    (re.compile(r"\bmoved to\b", re.I), "moved_to"),
    (re.compile(r"\bpartnered with\b", re.I), "partnered_with"),
]

MAX_GAP_CHARS = 60


def gap_predicate(gap: str) -> Optional[str]:
    """The predicate of the first pattern found in ``gap``, else None."""
    for pattern, pred in _PATTERNS:
        if pattern.search(gap):
            return pred
    return None


def extract_relations(
    text: str, entities: List[Dict[str, Any]], url: str = ""
) -> List[Dict[str, Any]]:
    """entities: decoded entity dicts {start,end,value,entity,confidence},
    char offsets into ``text``. Returns triple dicts."""
    ents = sorted(entities, key=lambda e: (e["start"], e["end"]))
    triples = []
    for a, b in zip(ents, ents[1:]):
        gap = text[a["end"]: b["start"]]
        if len(gap) > MAX_GAP_CHARS:
            continue
        pred = gap_predicate(gap)
        if pred is None:
            continue
        triples.append(
            {
                "subj": a["value"],
                "pred": pred,
                "obj": b["value"],
                "subj_type": a["entity"],
                "obj_type": b["entity"],
                "url": url,
                "confidence": min(float(a.get("confidence", 1.0)),
                                  float(b.get("confidence", 1.0))),
            }
        )
    return triples
