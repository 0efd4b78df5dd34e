"""Entity linking / canonicalization primitives.

Blocking + within-block resolution (SURVEY.md §2.7): mentions that could
corefer share at least one block key (minhash band over char shingles), and
resolution inside a block is pure and deterministic, so the distributed
version sorts band rows by block key and calls ``resolve_block`` on each
multi-surface block of each sorted block (``stages/link.py:resolve_blocks``).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, Iterable, List, Tuple

from ..functions.hashing import char_shingles, jaccard, minhash_bands, minhash_signature

_NORM_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")

LINK_NUM_PERM = 32
LINK_BANDS = 8
LINK_JACCARD = 0.55


def normalize_surface(value: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return _WS_RE.sub(" ", _NORM_RE.sub("", value.lower())).strip()


def block_keys(value: str) -> List[str]:
    """LSH band keys for a mention surface — the groupby key domain.
    Identical normalized surfaces always share all keys."""
    norm = normalize_surface(value)
    sig = minhash_signature(char_shingles(norm, 3), num_perm=LINK_NUM_PERM)
    return minhash_bands(sig, bands=LINK_BANDS)


def resolve_block(surfaces: Iterable[Tuple[str, int]]) -> Dict[str, str]:
    """Within one block: cluster surfaces by shingle-Jaccard (single-link over
    the sorted surface list) and map each to a canonical form.

    surfaces: (normalized_surface, count) pairs. Deterministic: input is
    sorted, cluster representative = highest count then longest then lexical.
    Returns {surface: canonical}.
    """
    items = sorted(set(surfaces))
    names = sorted({s for s, _ in items})
    shingle_sets = {s: set(char_shingles(s, 3)) for s in names}
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra

    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if jaccard(shingle_sets[a], shingle_sets[b]) >= LINK_JACCARD:
                union(a, b)

    counts = Counter()
    for s, c in items:
        counts[s] += c
    clusters: Dict[str, List[str]] = {}
    for s in names:
        clusters.setdefault(find(s), []).append(s)
    mapping: Dict[str, str] = {}
    for members in clusters.values():
        rep = max(members, key=lambda s: (counts[s], len(s), [-ord(c) for c in s]))
        for s in members:
            mapping[s] = rep
    return mapping


def mapping_from_surfaces(
    surfaces: Iterable[Tuple[str, str, int]]
) -> Dict[Tuple[str, str], str]:
    """(type, norm, cnt) rows → {(type, norm): canonical}. The single-node
    reference implementation of the linker; the distributed version
    (``pipelines/kg.py:build_canonical_mapping_ds``) reproduces it exactly.
    Block assignment: each surface joins all its band-key blocks; per-block
    resolutions merge by keeping the lexicographically smallest canonical a
    surface gets from any of its blocks; canonical chains flatten one step,
    each surface looking its canonical up in the merged (unflattened)
    mapping, so the result does not depend on block order."""
    by_type: Dict[str, Counter] = {}
    for type_, norm, cnt in surfaces:
        by_type.setdefault(type_, Counter())[norm] += cnt

    out: Dict[Tuple[str, str], str] = {}
    for type_, counter in by_type.items():
        blocks: Dict[str, List[Tuple[str, int]]] = {}
        for norm, cnt in counter.items():
            for key in block_keys(norm):
                blocks.setdefault(key, []).append((norm, cnt))
        mapping: Dict[str, str] = {}
        for key in sorted(blocks):
            for surface, canonical in resolve_block(blocks[key]).items():
                prev = mapping.get(surface)
                if prev is None or canonical < prev:
                    mapping[surface] = canonical
        mapping = {s: mapping.get(c, c) for s, c in mapping.items()}
        for norm in counter:
            out[(type_, norm)] = mapping.get(norm, norm)
    return out


def link_mentions(mentions: Iterable[Tuple[str, str]]) -> Dict[Tuple[str, str], str]:
    """Sequential oracle for the distributed linker: (value, type) mentions →
    {(value, type): canonical_normalized_surface}. Blocking per type."""
    counter: Counter = Counter()
    originals: Dict[Tuple[str, str], List[str]] = {}
    for value, type_ in mentions:
        norm = normalize_surface(value)
        counter[(type_, norm)] += 1
        originals.setdefault((type_, norm), []).append(value)
    mapping = mapping_from_surfaces(
        (t, n, c) for (t, n), c in counter.items()
    )
    out: Dict[Tuple[str, str], str] = {}
    for (type_, norm), origs in originals.items():
        for orig in origs:
            out[(orig, type_)] = mapping[(type_, norm)]
    return out
