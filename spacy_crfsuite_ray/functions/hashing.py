"""Deterministic hashing: surrogate ids, minhash, simhash, fingerprints.

All ids are content hashes (sha1/md5 prefixes) so re-runs are byte-stable and
resume/dedup never depend on execution order (SURVEY.md §4 determinism row).
"""

from __future__ import annotations

import hashlib
import re
import struct
from typing import Iterable, List

import numpy as np

_MINHASH_SEED = 1


def short_sha1(key: str) -> str:
    """16-hex-char sha1 prefix: the surrogate id of a "|"-joined key."""
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


def node_id(canonical: str, type_: str) -> str:
    """Surrogate id for a graph node."""
    return short_sha1(f"{canonical}|{type_}")


def edge_id(subj_id: str, pred: str, obj_id: str) -> str:
    return short_sha1(f"{subj_id}|{pred}|{obj_id}")


def text_md5(text: str) -> str:
    """md5 hex of utf-8 text — matches DuckDB ``md5(text)`` for the oracle."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def char_shingles(text: str, k: int = 3) -> List[str]:
    if len(text) < k:
        return [text] if text else []
    return [text[i:i + k] for i in range(len(text) - k + 1)]


# ASCII \s+, NOT str.split(): the SQL oracles' shared shingle CTE splits
# with DuckDB's RE2 '\s+' (ASCII-only), while str.split() also splits on
# Unicode whitespace (NBSP etc.) — the two would silently disagree on any
# non-ASCII-whitespace corpus. re.ASCII pins Python to the RE2 semantics.
_WS_ASCII = re.compile(r"\s+", re.ASCII)


def word_shingles(text: str, k: int = 3) -> List[str]:
    words = [w for w in _WS_ASCII.split(text) if w] if text else []
    if len(words) < k:
        return [" ".join(words)] if words else []
    return [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]


def _shingle_hashes(shingles: Iterable[str]) -> np.ndarray:
    return np.array(
        [
            struct.unpack("<Q", hashlib.sha1(s.encode("utf-8")).digest()[:8])[0]
            for s in set(shingles)
        ],
        dtype=np.uint64,
    )


def _perm_params(num_perm: int) -> np.ndarray:
    """Deterministic (a, b) params for universal hashing, seeded once.
    ``a`` is forced odd so a*h+b (mod 2^64) is a bijection on uint64."""
    rng = np.random.RandomState(_MINHASH_SEED)
    a = rng.randint(1, 1 << 62, size=num_perm).astype(np.uint64) | np.uint64(1)
    b = rng.randint(0, 1 << 62, size=num_perm).astype(np.uint64)
    return np.stack([a, b])


_PERM_CACHE: dict = {}


def minhash_signature_from_hashes(hv: np.ndarray, num_perm: int = 128) -> np.ndarray:
    """Minhash signature (uint64[num_perm]) from pre-hashed shingles —
    lets pipelines hash each shingle set ONCE and reuse it for both the
    signature and exact-Jaccard verification."""
    if num_perm not in _PERM_CACHE:
        _PERM_CACHE[num_perm] = _perm_params(num_perm)
    a, b = _PERM_CACHE[num_perm]
    if hv.size == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        vals = a[:, None] * hv[None, :] + b[:, None]
    return vals.min(axis=1)


def minhash_signature(shingles: Iterable[str], num_perm: int = 128) -> np.ndarray:
    """Classic minhash signature (uint64[num_perm]) over a shingle set.
    Permutations are (a*h + b) mod 2^64 with odd a — vectorized, no Python
    bigint math."""
    return minhash_signature_from_hashes(_shingle_hashes(shingles), num_perm)


def minhash_bands(sig: np.ndarray, bands: int = 16) -> List[str]:
    """LSH band keys: hash of each contiguous band of the signature."""
    rows = len(sig) // bands
    keys = []
    for b in range(bands):
        band = sig[b * rows:(b + 1) * rows].tobytes()
        keys.append(f"{b}:{hashlib.sha1(band).hexdigest()[:12]}")
    return keys


def simhash64(tokens: Iterable[str]) -> int:
    """64-bit simhash over token hashes (Charikar 2002). Token hash = first
    8 bytes of md5, little-endian — md5 (NOT sha1) so the DuckDB oracle can
    re-express the exact bit mixing (DuckDB 1.0 ships md5 but no sha1; see
    the simhash_docs oracle in __ray_entry__.py)."""
    acc = np.zeros(64, dtype=np.int64)
    n = 0
    for tok in tokens:
        h = struct.unpack("<Q", hashlib.md5(tok.encode("utf-8")).digest()[:8])[0]
        bits = np.unpackbits(
            np.frombuffer(struct.pack("<Q", h), dtype=np.uint8)
        ).astype(np.int64)
        acc += bits * 2 - 1
        n += 1
    if n == 0:
        return 0
    return int(
        np.packbits((acc > 0).astype(np.uint8)).view(">u8")[0]
    )


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter) if (a or b) else 0.0


# ------------------------------------------------------------------- bloom

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
BLOOM_BITS_PER_KEY = 16
BLOOM_K = 4


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants) — uint64
    wraparound arithmetic, one avalanche per call."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def bloom_build(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Packed-uint64 Bloom filter over int keys: BLOOM_BITS_PER_KEY bits per
    key rounded up to a power of two, BLOOM_K independent splitmix probes.
    ~2 bytes/key — 25-50x smaller than broadcasting a hash set of the keys,
    which is the whole point: the small side of a 100TB semi-join ships as
    megabytes, and only bloom SURVIVORS enter the exact shuffle join."""
    m = 1 << max(10, int(np.ceil(np.log2(max(1, len(keys))
                                         * BLOOM_BITS_PER_KEY))))
    bits = np.zeros(m >> 6, dtype=np.uint64)
    k64 = keys.astype(np.uint64)
    for i in range(BLOOM_K):
        h = splitmix64(k64 + np.uint64((_SPLITMIX_GAMMA * (i + 1))
                                       & 0xFFFFFFFFFFFFFFFF))
        idx = h & np.uint64(m - 1)
        np.bitwise_or.at(bits, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))
    return bits, m


def bloom_contains(bits: np.ndarray, m: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized membership probe: no false negatives by construction."""
    ok = np.ones(len(keys), dtype=bool)
    k64 = keys.astype(np.uint64)
    for i in range(BLOOM_K):
        h = splitmix64(k64 + np.uint64((_SPLITMIX_GAMMA * (i + 1))
                                       & 0xFFFFFFFFFFFFFFFF))
        idx = h & np.uint64(m - 1)
        ok &= (bits[(idx >> np.uint64(6)).astype(np.int64)]
               & (np.uint64(1) << (idx & np.uint64(63)))) != 0
    return ok
