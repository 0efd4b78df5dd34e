"""Text-analysis operators over the ``documents`` table.

Every SQL-oracled op is defined so the EXACT same semantics are expressible in
DuckDB (token pattern = the engine tokenizer's single regex, counts via
pyarrow.compute vectorized kernels — no Python loop in the hot path).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.tables import read_parquet_nometa

from ..core.tokenizer import TOKEN_PATTERN
from ..functions.cluster import coalesce_small


from ..functions.tables import read_documents as _docs


def doc_stats(sf_dir: str) -> "rd.Dataset":
    """Per-doc stats: n_chars / n_tokens / n_upper / n_digit — all vectorized
    Arrow kernels (count_substring_regex matches re.findall counts)."""

    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(text, TOKEN_PATTERN), pa.int64()
                ),
                "n_upper": pc.cast(
                    pc.count_substring_regex(text, "[A-Z]"), pa.int64()
                ),
                "n_digit": pc.cast(
                    pc.count_substring_regex(text, "[0-9]"), pa.int64()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow"
    )


def lang_count(sf_dir: str) -> "rd.Dataset":
    """Docs per language — combiner-first: per-batch counts, then a 2-block
    coalesce + tiny groupby (the shuffle moves one row per (batch, lang),
    never a row per document)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("lang").aggregate([("n", "sum")]).rename_columns(
            ["lang", "n"]
        )

    from ..functions.tables import stable_rename

    return (
        coalesce_small(
            _docs(sf_dir, ["lang"]).map_batches(partial,
                                                batch_format="pyarrow")
        )
        .groupby("lang")
        .sum("n")
        .map_batches(
            stable_rename(["lang", "n_docs"]),
            batch_format="pyarrow",
        )
    )


def token_count_by_source(sf_dir: str) -> "rd.Dataset":
    """Pre-aggregated combiner: per-batch token sums, then a tiny groupby —
    the shuffle moves one row per (batch, source), not per document."""

    def partial(batch: pa.Table) -> pa.Table:
        counts = pc.cast(
            pc.count_substring_regex(batch.column("text"), TOKEN_PATTERN),
            pa.int64(),
        )
        t = pa.table({"source": batch.column("source"), "c": counts})
        return t.group_by("source").aggregate([("c", "sum")]).rename_columns(
            ["source", "c"]
        )

    ds = (
        coalesce_small(
            _docs(sf_dir, ["source", "text"])
            .map_batches(partial, batch_format="pyarrow")
        )
        .groupby("source")
        .sum("c")
    )
    return ds.map_batches(
        lambda b: b.rename_columns(["source", "total_tokens"]),
        batch_format="pyarrow",
    )


def quality_filter(sf_dir: str, min_chars: int = 150, max_chars: int = 1000,
                   min_tokens: int = 30) -> "rd.Dataset":
    """Documents passing simple quality gates (SQL-mirrorable)."""

    def fil(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        n_tokens = pc.cast(
            pc.count_substring_regex(text, TOKEN_PATTERN), pa.int64()
        )
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(n_chars, min_chars),
                pc.less_equal(n_chars, max_chars),
            ),
            pc.greater_equal(n_tokens, min_tokens),
        )
        out = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": n_chars,
                "n_tokens": n_tokens,
            }
        )
        return out.filter(mask)

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fil, batch_format="pyarrow"
    )


def doc_fingerprint(sf_dir: str) -> "rd.Dataset":
    """doc_id → md5(text) — matches DuckDB md5() for the oracle."""

    def fp(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import text_md5

        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fp": pa.array(
                    [text_md5(t) for t in batch.column("text").to_pylist()],
                    pa.string(),
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fp, batch_format="pyarrow"
    )


# ---------------------------------------------------------------- language ID

_LANG_PROFILES = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for",
           "with", "on", "this", "be", "are"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "mit", "von",
           "zu", "den", "war", "nicht", "auf"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "un", "une", "dans",
           "que", "pour", "pas", "au"},
    "es": {"el", "la", "los", "las", "de", "y", "es", "un", "una", "en",
           "que", "por", "con", "no"},
}


def detect_lang(text: str) -> str:
    """Deterministic heuristic language ID: CJK char detection, then stopword
    profile vote (ties broken by fixed profile order)."""
    if any("一" <= ch <= "鿿" for ch in text[:400]):
        return "zh"
    words = set(text.lower().split()[:200])
    best, best_score = "und", 0
    for lang in ("en", "de", "fr", "es"):
        score = len(words & _LANG_PROFILES[lang])
        if score > best_score:
            best, best_score = lang, score
    return best


def lang_id(sf_dir: str) -> "rd.Dataset":
    """n-gram/stopword-heuristic language ID (non-SQL op → rows-only check)."""

    def ident(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang_pred": pa.array(
                    [detect_lang(t) for t in batch.column("text").to_pylist()],
                    pa.string(),
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ident, batch_format="pyarrow"
    )


_STOPWORDS = _LANG_PROFILES["en"]

# RE2 patterns shared verbatim with the DuckDB oracle (both engines are RE2,
# so counts agree by construction):
#  - an "alpha token" is a maximal letter run delimited by word boundaries
#  - stopword hits are boundary-delimited case-insensitive matches
#  - total token chars = n_chars - whitespace chars (the token pattern
#    covers every non-whitespace char exactly once)
ALPHA_TOKEN_PATTERN = r"\b\p{L}+\b"
STOPWORD_PATTERN = (
    r"(?i)\b(" + "|".join(sorted(_STOPWORDS)) + r")\b"
)
WHITESPACE_PATTERN = r"\s"


def _quality_score_batch(batch: pa.Table) -> pa.Table:
    """The quality_score kernel (module-level so quality_percentile can
    re-run it per scan): alpha/stopword/mean-length ratios + composite,
    c6 integer-scaled with the exact oracle float expression tree."""

    def c6(x):
        return pc.cast(
            pc.floor(pc.add(pc.multiply(x, 1e6), 0.5)), pa.int64()
        )

    def score(batch: pa.Table) -> pa.Table:
        text = batch.column("text")

        def cnt(pattern):
            return pc.cast(pc.count_substring_regex(text, pattern), pa.int64())

        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        t = cnt(TOKEN_PATTERN)
        n = pc.cast(pc.max_element_wise(t, 1), pa.float64())
        alpha = pc.divide(pc.cast(cnt(ALPHA_TOKEN_PATTERN), pa.float64()), n)
        stop = pc.divide(pc.cast(cnt(STOPWORD_PATTERN), pa.float64()), n)
        mlen = pc.divide(
            pc.cast(pc.subtract(n_chars, cnt(WHITESPACE_PATTERN)),
                    pa.float64()),
            n,
        )
        quality = pc.add(
            pc.add(
                pc.multiply(0.5, alpha),
                pc.multiply(0.3, pc.min_element_wise(
                    pc.multiply(stop, 5.0), 1.0)),
            ),
            pc.multiply(0.2, pc.min_element_wise(
                pc.divide(mlen, 8.0), 1.0)),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "alpha_ratio_c6": c6(alpha),
                "stopword_ratio_c6": c6(stop),
                "mean_token_len_c6": c6(mlen),
                "quality_c6": c6(quality),
            }
        )

    return score(batch)


def quality_score(sf_dir: str) -> "rd.Dataset":
    """Richer quality metrics: alpha-token ratio, stopword ratio, mean token
    length, composite score. Fully vectorized Arrow kernels; ratios emitted
    integer-scaled (floor(x*1e6 + 0.5) as int64) so the SQL oracle hashes
    identically — the float expression trees match the oracle op-for-op."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _quality_score_batch, batch_format="pyarrow"
    )


def quality_percentile(sf_dir: str) -> "rd.Dataset":
    """Global PERCENT_RANK() of every doc's composite quality score — an
    EXACT whole-corpus window function with a BOUNDED shuffle. The c6
    integer scaling caps the score domain at 1,000,001 distinct values,
    so the (score_c6, n) histogram is bounded regardless of corpus size:

      scan 1  per-batch histogram combiner → distributed groupby-sum →
              ≤1e6-row driver table (≈16 MB worst case, independent of
              row count) → exclusive cumsum = count-strictly-less per
              score → broadcast dict
      scan 2  recompute the score per batch (cheaper at scale than
              materializing per-doc score rows) and map score→percentile.

    percent_rank = cnt_less / (n_total - 1) (0 when n_total == 1),
    matching SQL PERCENT_RANK() tie semantics exactly — same IEEE
    int→double division and c6 rounding as the oracle."""
    import ray

    from ..functions.tables import collect_table

    def hist_partial(batch: pa.Table) -> pa.Table:
        s = _quality_score_batch(batch)
        t = pa.table(
            {
                "q": s.column("quality_c6"),
                "n": pa.array(np.ones(s.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by("q").aggregate([("n", "sum")]).rename_columns(
            ["q", "n"]
        )

    hist = collect_table(
        coalesce_small(
            _docs(sf_dir, ["doc_id", "text"]).map_batches(
                hist_partial, batch_format="pyarrow"
            )
        )
        .groupby("q")
        .sum("n"),
        pa.schema([("q", pa.int64()), ("sum(n)", pa.int64())]),
    )
    qv = np.asarray(hist.column("q"), dtype=np.int64)
    cn = np.asarray(hist.column("sum(n)"), dtype=np.int64)
    o = np.argsort(qv)
    qv, cn = qv[o], cn[o]
    less = np.concatenate([[0], np.cumsum(cn)[:-1]]) if len(cn) else cn
    denom = max(int(cn.sum()) - 1, 1)
    pr_c6 = np.floor(less / denom * 1_000_000.0 + 0.5).astype(np.int64)
    pr_of = {int(q): int(p) for q, p in zip(qv, pr_c6)}
    ref = ray.put(pr_of)

    def tag(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        m = get_broadcast(ref)
        s = _quality_score_batch(batch)
        q = np.asarray(s.column("quality_c6"), dtype=np.int64)
        pr = np.fromiter((m[int(x)] for x in q), dtype=np.int64,
                         count=len(q))
        return pa.table(
            {
                "doc_id": s.column("doc_id"),
                "quality_c6": s.column("quality_c6"),
                "pctile_c6": pa.array(pr, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        tag, batch_format="pyarrow"
    )


def doc_sample(sf_dir: str, hex_threshold: str = "1999") -> "rd.Dataset":
    """Deterministic hash sample (~threshold/0x10000 of docs, default ~10%):
    a doc is kept iff the first 4 hex chars of md5(doc_id) sort below the
    threshold. Reproducible, order-independent and shard-stable — the
    standard way to cut a fixed eval/validation slice out of a huge corpus
    without a shuffle or a seed dependency. Exactly mirrored in SQL."""
    from ..functions.hashing import text_md5

    def samp(batch: pa.Table) -> pa.Table:
        keep = [
            text_md5(str(i))[:4] < hex_threshold
            for i in batch.column("doc_id").to_pylist()
        ]
        return batch.filter(pa.array(keep, pa.bool_()))

    return _docs(sf_dir, ["doc_id", "source", "lang"]).map_batches(
        samp, batch_format="pyarrow"
    )


# ------------------------------------------------------------------- TF-IDF

# Vocabulary (unique-term) count under which the term→df map is broadcast
# (ray.put once, read per worker) and per-doc top-k is computed batch-locally
# with ZERO document shuffle. Above it, term rows hash-join the df table and
# a doc_id groupby ranks — identical output, equality-tested.
TFIDF_BROADCAST_MAX_TERMS = 2_000_000


def _tfidf_score(tf, df, n_docs: int):
    """score = tf * ((N+1)/(df+1)) — the log-free idf variant, chosen so the
    oracle hashes bit-identically: cast/divide/multiply are exact IEEE ops on
    both engines, whereas ln() is the one transcendental that may differ in
    the last ulp across libms. Monotone in the same direction as classic
    tf-idf for fixed tf."""
    return np.asarray(tf, dtype=np.float64) * (
        np.float64(n_docs + 1) / (np.asarray(df, dtype=np.float64) + 1.0)
    )


def _term_rows_batch(batch: pa.Table) -> pa.Table:
    """docs → one row per (doc_id, term, tf): per-doc term counts of
    ASCII-letter tokens. The per-batch group_by is the combiner — the
    shuffle (or broadcast build) only ever sees unique terms per doc,
    never tokens. Vectorized: regexp_extract_all('[A-Za-z]+') is
    re-expressed as an RE2 split on the complement class (identical token
    stream), ascii_lower matches per-token Python .lower() exactly on
    [A-Za-z]-only tokens, and the (doc, term) count is one Arrow group_by.
    Rows come out DOC-CONTIGUOUS in batch row order (stable sort on the
    row index) — downstream segment reductions rely on that."""
    n = batch.num_rows
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "term": pa.array([], pa.string()),
         "tf": pa.array([], pa.int64())}
    )
    if n == 0:
        return empty
    lst = pc.split_pattern_regex(
        pc.coalesce(batch.column("text"), ""), "[^A-Za-z]+"
    )
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    raw_counts = lst.value_lengths().to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    flat = lst.flatten()
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(n), raw_counts)[keep_np]
    if len(doc_of) == 0:
        return empty
    terms = pc.ascii_lower(flat.filter(keep))
    agg = (
        pa.table({"d": pa.array(doc_of, pa.int64()), "term": terms})
        .group_by(["d", "term"])
        .aggregate([([], "count_all")])
    )
    agg = agg.take(pc.sort_indices(agg.column("d")))
    return pa.table(
        {
            "doc_id": pc.cast(
                batch.column("doc_id").take(agg.column("d")), pa.int64()
            ),
            "term": agg.column("term"),
            "tf": pc.cast(agg.column("count_all"), pa.int64()),
        }
    )


def tfidf_top_terms(sf_dir: str, k: int = 3) -> "rd.Dataset":
    """Per-document top-k terms by tf-idf: df via a unique-terms-per-doc
    combiner + one tiny (term) groupby, then either a broadcast df lookup
    with batch-local ranking (vocab ≤ TFIDF_BROADCAST_MAX_TERMS — no doc
    shuffle at all) or a term hash-join + doc_id groupby rank above it.
    Ties broken by term text; score emitted integer-scaled (c6)."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    term_rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _term_rows_batch, batch_format="pyarrow"
    )
    if n_docs < 1_000_000:
        # small-corpus path: vocab < reduce-partition count would leave
        # empty (schema-less) reduce blocks — coalesce first. At scale the
        # term stream is corpus-sized and the plain shuffle is correct.
        term_rows = term_rows.repartition(2)
    df_ds = (
        term_rows
        .groupby("term")
        .count()
        .map_batches(lambda b: b.rename_columns(["term", "df"]),
                     batch_format="pyarrow")
        .materialize()
    )
    if df_ds.count() > TFIDF_BROADCAST_MAX_TERMS:
        return _tfidf_joined(sf_dir, df_ds, n_docs, k)

    import ray

    df_of: dict = {}
    for b in df_ds.iter_batches(batch_format="pyarrow", batch_size=None):
        df_of.update(zip(b.column("term").to_pylist(),
                         b.column("df").to_pylist()))
    df_ref = ray.put(df_of)

    def local_topk(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        dfs = get_broadcast(df_ref)
        rows = _term_rows_batch(batch)
        ids = np.asarray(rows.column("doc_id"), dtype=np.int64)
        tfs = np.asarray(rows.column("tf"), dtype=np.int64)
        terms = rows.column("term").to_pylist()
        df_arr = np.fromiter((dfs[t] for t in terms), dtype=np.int64,
                             count=len(terms))
        score = _tfidf_score(tfs, df_arr, n_docs)
        out = {"doc_id": [], "term": [], "tf": [], "df": [], "score_c6": []}
        # rows are doc-contiguous (built that way); rank inside each doc
        bounds = np.concatenate(
            [[0], np.nonzero(np.diff(ids))[0] + 1, [len(ids)]]
        ) if len(ids) else np.array([0])
        for s, e in zip(bounds[:-1], bounds[1:]):
            order = sorted(range(s, e), key=lambda i: (-score[i], terms[i]))
            for i in order[:k]:
                out["doc_id"].append(int(ids[i]))
                out["term"].append(terms[i])
                out["tf"].append(int(tfs[i]))
                out["df"].append(int(df_arr[i]))
                out["score_c6"].append(
                    int(np.floor(score[i] * 1_000_000.0 + 0.5))
                )
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "term": pa.array(out["term"], pa.string()),
                "tf": pa.array(out["tf"], pa.int64()),
                "df": pa.array(out["df"], pa.int64()),
                "score_c6": pa.array(out["score_c6"], pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        local_topk, batch_format="pyarrow"
    )


def _tfidf_joined(sf_dir: str, df_ds, n_docs: int, k: int) -> "rd.Dataset":
    """At-scale path: term rows ⋈ df table on the term, then a doc_id
    groupby ranks inside the group. Byte-identical to the broadcast path."""
    import pandas as pd

    from ..functions.cluster import join_partitions

    rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _term_rows_batch, batch_format="pyarrow"
    )
    j = rows.join(
        df_ds,
        join_type="inner",
        num_partitions=join_partitions(rows=n_docs),
        on=("term",),
    )

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        score = _tfidf_score(group["tf"].to_numpy(),
                             group["df"].to_numpy(), n_docs)
        g = group.assign(
            score_c6=np.floor(score * 1_000_000.0 + 0.5).astype(np.int64),
            _s=score,
        )
        g = g.sort_values(["_s", "term"], ascending=[False, True]).head(k)
        return g[["doc_id", "term", "tf", "df", "score_c6"]]

    return j.groupby("doc_id").map_groups(topk, batch_format="pandas")


def ngram_top(sf_dir: str, k: int = 20) -> pa.Table:
    """Corpus-wide top-k word bigrams: per-batch Counter combiner (the
    shuffle moves unique bigrams per batch, never per-token rows), bigram
    groupby-sum, then a PER-BLOCK top-k combiner + driver merge of
    (blocks × k) candidate rows (ties broken by bigram text). After the
    groupby each bigram lives in exactly one block, so every global top-k
    row is in its block's top-k — no global sort of the corpus-wide bigram
    vocabulary (billions of rows at web scale) just to keep 20."""
    from ..functions.tables import collect_table

    schema = pa.schema([("ng", pa.string()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        # vectorized bigram combiner (same windowing as
        # top_bigram_fraction): lower + RE2 \s+ split + drop empties,
        # every word except each doc's last is a bigram's left element,
        # one Arrow group_by counts the batch's bigrams
        flat, counts = _filtered_words(batch.column("text"))
        offs = np.concatenate([[0], np.cumsum(counts)])
        keep = np.ones(int(offs[-1]), dtype=bool)
        keep[offs[1:][counts > 0] - 1] = False
        left = np.nonzero(keep)[0]
        if len(left) == 0:
            return schema.empty_table()
        bigrams = pc.binary_join_element_wise(
            flat.take(pa.array(left, pa.int64())),
            flat.take(pa.array(left + 1, pa.int64())),
            " ",
        )
        agg = (
            pa.table({"ng": bigrams})
            .group_by("ng")
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {"ng": agg.column("ng"),
             "n": pc.cast(agg.column("count_all"), pa.int64())}
        )

    def topk_block(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return schema.empty_table()
        batch = batch.rename_columns(["ng", "n"])
        order = pc.sort_indices(
            batch,
            sort_keys=[("n", "descending"), ("ng", "ascending")],
        )
        return batch.take(order.slice(0, k))

    cand = collect_table(
        _docs(sf_dir, ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("ng")
        .sum("n")
        .map_batches(topk_block, batch_format="pyarrow"),
        empty_schema=schema,
    )
    order = pc.sort_indices(
        cand, sort_keys=[("n", "descending"), ("ng", "ascending")]
    )
    return cand.take(order.slice(0, k))


def lang_source_rollup(sf_dir: str) -> pa.Table:
    """GROUPING-SETS rollup ((lang, source) → (lang) → ()) computed from ONE
    distributed pass: the (lang, source) base aggregate is the sufficient
    statistic, so the coarser levels are derived from it driver-side — the
    base is |langs|x|sources| rows by construction, never corpus-sized, and
    the corpus is read exactly once. 'ALL' marks the rolled-up level."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.cast(
            pc.count_substring_regex(batch.column("text"), TOKEN_PATTERN),
            pa.int64(),
        )
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "source": batch.column("source"),
                "toks": toks,
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return (
            t.group_by(["lang", "source"])
            .aggregate([("toks", "sum"), ("one", "sum")])
            .rename_columns(["lang", "source", "toks", "one"])
        )

    base_ds = (
        coalesce_small(
            _docs(sf_dir, ["lang", "source", "text"])
            .map_batches(partial, batch_format="pyarrow")
        )
        .groupby(["lang", "source"])
        .sum(["toks", "one"])
    )
    # an all-empty stream yields zero batches (empty corpus) — fall back to
    # a typed empty table so the rollup returns its grand-total row alone
    base_parts = list(
        base_ds.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    base = (
        pa.concat_tables(base_parts) if base_parts
        else pa.schema(
            [("lang", pa.string()), ("source", pa.string()),
             ("sum(toks)", pa.int64()), ("sum(one)", pa.int64())]
        ).empty_table()
    ).rename_columns(["lang", "source", "total_tokens", "n_docs"])

    by_lang = (
        base.group_by("lang")
        .aggregate([("total_tokens", "sum"), ("n_docs", "sum")])
        .rename_columns(["lang", "total_tokens", "n_docs"])
    )
    all_src = pa.array(["ALL"] * by_lang.num_rows, pa.string())
    grand = pa.table(
        {
            "lang": pa.array(["ALL"], pa.string()),
            "source": pa.array(["ALL"], pa.string()),
            "total_tokens": pa.array(
                [pc.sum(base.column("total_tokens")).as_py() or 0], pa.int64()
            ),
            "n_docs": pa.array(
                [pc.sum(base.column("n_docs")).as_py() or 0], pa.int64()
            ),
        }
    )
    cols = ["lang", "source", "total_tokens", "n_docs"]
    return pa.concat_tables(
        [
            base.select(cols),
            by_lang.append_column("source", all_src).select(cols),
            grand.select(cols),
        ]
    )


def _filtered_words(text_col):
    """Lowercase + whitespace-split + drop-empties, vectorized: returns
    (flat word Array grouped contiguously by doc, per-doc word counts).
    Mirrors SQL ``list_filter(regexp_split_to_array(lower(text), '\\s+'),
    x -> x <> '')`` exactly (Arrow's split keeps boundary empties — the
    filter removes them)."""
    lst = pc.split_pattern_regex(pc.utf8_lower(text_col), r"\s+")
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    counts = pc.list_value_length(lst).to_numpy().astype(np.int64)
    flat = lst.flatten()
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(len(counts)), counts)[keep_np]
    return flat.filter(keep), np.bincount(doc_of, minlength=len(counts))


def top_bigram_fraction(sf_dir: str) -> "rd.Dataset":
    """Repetition quality signal (Gopher-style): per document, the count of
    its most frequent word bigram over its total bigram count. Entirely
    within-row → ONE map_batches pass, no shuffle; bigram construction and
    counting are vectorized (list-offset arithmetic + one Arrow group_by
    per batch), no per-token Python loop. Docs with <2 words drop out —
    mirrored by the SQL oracle's empty-range behavior."""

    def frac(batch: pa.Table) -> pa.Table:
        flat, counts = _filtered_words(batch.column("text"))
        offs = np.concatenate([[0], np.cumsum(counts)])
        # every word position except each non-empty doc's last is a
        # bigram's left element
        keep = np.ones(int(offs[-1]), dtype=bool)
        keep[offs[1:][counts > 0] - 1] = False
        left = np.nonzero(keep)[0]
        if len(left) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_bigrams": pa.array([], pa.int64()),
                    "top_bigram_n": pa.array([], pa.int64()),
                    "top_fraction_c6": pa.array([], pa.int64()),
                }
            )
        li = pa.array(left, pa.int64())
        ri = pa.array(left + 1, pa.int64())
        bigrams = pc.binary_join_element_wise(
            flat.take(li), flat.take(ri), " "
        )
        doc_of = np.repeat(np.arange(len(counts)), np.maximum(counts - 1, 0))
        per = (
            pa.table({"d": pa.array(doc_of, pa.int64()), "bg": bigrams})
            .group_by(["d", "bg"])
            .aggregate([("bg", "count")])
        )
        agg = (
            per.select(["d", "bg_count"])
            .group_by("d")
            .aggregate([("bg_count", "sum"), ("bg_count", "max")])
        )
        total = agg.column("bg_count_sum").to_numpy().astype(np.float64)
        top = agg.column("bg_count_max").to_numpy().astype(np.float64)
        c6 = np.floor(top / total * 1_000_000.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(agg.column("d")),
                "n_bigrams": pc.cast(agg.column("bg_count_sum"), pa.int64()),
                "top_bigram_n": pc.cast(agg.column("bg_count_max"),
                                        pa.int64()),
                "top_fraction_c6": pa.array(c6, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        frac, batch_format="pyarrow"
    )


# ------------------------------------------------------- stratified sampling

def stratified_sample(sf_dir: str, k: int = 50) -> "rd.Dataset":
    """Fixed-size per-stratum sample: the k docs with the SMALLEST
    md5(doc_id) per language. The balanced-eval-set cut — every stratum
    contributes exactly k docs (or all of them if smaller) no matter how
    skewed the language mix is, and the hash order makes the pick
    deterministic, shard-stable and append-stable (a new doc displaces at
    most one pick in its own stratum).

    100 TB shape: per-batch combiner keeps k rows per (batch, lang) so the
    shuffle carries O(blocks x langs x k) rows, never the corpus; the final
    per-lang rank runs on that tiny survivor set. Oracle: row_number over
    md5(CAST(doc_id AS VARCHAR)) — byte-identical hex ordering."""
    import pandas as pd

    from ..functions.hashing import text_md5

    def hash_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "h": pa.array(
                    [text_md5(str(i))
                     for i in batch.column("doc_id").to_pylist()],
                    pa.string(),
                ),
            }
        )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.sort_values(["h", "doc_id"])
            .groupby("lang", sort=False).head(k)
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(["h", "doc_id"]).head(k)[["lang", "doc_id"]]

    return (
        coalesce_small(
            _docs(sf_dir, ["doc_id", "lang"])
            .map_batches(hash_rows, batch_format="pyarrow")
            .map_batches(partial, batch_format="pandas"),
            cap=2,
        )
        .groupby("lang")
        .map_groups(final, batch_format="pandas")
    )


# --------------------------------------------------------- token rarity
RARITY_BROADCAST_MAX_TERMS = 2_000_000


def _rarity_c6(counts: np.ndarray, total: int) -> np.ndarray:
    """Per-term rarity total/count, integer-scaled c6 — the transcendental-
    free stand-in for a unigram-LM -log p (same ranking direction; the
    log-free form is chosen for the same reason as _tfidf_score: divide is
    an exact IEEE op on both engines, ln() may differ in the last ulp
    across libms). int64 headroom needs total*1e6 < 2^63 — ~9e12 tokens
    per scored corpus; beyond that drop the scale to c3."""
    return np.floor(
        np.float64(total) / counts.astype(np.float64) * 1_000_000.0 + 0.5
    ).astype(np.int64)


def token_rarity(sf_dir: str) -> "rd.Dataset":
    """Corpus-LM quality score per document (the CCNet shape with a
    unigram model trained on the corpus itself): mean token rarity, where
    rarity(t) = total_tokens / count(t) — high mean ⇒ improbable text
    under the corpus distribution (the docs a perplexity gate would
    prune). Output (doc_id, n_tokens, mean_rarity_c6); token-less docs
    drop (no distribution to score against).

    100 TB shape: pass 1 is the `_term_rows_batch` per-doc Counter
    combiner + one (term) groupby — the shuffle moves unique terms per
    doc, never tokens; the vocabulary (Zipf-bounded, ≪ corpus) broadcasts
    once and pass 2 is batch-local (zero shuffle). Above
    RARITY_BROADCAST_MAX_TERMS the gated twin hash-joins term rows against
    the vocab Dataset and folds per-doc sums with a groupby
    (equality-tested). Per-term rarity is rounded c6 BEFORE the per-doc
    integer sum, so both engines add the same int64s in any order."""
    import pyarrow.parquet as pq

    term_rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _term_rows_batch, batch_format="pyarrow"
    )
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    if n_docs < 1_000_000:
        term_rows = term_rows.repartition(2)
    vocab = (
        term_rows.groupby("term")
        .sum("tf")
        .map_batches(lambda b: b.rename_columns(["term", "n"]),
                     batch_format="pyarrow")
        .materialize()
    )
    # distributed scalar fold — ONE int64 reaches the driver, so the
    # at-scale (joined) path never pulls the vocabulary driver-side
    total = int(vocab.sum("n") or 0)
    if vocab.count() > RARITY_BROADCAST_MAX_TERMS:
        return _rarity_joined(sf_dir, vocab, total, n_docs)

    import ray

    from ..functions.broadcast import get_broadcast

    n_of: dict = {}
    for b in vocab.iter_batches(batch_format="pyarrow", batch_size=None):
        n_of.update(zip(b.column("term").to_pylist(),
                        b.column("n").to_pylist()))
    ref = ray.put(n_of)

    def score(batch: pa.Table) -> pa.Table:
        lut = get_broadcast(ref)
        rows = _term_rows_batch(batch)
        ids = np.asarray(rows.column("doc_id"), dtype=np.int64)
        tfs = np.asarray(rows.column("tf"), dtype=np.int64)
        terms = rows.column("term").to_pylist()
        if not terms:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_tokens": pa.array([], pa.int64()),
                 "mean_rarity_c6": pa.array([], pa.int64())}
            )
        cnt = np.fromiter((lut[t] for t in terms), dtype=np.int64,
                          count=len(terms))
        contrib = tfs * _rarity_c6(cnt, total)
        # rows are doc-contiguous (built that way) — segment sums
        bounds = np.concatenate(
            [[0], np.nonzero(np.diff(ids))[0] + 1, [len(ids)]]
        )
        doc_ids = ids[bounds[:-1]]
        sums = np.add.reduceat(contrib, bounds[:-1])
        ntok = np.add.reduceat(tfs, bounds[:-1])
        mean = np.floor(
            sums.astype(np.float64) / ntok.astype(np.float64) + 0.5
        ).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(doc_ids, pa.int64()),
             "n_tokens": pa.array(ntok, pa.int64()),
             "mean_rarity_c6": pa.array(mean, pa.int64())}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


def _rarity_joined(sf_dir: str, vocab, total: int, n_docs: int):
    """At-scale twin: term rows ⋈ vocab on the term, per-batch
    (doc_id → contrib, tf) partial sums, one doc_id groupby. Byte-identical
    to the broadcast path (same c6-rounded per-term rarity)."""
    from ray.data.aggregate import Sum

    from ..functions.cluster import join_partitions
    from ..functions.tables import stable_rename

    rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _term_rows_batch, batch_format="pyarrow"
    )
    j = rows.join(
        vocab, join_type="inner",
        num_partitions=join_partitions(rows=n_docs), on=("term",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.int64()), ("contrib", pa.int64()),
                 ("n_tokens", pa.int64())]
            ).empty_table()
        tfs = np.asarray(batch.column("tf"), dtype=np.int64)
        cnt = np.asarray(batch.column("n"), dtype=np.int64)
        t = pa.table(
            {"doc_id": batch.column("doc_id"),
             "contrib": pa.array(tfs * _rarity_c6(cnt, total), pa.int64()),
             "n_tokens": pa.array(tfs, pa.int64())}
        )
        return t.group_by("doc_id").aggregate(
            [("contrib", "sum"), ("n_tokens", "sum")]
        ).rename_columns(["doc_id", "contrib", "n_tokens"])

    def finish(batch: pa.Table) -> pa.Table:
        sums = np.asarray(batch.column("contrib"), dtype=np.int64)
        ntok = np.asarray(batch.column("n_tokens"), dtype=np.int64)
        mean = np.floor(
            sums.astype(np.float64) / ntok.astype(np.float64) + 0.5
        ).astype(np.int64)
        return pa.table(
            {"doc_id": batch.column("doc_id"),
             "n_tokens": batch.column("n_tokens"),
             "mean_rarity_c6": pa.array(mean, pa.int64())}
        )

    return (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("contrib"), Sum("n_tokens"))
        .map_batches(
            stable_rename(["doc_id", "contrib", "n_tokens"]),
            batch_format="pyarrow",
        )
        .map_batches(finish, batch_format="pyarrow")
    )


def dup_ngram_fraction(sf_dir: str, k: int = 3) -> "rd.Dataset":
    """Within-document duplicate word-k-gram fraction (the Gopher
    repetition signal next to `top_bigram_fraction`): per doc,
    1 − distinct/total k-gram occurrences — high values flag boilerplate
    and degenerate repetition. Zero shuffle: split, k-gram construction,
    dedupe and the c6 division all happen batch-locally inside one
    map_batches (a doc never spans batches); docs with no words drop
    (nothing to measure), docs with fewer than k words contribute their
    single whole-text shingle (dup fraction 0) — exactly the shared
    shingle CTEs' semantics, so the SQL twin cannot drift. The registered
    oracle covers the default k=3 (the CTEs are trigram-fixed). Fully
    vectorized: Arrow RE2 split (byte-identical to DuckDB's
    regexp_split_to_array '\\s+'), list-offset k-gram joins, one Arrow
    group_by per batch — no per-token Python."""

    from ..functions.shingles import shingle_occurrences

    def frac(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "n_ngrams": pa.array([], pa.int64()),
             "n_distinct": pa.array([], pa.int64()),
             "dup_frac_c6": pa.array([], pa.int64())}
        )
        sh, doc_of, _, _ = shingle_occurrences(batch.column("text"), k)
        if len(sh) == 0:
            return empty
        d = pa.array(doc_of, pa.int64())
        per = pa.table({"d": d, "sh": sh}).group_by(["d", "sh"]) \
            .aggregate([("sh", "count")])
        agg = per.select(["d", "sh_count"]).group_by("d").aggregate(
            [("sh_count", "sum"), ([], "count_all")]
        )
        total = agg.column("sh_count_sum").to_numpy().astype(np.int64)
        dist = agg.column("count_all").to_numpy().astype(np.int64)
        dup = np.floor(
            (1.0 - dist.astype(np.float64) / total.astype(np.float64))
            * 1_000_000.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(
                    batch.column("doc_id").take(agg.column("d")), pa.int64()
                ),
                "n_ngrams": pa.array(total, pa.int64()),
                "n_distinct": pa.array(dist, pa.int64()),
                "dup_frac_c6": pa.array(dup, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        frac, batch_format="pyarrow"
    )


# ------------------------------------------------------------ DSIR weights
DSIR_N_BUCKETS = 256
DSIR_TARGET_SOURCE = "src0"

# term → md5-prefix bucket, memoized per worker process: the vocabulary is
# Zipf-bounded, so the cache stays ≪ the token stream it saves hashing for.
_DSIR_BKT_CACHE: dict = {}


def _dsir_bucket(term: str) -> str:
    b = _DSIR_BKT_CACHE.get(term)
    if b is None:
        from ..functions.hashing import text_md5

        b = text_md5(term)[:2]
        _DSIR_BKT_CACHE[term] = b
    return b


def dsir_weights(
    sf_dir: str, target_source: str = DSIR_TARGET_SOURCE,
    _emit_fp: bool = False,
) -> "rd.Dataset":
    """Data Selection via Importance Resampling (Xie et al. 2023, NeurIPS —
    arXiv:2302.03169): score every RAW document by how target-like its
    hashed-feature distribution is. Features are md5-prefix buckets of
    lowercased ASCII-letter tokens (B = 256 — DSIR's hashed-ngram sketch);
    the per-bucket importance ratio is the add-1-smoothed target/raw token
    frequency ratio, and a doc's weight is its mean per-token ratio. The
    target side is ``source == target_source`` — the deterministic stand-in
    for the high-quality sample a real pipeline would load (same spirit as
    ``decontaminate``'s benchmark side). Output (doc_id, n_tokens,
    dsir_weight_c6) over raw docs with ≥1 token — the resampling key.

    Transcendental-free contract (the log-sum of the paper is replaced by
    the mean ratio — same ranking direction for the oracle's sake, like
    ``_tfidf_score``): ratio_c6(b) = floor((ct+1)(Nr+B) / ((cr+1)(Nt+B))
    * 1e6 + .5) from exact int64 products via ONE IEEE double division on
    both engines (headroom: ct*Nr < 2^53 ⇒ ~1e8 target tokens per bucket
    at 1e8 raw total — beyond that, pre-scale both counts by 2^-10; the
    ranking is ratio-invariant). Ratios are rounded c6 BEFORE the per-doc
    sum so both engines add the same int64s in any order.

    100 TB shape: this is the one text scorer that needs NO gated twin —
    the "model" is O(B) = 256 int64 pairs no matter the corpus size (the
    whole point of hashed features), so pass 1 is a per-batch bucket-count
    combiner + one 256-key groupby and pass 2 is batch-local with a
    256-entry broadcast. Zero document shuffle on either pass."""
    import ray

    from ..functions.broadcast import get_broadcast

    src = _docs(sf_dir, ["doc_id", "text", "source"])

    def bucket_counts(batch: pa.Table) -> pa.Table:
        rows = _term_rows_batch(batch.select(["doc_id", "text"]))
        if rows.num_rows == 0:
            return pa.schema(
                [("bkt", pa.string()), ("t_cnt", pa.int64()),
                 ("r_cnt", pa.int64())]
            ).empty_table()
        is_t = pc.equal(batch.column("source"), target_source).to_numpy(
            zero_copy_only=False
        )
        # doc rows are batch-aligned: map term rows back via searchsorted
        # on the (sorted-ascending within a batch) doc_id column is unsafe
        # if ids aren't sorted — use a dict instead
        side = dict(zip(batch.column("doc_id").to_pylist(), is_t.tolist()))
        tfs = np.asarray(rows.column("tf"), np.int64)
        terms = rows.column("term").to_pylist()
        bkts = [_dsir_bucket(t) for t in terms]
        t_mask = np.fromiter(
            (side[d] for d in rows.column("doc_id").to_pylist()),
            dtype=bool, count=rows.num_rows,
        )
        return pa.table(
            {"bkt": pa.array(bkts, pa.string()),
             "t_cnt": pa.array(np.where(t_mask, tfs, 0), pa.int64()),
             "r_cnt": pa.array(np.where(t_mask, 0, tfs), pa.int64())}
        ).group_by("bkt").aggregate(
            [("t_cnt", "sum"), ("r_cnt", "sum")]
        ).rename_columns(["bkt", "t_cnt", "r_cnt"])

    from ray.data.aggregate import Sum

    from ..functions.tables import collect_table, stable_rename

    buckets = collect_table(
        src.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby("bkt")
        .aggregate(Sum("t_cnt"), Sum("r_cnt"))
        .map_batches(
            stable_rename(["bkt", "t_cnt", "r_cnt"]),
            batch_format="pyarrow",
        ),
        empty_schema=pa.schema(
            [("bkt", pa.string()), ("t_cnt", pa.int64()),
             ("r_cnt", pa.int64())]
        ),
    )
    ct = np.asarray(buckets.column("t_cnt"), np.int64)
    cr = np.asarray(buckets.column("r_cnt"), np.int64)
    n_t = int(ct.sum()) + DSIR_N_BUCKETS
    n_r = int(cr.sum()) + DSIR_N_BUCKETS
    r_c6 = np.floor(
        ((ct + 1) * n_r).astype(np.float64)
        / ((cr + 1) * n_t).astype(np.float64) * 1_000_000.0 + 0.5
    ).astype(np.int64)
    ratio_of = dict(zip(buckets.column("bkt").to_pylist(), r_c6.tolist()))
    ref = ray.put(ratio_of)

    fields = [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
              ("dsir_weight_c6", pa.int64())]
    if _emit_fp:
        # md5(text) prefix for the deterministic resample threshold test —
        # internal to dsir_resample, never part of the weights contract
        fields.append(("fp16", pa.string()))
    out_schema = pa.schema(fields)

    def score(batch: pa.Table) -> pa.Table:
        lut = get_broadcast(ref)
        raw = batch.filter(
            pc.not_equal(batch.column("source"), target_source)
        )
        rows = _term_rows_batch(raw.select(["doc_id", "text"]))
        if rows.num_rows == 0:
            return out_schema.empty_table()
        ids = np.asarray(rows.column("doc_id"), np.int64)
        tfs = np.asarray(rows.column("tf"), np.int64)
        terms = rows.column("term").to_pylist()
        r = np.fromiter(
            (lut[_dsir_bucket(t)] for t in terms), dtype=np.int64,
            count=len(terms),
        )
        contrib = tfs * r
        bounds = np.concatenate(
            [[0], np.nonzero(np.diff(ids))[0] + 1, [len(ids)]]
        )
        doc_ids = ids[bounds[:-1]]
        sums = np.add.reduceat(contrib, bounds[:-1])
        ntok = np.add.reduceat(tfs, bounds[:-1])
        mean = np.floor(
            sums.astype(np.float64) / ntok.astype(np.float64) + 0.5
        ).astype(np.int64)
        cols = {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_tokens": pa.array(ntok, pa.int64()),
            "dsir_weight_c6": pa.array(mean, pa.int64()),
        }
        if _emit_fp:
            from ..functions.hashing import text_md5

            fp_of = dict(zip(
                raw.column("doc_id").to_pylist(),
                (text_md5(t)[:4] for t in raw.column("text").to_pylist()),
            ))
            cols["fp16"] = pa.array(
                [fp_of[int(d)] for d in doc_ids], pa.string()
            )
        return pa.table(cols)

    return src.map_batches(score, batch_format="pyarrow")


# dsir_resample accept rule: P(keep) ≈ weight/RESAMPLE_DENOM (capped at 1),
# decided by comparing the doc's md5 16-bit prefix against a per-doc hex
# threshold — deterministic, shard-stable, and exactly expressible in SQL
# (fixed-width lowercase hex compares lexicographically as numerically).
DSIR_RESAMPLE_DENOM_C6 = 4_000_000


def dsir_resample(
    sf_dir: str, target_source: str = DSIR_TARGET_SOURCE,
    denom_c6: int = DSIR_RESAMPLE_DENOM_C6,
) -> "rd.Dataset":
    """The actual DSIR step (Xie et al. 2023): importance-RESAMPLE the raw
    corpus toward the target distribution. Each raw doc is kept with
    probability proportional to its importance weight (weight_c6/denom_c6,
    capped at 1), decided by the deterministic md5-prefix test above — the
    same hash-sampling discipline as doc_sample, so re-runs and re-shards
    keep identical docs. Composes dsir_weights (zero-shuffle, 256-bucket
    broadcast model) with a batch-local filter: still zero document
    shuffle end to end."""

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                 ("dsir_weight_c6", pa.int64())]
            ).empty_table()
        w = np.asarray(batch.column("dsir_weight_c6"), np.int64)
        t16 = (w * 65536) // denom_c6
        # weight >= denom means P(keep) = 1: threshold 'g' compares above
        # every hex prefix (a 0xffff cap would drop md5-prefix-'ffff' docs)
        thresh = np.array(
            ["g" if wi >= denom_c6 else format(int(t), "04x")
             for wi, t in zip(w, t16)],
            dtype="<U4",
        )
        fp = np.asarray(batch.column("fp16").to_pylist(), dtype="<U4")
        return batch.filter(pa.array(fp < thresh)).drop_columns(["fp16"])

    return dsir_weights(sf_dir, target_source, _emit_fp=True).map_batches(
        keep, batch_format="pyarrow"
    )


def dup_line_stats(sf_dir: str) -> "rd.Dataset":
    """Within-doc duplicate-line fraction (the Gopher repetition signals
    "duplicate line fraction" / "duplicate line character fraction", Rae et
    al. 2021 §A1.1): per doc, the fraction of non-empty lines that are
    repeats of an earlier identical line, and the fraction of characters
    inside those repeats. Batch-local — two Arrow group_bys per batch, no
    shuffle, text never leaves the scan. Docs with no non-empty line (every
    char is a newline) are dropped, matching the oracle's inner unnest.

    The reference has no per-document repetition scoring (its inputs are
    curated sentences); this is the Gopher-suite counterpart to
    dup_ngram_fraction / top_bigram_fraction above.
    """
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_lines", pa.int64()),
         ("dup_line_frac_c6", pa.int64()), ("dup_char_frac_c6", pa.int64())]
    )

    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        lines = pc.split_pattern(text, "\n")
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        parent = parent.filter(keep)
        if len(flat) == 0:
            return out_schema.empty_table()
        ln = pc.cast(pc.utf8_length(flat), pa.int64())
        # occurrences (c) and char length per distinct (doc, line)
        g = (
            pa.table({"i": parent, "line": flat, "len": ln})
            .group_by(["i", "line"])
            .aggregate([("len", "count"), ("len", "min")])
        )
        c = pc.cast(g.column("len_count"), pa.int64())
        length = g.column("len_min")
        extra = pc.subtract(c, 1)
        s = (
            pa.table(
                {
                    "i": g.column("i"),
                    "n": c,
                    "extra": extra,
                    "chars": pc.multiply(c, length),
                    "extra_chars": pc.multiply(extra, length),
                }
            )
            .group_by("i")
            .aggregate([("n", "sum"), ("extra", "sum"), ("chars", "sum"),
                        ("extra_chars", "sum")])
        )
        n = np.asarray(s.column("n_sum"), np.float64)
        extra_f = np.asarray(s.column("extra_sum"), np.float64)
        chars = np.asarray(s.column("chars_sum"), np.float64)
        extra_chars = np.asarray(s.column("extra_chars_sum"), np.float64)
        c6_line = np.floor(extra_f / n * 1000000.0 + 0.5).astype(np.int64)
        c6_char = np.floor(
            extra_chars / chars * 1000000.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.take(batch.column("doc_id"), s.column("i")),
                "n_lines": pc.cast(s.column("n_sum"), pa.int64()),
                "dup_line_frac_c6": pa.array(c6_line, pa.int64()),
                "dup_char_frac_c6": pa.array(c6_char, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow"
    )


def dup_line_stats_sql() -> str:
    """DuckDB mirror of dup_line_stats: same newline split, same non-empty
    filter, same (sum(c-1)/sum(c)) double expression tree and c6 rounding."""
    return """
        WITH L AS (
            SELECT doc_id, line
            FROM (SELECT doc_id,
                         unnest(string_split(text, chr(10))) AS line
                  FROM documents)
            WHERE line <> ''),
        g AS (
            SELECT doc_id, line, length(line) AS len, count(*) AS c
            FROM L GROUP BY doc_id, line),
        s AS (
            SELECT doc_id,
                   CAST(sum(c) AS BIGINT) AS n_lines,
                   CAST(sum(c - 1) AS DOUBLE) AS extra,
                   CAST(sum(c) AS DOUBLE) AS n,
                   CAST(sum((c - 1) * len) AS DOUBLE) AS extra_chars,
                   CAST(sum(c * len) AS DOUBLE) AS chars
            FROM g GROUP BY doc_id)
        SELECT doc_id, n_lines,
               CAST(floor(extra / n * 1000000.0 + 0.5) AS BIGINT)
                   AS dup_line_frac_c6,
               CAST(floor(extra_chars / chars * 1000000.0 + 0.5) AS BIGINT)
                   AS dup_char_frac_c6
        FROM s
    """


# ------------------------------------------------- Gopher composite filter
# Published Gopher quality-filter rules (Rae et al. 2021, arXiv:2112.11446,
# table A1). Every rule is evaluated with INTEGER arithmetic only
# (cross-multiplied thresholds, e.g. mean-word-length in [3,10] becomes
# 3*n_words <= word_chars <= 10*n_words) so the DuckDB oracle hashes
# identically — no float expression tree at all. All counts are RE2 kernels
# shared verbatim with the oracle; zero shuffle (batch-local map).
GOPHER_WORD_PATTERN = r"\S+"
GOPHER_ALPHA_WORD_PATTERN = r"\S*\p{L}\S*"
GOPHER_BULLET_LINE_PATTERN = r"(?m)^[ \t]*[-*•]"
GOPHER_ELLIPSIS_LINE_PATTERN = r"(?m)(\.\.\.|…)$"
GOPHER_SYMBOL_PATTERN = r"#|\.\.\."
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_filter(sf_dir: str, min_words: int = 50,
                  max_words: int = 100_000) -> "rd.Dataset":
    """Per-doc Gopher rule flags + keep verdict (1 scan, zero shuffle).

    Rules (keep iff ALL hold):
      f_words    min_words <= n_words <= max_words
      f_mean_len 3 <= mean word length <= 10   (3n <= chars <= 10n)
      f_symbol   symbol-to-word ratio ('#' or '...') < 0.1
      f_bullet   <= 10% of lines start with a bullet ('-', '*', '•')
      f_ellipsis <= 30% of lines end with an ellipsis
      f_alpha    >= 80% of words contain at least one letter
      f_stop     >= 2 distinct Gopher stopwords present
    """

    def flags(batch: pa.Table) -> pa.Table:
        text = batch.column("text")

        def cnt(pattern) -> np.ndarray:
            return np.asarray(
                pc.cast(pc.count_substring_regex(text, pattern), pa.int64())
            )

        n_chars = np.asarray(pc.cast(pc.utf8_length(text), pa.int64()))
        n_words = cnt(GOPHER_WORD_PATTERN)
        n_alpha = cnt(GOPHER_ALPHA_WORD_PATTERN)
        n_bullet = cnt(GOPHER_BULLET_LINE_PATTERN)
        n_ellipsis = cnt(GOPHER_ELLIPSIS_LINE_PATTERN)
        n_symbols = cnt(GOPHER_SYMBOL_PATTERN)
        n_lines = cnt(r"\n") + 1
        word_chars = n_chars - cnt(WHITESPACE_PATTERN)
        n_stop = np.zeros(len(n_words), dtype=np.int64)
        for w in GOPHER_STOPWORDS:
            n_stop += np.asarray(
                pc.cast(
                    pc.match_substring_regex(text, rf"(?i)\b{w}\b"),
                    pa.int64(),
                )
            )
        f_words = (n_words >= min_words) & (n_words <= max_words)
        f_mean_len = (3 * n_words <= word_chars) & (word_chars <= 10 * n_words)
        f_symbol = 10 * n_symbols < n_words
        f_bullet = 10 * n_bullet <= n_lines
        f_ellipsis = 10 * n_ellipsis <= 3 * n_lines
        f_alpha = 10 * n_alpha >= 8 * n_words
        f_stop = n_stop >= 2
        keep = (f_words & f_mean_len & f_symbol & f_bullet & f_ellipsis
                & f_alpha & f_stop)

        def i64(a) -> pa.Array:
            return pa.array(a.astype(np.int64), pa.int64())

        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": i64(n_words),
                "n_lines": i64(n_lines),
                "f_words": i64(f_words),
                "f_mean_len": i64(f_mean_len),
                "f_symbol": i64(f_symbol),
                "f_bullet": i64(f_bullet),
                "f_ellipsis": i64(f_ellipsis),
                "f_alpha": i64(f_alpha),
                "f_stop": i64(f_stop),
                "keep": i64(keep),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        flags, batch_format="pyarrow"
    )


def gopher_filter_sql(min_words: int = 50, max_words: int = 100_000) -> str:
    """DuckDB mirror of gopher_filter: identical RE2 patterns, identical
    integer cross-multiplied thresholds — no float anywhere."""
    stop_sum = " + ".join(
        f"(CASE WHEN regexp_matches(text, '(?i)\\b{w}\\b') "
        "THEN 1 ELSE 0 END)"
        for w in GOPHER_STOPWORDS
    )
    return f"""
        WITH s AS (
            SELECT doc_id,
                   length(text) AS n_chars,
                   len(regexp_extract_all(text, '{GOPHER_WORD_PATTERN}'))
                       AS n_words,
                   len(regexp_extract_all(text,
                       '{GOPHER_ALPHA_WORD_PATTERN}')) AS n_alpha,
                   len(regexp_extract_all(text,
                       '{GOPHER_BULLET_LINE_PATTERN}')) AS n_bullet,
                   len(regexp_extract_all(text,
                       '{GOPHER_ELLIPSIS_LINE_PATTERN}')) AS n_ellipsis,
                   len(regexp_extract_all(text, '{GOPHER_SYMBOL_PATTERN}'))
                       AS n_symbols,
                   len(regexp_extract_all(text, '\\n')) + 1 AS n_lines,
                   length(text)
                     - len(regexp_extract_all(text, '{WHITESPACE_PATTERN}'))
                       AS word_chars,
                   {stop_sum} AS n_stop
            FROM documents),
        f AS (
            SELECT doc_id, n_words, n_lines,
                   CASE WHEN n_words >= {min_words}
                         AND n_words <= {max_words} THEN 1 ELSE 0 END
                       AS f_words,
                   CASE WHEN 3 * n_words <= word_chars
                         AND word_chars <= 10 * n_words THEN 1 ELSE 0 END
                       AS f_mean_len,
                   CASE WHEN 10 * n_symbols < n_words THEN 1 ELSE 0 END
                       AS f_symbol,
                   CASE WHEN 10 * n_bullet <= n_lines THEN 1 ELSE 0 END
                       AS f_bullet,
                   CASE WHEN 10 * n_ellipsis <= 3 * n_lines THEN 1 ELSE 0 END
                       AS f_ellipsis,
                   CASE WHEN 10 * n_alpha >= 8 * n_words THEN 1 ELSE 0 END
                       AS f_alpha,
                   CASE WHEN n_stop >= 2 THEN 1 ELSE 0 END AS f_stop
            FROM s)
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(n_words AS BIGINT) AS n_words,
               CAST(n_lines AS BIGINT) AS n_lines,
               CAST(f_words AS BIGINT) AS f_words,
               CAST(f_mean_len AS BIGINT) AS f_mean_len,
               CAST(f_symbol AS BIGINT) AS f_symbol,
               CAST(f_bullet AS BIGINT) AS f_bullet,
               CAST(f_ellipsis AS BIGINT) AS f_ellipsis,
               CAST(f_alpha AS BIGINT) AS f_alpha,
               CAST(f_stop AS BIGINT) AS f_stop,
               CAST(f_words * f_mean_len * f_symbol * f_bullet
                    * f_ellipsis * f_alpha * f_stop AS BIGINT) AS keep
        FROM f
    """


# --------------------------------------------- training-sequence packing
# Concat-and-chunk sequence assembly (the GPT-3/Chinchilla training-data
# layout): the corpus token stream in doc_id order is split into fixed
# seq_len windows; each doc reports its global token offset and the
# sequence ids it lands in. The global offset is a distributed EXCLUSIVE
# PREFIX SCAN — the two-pass shape:
#   pass 1  per-doc token counts → per-bucket sums (combiner groupby over
#           bucket = doc_id // bucket_size, monotone in doc_id so bucket
#           order IS doc order) → driver exclusive scan over ≤ 65,536
#           bucket rows (24 MB of scalars at 1e11 docs — bounded)
#   pass 2  bucket-keyed map_groups sorts each bucket's (doc_id, n_tokens)
#           scalar pairs and adds the broadcast bucket base offset.
# Text never shuffles — only (bucket, doc_id, n_tokens) scalar keys move.
SEQ_PACK_BUCKET_CAP = 65_536


def sequence_pack(sf_dir: str, seq_len: int = 2048,
                  _bucket_floor: int = 4096) -> "rd.Dataset":
    """doc_id → (n_tokens, start_tok, seq_first, seq_last, n_seqs) under
    concat-and-chunk packing at ``seq_len`` tokens per training sequence.
    Zero-token docs occupy no tokens but are pinned to the sequence at
    their offset (seq_last = seq_first, n_seqs = 1) via max(n_tokens, 1).
    ``_bucket_floor`` exists so tests can force a multi-bucket scan on a
    small corpus; production keeps the 4096-doc floor."""
    import math

    import ray

    from ..functions.tables import collect_table

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_tokens", pa.int64()),
            ("start_tok", pa.int64()),
            ("seq_first", pa.int64()),
            ("seq_last", pa.int64()),
            ("n_seqs", pa.int64()),
        ]
    )
    n_docs = _docs(sf_dir, ["doc_id"]).count()
    if n_docs == 0:
        return rd.from_arrow(out_schema.empty_table())
    bucket_size = max(_bucket_floor, math.ceil(n_docs / SEQ_PACK_BUCKET_CAP))

    def counts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        return pa.table(
            {
                "bucket": pc.cast(pc.divide(ids, bucket_size), pa.int64()),
                "doc_id": ids,
                "n_tokens": pc.cast(
                    pc.count_substring_regex(
                        batch.column("text"), TOKEN_PATTERN
                    ),
                    pa.int64(),
                ),
            }
        )

    keyed = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        counts, batch_format="pyarrow"
    )

    def bucket_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "bucket": batch.column("bucket"),
                "tok": batch.column("n_tokens"),
            }
        )
        return t.group_by("bucket").aggregate([("tok", "sum")]) \
            .rename_columns(["bucket", "tok"])

    sums = collect_table(
        coalesce_small(
            keyed.map_batches(bucket_partial, batch_format="pyarrow")
        )
        .groupby("bucket")
        .sum("tok"),
        pa.schema([("bucket", pa.int64()), ("sum(tok)", pa.int64())]),
    )
    b_ids = np.asarray(sums.column("bucket"), dtype=np.int64)
    b_sum = np.asarray(sums.column("sum(tok)"), dtype=np.int64)
    order = np.argsort(b_ids)
    b_ids, b_sum = b_ids[order], b_sum[order]
    bases = np.concatenate([[0], np.cumsum(b_sum)[:-1]])
    base_of = {int(b): int(o) for b, o in zip(b_ids, bases)}
    ref = ray.put(base_of)

    def pack(group: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        bases = get_broadcast(ref)
        ids = np.asarray(group.column("doc_id"), dtype=np.int64)
        ntok = np.asarray(group.column("n_tokens"), dtype=np.int64)
        o = np.argsort(ids)
        ids, ntok = ids[o], ntok[o]
        start = bases[int(group.column("bucket")[0].as_py())] \
            + np.concatenate([[0], np.cumsum(ntok)[:-1]])
        last = start + np.maximum(ntok, 1) - 1
        seq_first = start // seq_len
        seq_last = last // seq_len
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "start_tok": pa.array(start, pa.int64()),
                "seq_first": pa.array(seq_first, pa.int64()),
                "seq_last": pa.array(seq_last, pa.int64()),
                "n_seqs": pa.array(seq_last - seq_first + 1, pa.int64()),
            }
        )

    return keyed.groupby("bucket").map_groups(pack, batch_format="pyarrow")


def sequence_pack_sql(seq_len: int = 2048) -> str:
    """DuckDB mirror of sequence_pack: a window exclusive prefix sum over
    doc_id order, then the same integer-division sequence arithmetic."""
    return f"""
        WITH t AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '{TOKEN_PATTERN}'))
                        AS BIGINT) AS n_tokens
            FROM documents),
        s AS (
            SELECT doc_id, n_tokens,
                   CAST(COALESCE(SUM(n_tokens) OVER (
                            ORDER BY doc_id
                            ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING), 0) AS BIGINT)
                       AS start_tok
            FROM t)
        SELECT doc_id, n_tokens, start_tok,
               start_tok // {seq_len} AS seq_first,
               (start_tok + greatest(n_tokens, 1) - 1) // {seq_len}
                   AS seq_last,
               (start_tok + greatest(n_tokens, 1) - 1) // {seq_len}
                 - start_tok // {seq_len} + 1 AS n_seqs
        FROM s
    """


# ------------------------------------------- token-budget data selection
# "Fill a training-token budget with the best documents" (the DataComp /
# DsDm-style selection step): rank every doc by composite quality
# (quality_c6 DESC, doc_id ASC as the deterministic tie-break) and keep
# the maximal prefix whose cumulative token count fits the budget —
# exactly SQL `SUM(n_tokens) OVER (ORDER BY quality_c6 DESC, doc_id) <=
# budget`. Distributed shape (no global sort, no text shuffle):
#   pass 1  (quality_c6 → Σ tokens) histogram — the c6 domain caps it at
#           1e6+1 rows — driver cumsum DESC finds the BOUNDARY score s*:
#           scores above s* are fully kept, scores below fully dropped,
#           and only s*'s tie group needs doc-level resolution.
#   pass 2  an exclusive prefix scan over the tie group ONLY (bucketed by
#           doc_id exactly like sequence_pack) decides which tied docs
#           still fit the remaining budget.
#   pass 3  the final scan re-derives (quality, tokens) batch-locally and
#           keeps q > s*; the tie survivors union in from pass 2.
TOKEN_BUDGET_DEFAULT = 20_000


def token_budget_select(sf_dir: str,
                        budget_tokens: int = TOKEN_BUDGET_DEFAULT,
                        _bucket_floor: int = 4096,
                        _reader=None) -> "rd.Dataset":
    """Docs selected greedily by quality until ``budget_tokens`` is full.
    Output: (doc_id, quality_c6, n_tokens) of every selected doc.
    ``_reader(columns) -> Dataset`` overrides the documents read so the
    export pipeline can run the same selection over arbitrary
    documents-shaped parquet."""
    import math

    import ray

    from ..functions.tables import collect_table

    read = _reader or (lambda cols: _docs(sf_dir, cols))

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("quality_c6", pa.int64()),
            ("n_tokens", pa.int64()),
        ]
    )

    def q_tok(batch: pa.Table) -> pa.Table:
        s = _quality_score_batch(batch)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "q": s.column("quality_c6"),
                "tok": pc.cast(
                    pc.count_substring_regex(
                        batch.column("text"), TOKEN_PATTERN
                    ),
                    pa.int64(),
                ),
            }
        )

    def hist_partial(batch: pa.Table) -> pa.Table:
        t = q_tok(batch).drop_columns(["doc_id"])
        return t.group_by("q").aggregate([("tok", "sum")]).rename_columns(
            ["q", "tok"]
        )

    hist = collect_table(
        coalesce_small(
            read(["doc_id", "text"]).map_batches(
                hist_partial, batch_format="pyarrow"
            )
        )
        .groupby("q")
        .sum("tok"),
        pa.schema([("q", pa.int64()), ("sum(tok)", pa.int64())]),
    )
    qv = np.asarray(hist.column("q"), dtype=np.int64)
    tv = np.asarray(hist.column("sum(tok)"), dtype=np.int64)
    o = np.argsort(-qv)  # best quality first
    qv, tv = qv[o], tv[o]
    cum = np.cumsum(tv)
    fits = cum <= budget_tokens
    if fits.all():
        full_scores = set(int(x) for x in qv)
        s_star, budget_left = None, 0
    else:
        b = int(np.argmin(fits))  # first score whose whole group overflows
        full_scores = set(int(x) for x in qv[:b])
        s_star = int(qv[b])
        budget_left = budget_tokens - (int(cum[b - 1]) if b else 0)
    full_ref = ray.put(full_scores)

    def keep_full(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        fs = get_broadcast(full_ref)
        t = q_tok(batch)
        mask = np.fromiter(
            (int(x) in fs for x in np.asarray(t.column("q"))),
            dtype=bool, count=t.num_rows,
        )
        return t.filter(pa.array(mask)).rename_columns(
            ["doc_id", "quality_c6", "n_tokens"]
        )

    selected = read(["doc_id", "text"]).map_batches(
        keep_full, batch_format="pyarrow"
    )
    if s_star is None:
        return selected

    # ---- tie group: exclusive prefix scan over docs at exactly s* ----
    def tie_rows(batch: pa.Table) -> pa.Table:
        t = q_tok(batch)
        t = t.filter(pc.equal(t.column("q"), s_star))
        return t.select(["doc_id", "tok"])

    ties = read(["doc_id", "text"]).map_batches(
        tie_rows, batch_format="pyarrow"
    ).materialize()
    n_ties = ties.count()
    # budget_left <= 0 drops no doc the SQL oracle keeps. A zero-token doc
    # is all whitespace (TOKEN_PATTERN is \w+|[^\w\s]), so its mean token
    # length and quality_c6 are 0. A doc with a token has mean token length
    # >= 1 (each token holds a non-whitespace char), so quality_c6 >=
    # 0.2 * 1/8 * 1e6 = 25,000. A tie group therefore never mixes the two;
    # a zero-token group adds 0 to cum, so it never overflows and is never
    # s*. Every doc at s* has a token, and none fits budget_left <= 0.
    if n_ties == 0 or budget_left <= 0:
        return selected
    bucket_size = max(_bucket_floor, math.ceil(n_ties / SEQ_PACK_BUCKET_CAP))

    def bucketed(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bucket",
            pc.cast(pc.divide(batch.column("doc_id"), bucket_size),
                    pa.int64()),
        )

    keyed = ties.map_batches(bucketed, batch_format="pyarrow")

    def bucket_partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["bucket", "tok"])
        return t.group_by("bucket").aggregate([("tok", "sum")]) \
            .rename_columns(["bucket", "tok"])

    sums = collect_table(
        coalesce_small(
            keyed.map_batches(bucket_partial, batch_format="pyarrow")
        )
        .groupby("bucket")
        .sum("tok"),
        pa.schema([("bucket", pa.int64()), ("sum(tok)", pa.int64())]),
    )
    b_ids = np.asarray(sums.column("bucket"), dtype=np.int64)
    b_sum = np.asarray(sums.column("sum(tok)"), dtype=np.int64)
    ob = np.argsort(b_ids)
    b_ids, b_sum = b_ids[ob], b_sum[ob]
    bases = np.concatenate([[0], np.cumsum(b_sum)[:-1]])
    base_of = {int(x): int(y) for x, y in zip(b_ids, bases)}
    base_ref = ray.put(base_of)

    def tie_keep(group: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        bases = get_broadcast(base_ref)
        ids = np.asarray(group.column("doc_id"), dtype=np.int64)
        tok = np.asarray(group.column("tok"), dtype=np.int64)
        og = np.argsort(ids)
        ids, tok = ids[og], tok[og]
        start = bases[int(group.column("bucket")[0].as_py())] \
            + np.concatenate([[0], np.cumsum(tok)[:-1]])
        keep = start + tok <= budget_left
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "quality_c6": pa.array(
                    np.full(int(keep.sum()), s_star, np.int64)
                ),
                "n_tokens": pa.array(tok[keep], pa.int64()),
            }
        )

    tie_kept = keyed.groupby("bucket").map_groups(
        tie_keep, batch_format="pyarrow"
    )
    return selected.union(tie_kept).map_batches(
        lambda b: b.select(["doc_id", "quality_c6", "n_tokens"]),
        batch_format="pyarrow",
    )


def token_budget_select_sql(
    quality_sql: str,
    budget_tokens: int = TOKEN_BUDGET_DEFAULT,
) -> str:
    """DuckDB mirror: inclusive running token sum over (quality DESC,
    doc_id) kept while <= budget — identical to the engine's
    start_tok + n_tokens <= budget with an exclusive prefix sum.
    ``quality_sql`` is the quality_score oracle (it lives beside the
    other oracles in __ray_entry__) so the score expression tree is
    shared, not duplicated."""
    return f"""
        WITH q AS (
            SELECT doc_id, quality_c6,
                   CAST(len(regexp_extract_all(text, '{TOKEN_PATTERN}'))
                        AS BIGINT) AS n_tokens
            FROM documents
            JOIN ({quality_sql}) USING (doc_id)),
        s AS (
            SELECT doc_id, quality_c6, n_tokens,
                   SUM(n_tokens) OVER (
                       ORDER BY quality_c6 DESC, doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS cum
            FROM q)
        SELECT doc_id, quality_c6, n_tokens
        FROM s WHERE cum <= {budget_tokens}
    """


# ----------------------------------------------- ranked keyword retrieval
# Search-engine-shaped ranked retrieval over the corpus: for a fixed term
# query, score = Σ_t tf_t · (N+1)/(df_t+1) — the log-free idf variant the
# repo's tfidf already proved hashes bit-identically across engines
# (cast / divide / multiply / add are exact IEEE ops applied in a fixed
# term order; no transcendental functions). Two passes, zero shuffle:
#   pass 1  per-batch partial df counts (|terms| ints per batch) → driver
#           sum — a |terms|-column reduce, nothing keyed
#   pass 2  per-batch tf counts + scores + LOCAL top-k combiner, then a
#           global sort+limit over ≤ k·blocks candidate rows.
# Both the engine and the oracle rank on the c6-scaled integer score
# (desc, doc_id asc), so float ties cannot reorder across engines.
KEYWORD_QUERY = ("vector", "merge", "slow")
KEYWORD_TOPK = 20


def keyword_search(sf_dir: str, terms=KEYWORD_QUERY,
                   k: int = KEYWORD_TOPK) -> "rd.Dataset":
    """Top-k docs for a boundary-delimited case-insensitive term query.
    Output: (doc_id, tf_<term>..., score_c6), best first."""
    from ..functions.tables import collect_table

    patterns = [rf"(?i)\b{t}\b" for t in terms]
    n_docs = _docs(sf_dir, ["doc_id"]).count()

    def df_partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        cols = {}
        for i, p in enumerate(patterns):
            hit = pc.greater(pc.count_substring_regex(text, p), 0)
            cols[f"df{i}"] = pa.array(
                [int(pc.sum(pc.cast(hit, pa.int64())).as_py() or 0)],
                pa.int64(),
            )
        return pa.table(cols)

    df_schema = pa.schema([(f"df{i}", pa.int64())
                           for i in range(len(patterns))])
    parts = collect_table(
        _docs(sf_dir, ["text"]).map_batches(df_partial,
                                            batch_format="pyarrow"),
        df_schema,
    )
    ratios = [
        float(n_docs + 1)
        / float(int(pc.sum(parts.column(f"df{i}")).as_py() or 0) + 1)
        for i in range(len(patterns))
    ]

    def score_topk(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        tfs = [
            np.asarray(
                pc.cast(pc.count_substring_regex(text, p), pa.int64())
            )
            for p in patterns
        ]
        score = tfs[0].astype(np.float64) * ratios[0]
        for tf, r in zip(tfs[1:], ratios[1:]):
            score = score + tf.astype(np.float64) * r
        c6 = np.floor(score * 1_000_000.0 + 0.5).astype(np.int64)
        hit = np.nonzero(c6 > 0)[0]
        top = hit[np.lexsort((ids[hit], -c6[hit]))][:k]  # local combiner
        out = {"doc_id": pa.array(ids[top], pa.int64())}
        for t, tf in zip(terms, tfs):
            out[f"tf_{t}"] = pa.array(tf[top], pa.int64())
        out["score_c6"] = pa.array(c6[top], pa.int64())
        return pa.table(out)

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(score_topk, batch_format="pyarrow")
        .sort(["score_c6", "doc_id"], descending=[True, False])
        .limit(k)
    )


def keyword_search_sql(terms=KEYWORD_QUERY, k: int = KEYWORD_TOPK) -> str:
    """DuckDB mirror of keyword_search: identical RE2 tf counts, the same
    (N+1)/(df+1) double ratios applied in the same term order, ranked on
    the identical c6 integer."""
    tf_cols = ",\n                   ".join(
        f"len(regexp_extract_all(text, '(?i)\\b{t}\\b')) AS tf_{t}"
        for t in terms
    )
    df_cols = ", ".join(
        f"count(*) FILTER (WHERE tf_{t} > 0) AS df_{t}" for t in terms
    )
    score = " + ".join(
        f"CAST(tf_{t} AS DOUBLE) * (CAST(d.n + 1 AS DOUBLE) / (d.df_{t} + 1))"
        for t in terms
    )
    tf_out = ", ".join(f"tf_{t}" for t in terms)
    return f"""
        WITH tf AS (
            SELECT doc_id,
                   {tf_cols}
            FROM documents),
        d AS (
            SELECT {df_cols}, count(*) AS n FROM tf)
        SELECT doc_id, {tf_out},
               CAST(floor(({score}) * 1000000.0 + 0.5) AS BIGINT)
                   AS score_c6
        FROM tf, d
        WHERE CAST(floor(({score}) * 1000000.0 + 0.5) AS BIGINT) > 0
        ORDER BY score_c6 DESC, doc_id
        LIMIT {k}
    """


def quality_percentile_by_lang(sf_dir: str) -> "rd.Dataset":
    """PARTITIONED window at scale: PERCENT_RANK() OVER (PARTITION BY lang
    ORDER BY quality_c6) for every doc. Same bounded-histogram shape as
    quality_percentile, keyed (lang, score_c6) — the histogram is capped
    at |langs| × 1e6+1 rows regardless of corpus size, the driver cumsum
    runs per partition, and the second scan maps (lang, score) →
    percentile through one broadcast dict. Tie and single-row-partition
    semantics match SQL exactly (cnt_less/(n_part-1), 0 when a partition
    has one doc)."""
    import ray

    from ..functions.tables import collect_table

    def hist_partial(batch: pa.Table) -> pa.Table:
        s = _quality_score_batch(batch)
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "q": s.column("quality_c6"),
                "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return t.group_by(["lang", "q"]).aggregate([("n", "sum")]) \
            .rename_columns(["lang", "q", "n"])

    hist = collect_table(
        coalesce_small(
            _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
                hist_partial, batch_format="pyarrow"
            )
        )
        .groupby(["lang", "q"])
        .sum("n"),
        pa.schema([("lang", pa.string()), ("q", pa.int64()),
                   ("sum(n)", pa.int64())]),
    )
    langs = hist.column("lang").to_pylist()
    qv = np.asarray(hist.column("q"), dtype=np.int64)
    cn = np.asarray(hist.column("sum(n)"), dtype=np.int64)
    pr_of: dict = {}
    for lang in set(langs):
        sel = np.fromiter((x == lang for x in langs), dtype=bool,
                          count=len(langs))
        lq, lc = qv[sel], cn[sel]
        o = np.argsort(lq)
        lq, lc = lq[o], lc[o]
        less = np.concatenate([[0], np.cumsum(lc)[:-1]])
        denom = max(int(lc.sum()) - 1, 1)
        for s, l in zip(lq, less):
            pr_of[(lang, int(s))] = int(
                np.floor(l / denom * 1_000_000.0 + 0.5)
            )
    ref = ray.put(pr_of)

    def tag(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        m = get_broadcast(ref)
        s = _quality_score_batch(batch)
        qs = np.asarray(s.column("quality_c6"), dtype=np.int64)
        ls = batch.column("lang").to_pylist()
        pr = np.fromiter(
            (m[(lang, int(x))] for lang, x in zip(ls, qs)),
            dtype=np.int64, count=len(qs),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "quality_c6": s.column("quality_c6"),
                "pctile_c6": pa.array(pr, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        tag, batch_format="pyarrow"
    )
