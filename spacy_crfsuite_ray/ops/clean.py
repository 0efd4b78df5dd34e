"""Corpus-cleaning / safety operators over the ``documents`` table.

The PII patterns and the whitespace-normalization rule are RE2 expressions
shared verbatim with the DuckDB oracles (both engines run RE2-compatible
regex), so counts, replacements, and post-transform md5 fingerprints hash
identically on both sides. Reference scope: talmago/spacy_crfsuite has no
cleaning stage (its inputs are pre-curated CoNLL/markdown examples —
``spacy_crfsuite/train.py:1-40``); these are the web-corpus stages a
100 TB training-data pipeline needs in front of it (ROOTS/Dolma-style PII
scrubbing, Dolma-style normalized exact dedup).

Scale notes: ``pii_scrub`` is a single pruned scan with zero shuffle —
regex counting and replacement are per-row Arrow kernels. ``norm_dedup``
shuffles only (md5-hex, doc_id, count) triples pre-combined per batch; the
text column never leaves the scan stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.cluster import join_partitions as _small_parts_cap
from ..functions.tables import stable_rename

# RE2 PII patterns — deliberately simple, anchored on word boundaries where
# digits are involved so they behave identically in Arrow and DuckDB. Order
# of redaction is EMAIL -> IPV4 -> PHONE (the oracle nests regexp_replace
# in the same order; counts are taken on the ORIGINAL text).
PII_EMAIL = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE = r"\b\d{3}[-.]\d{3}[-.]\d{4}\b"

PII_REDACTIONS = (
    (PII_EMAIL, "<EMAIL>"),
    (PII_IPV4, "<IP>"),
    (PII_PHONE, "<PHONE>"),
)

# Whitespace-normalization rule for normalized exact dedup: lowercase,
# collapse ASCII whitespace runs to one space, trim spaces. RE2 \s is
# ASCII-only in both engines; trimming is restricted to ' ' (NOT unicode
# whitespace) because after the collapse only single spaces can remain at
# the edges — and DuckDB trim() is space-only.
NORM_WS = r"\s+"


from ..functions.tables import read_documents as _docs


def pii_scrub(sf_dir: str) -> "rd.Dataset":
    """Per-doc PII detection + redaction: counts of email / IPv4 / phone
    matches on the original text, plus md5 of the text after redacting all
    three in a fixed order. One pruned scan, no shuffle; regex kernels are
    vectorized (pc.count_substring_regex / pc.replace_substring_regex),
    only the md5 (the oracle contract) touches Python per row."""

    def scrub(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import text_md5

        text = batch.column("text")

        def cnt(pattern):
            return pc.cast(pc.count_substring_regex(text, pattern), pa.int64())

        redacted = text
        for pattern, token in PII_REDACTIONS:
            redacted = pc.replace_substring_regex(redacted, pattern, token)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_email": cnt(PII_EMAIL),
                "n_ipv4": cnt(PII_IPV4),
                "n_phone": cnt(PII_PHONE),
                "clean_fp": pa.array(
                    [text_md5(t) for t in redacted.to_pylist()], pa.string()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        scrub, batch_format="pyarrow"
    )


def pii_scrub_sql() -> str:
    """DuckDB mirror of pii_scrub: same RE2 patterns, counts on the original
    text, same EMAIL -> IPV4 -> PHONE replacement nesting."""
    (e_pat, e_tok), (i_pat, i_tok), (p_pat, p_tok) = PII_REDACTIONS
    return f"""
        SELECT doc_id,
               len(regexp_extract_all(text, '{e_pat}')) AS n_email,
               len(regexp_extract_all(text, '{i_pat}')) AS n_ipv4,
               len(regexp_extract_all(text, '{p_pat}')) AS n_phone,
               md5(regexp_replace(regexp_replace(regexp_replace(text,
                   '{e_pat}', '{e_tok}', 'g'),
                   '{i_pat}', '{i_tok}', 'g'),
                   '{p_pat}', '{p_tok}', 'g')) AS clean_fp
        FROM documents
    """


def _norm_fp_rows(batch: pa.Table) -> pa.Table:
    """(norm_hash, keep_doc_id, n) partials: normalize, md5, combine within
    the batch so the shuffle moves one row per distinct normalized text per
    batch — the text column dies here."""
    from ..functions.hashing import text_md5

    norm = pc.utf8_trim(
        pc.replace_substring_regex(
            pc.utf8_lower(batch.column("text")), NORM_WS, " "
        ),
        " ",
    )
    t = pa.table(
        {
            "norm_hash": pa.array(
                [text_md5(s) for s in norm.to_pylist()], pa.string()
            ),
            "keep_doc_id": batch.column("doc_id"),
            "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        }
    )
    return (
        t.group_by("norm_hash")
        .aggregate([("keep_doc_id", "min"), ("n", "sum")])
        .rename_columns(["norm_hash", "keep_doc_id", "n"])
    )


def norm_dedup(sf_dir: str) -> "rd.Dataset":
    """Normalized exact dedup (Dolma-style): lowercase + whitespace-collapse
    + trim, md5 the normalized text, keep the min doc_id per group and count
    members. Same first-wins shape as ops.dedup.exact_dedup but keyed on the
    NORMALIZED fingerprint, so trivially-reformatted copies collapse too."""
    from ray.data.aggregate import Min, Sum

    ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_norm_fp_rows, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=4))
        .groupby("norm_hash")
        .aggregate(Min("keep_doc_id"), Sum("n"))
    )
    return ds.map_batches(
        stable_rename(["norm_hash", "keep_doc_id", "n_docs"]),
        batch_format="pyarrow",
    )


def norm_dedup_sql() -> str:
    """DuckDB mirror of norm_dedup: same lower -> \\s+ collapse -> trim
    normalization, md5, min/count per group."""
    return f"""
        WITH h AS (
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(text), '{NORM_WS}', ' ',
                                           'g'))) AS norm_hash
            FROM documents)
        SELECT norm_hash,
               min(doc_id) AS keep_doc_id,
               count(*) AS n_docs
        FROM h GROUP BY norm_hash
    """


def _dedup_lines_frame(batch: pa.Table):
    """Shared core of dedup_lines / scrub_batch: per doc, drop lines
    that repeat an earlier identical line (first wins, order preserved —
    pandas groupby preserves within-group row order, matching the oracle's
    (x, i) -> list_position(ls, x) = i lambda). Returns (row indices into
    the batch, cleaned texts, n_kept, n_removed) as aligned arrays."""
    import pandas as pd

    lines = pc.split_pattern(batch.column("text"), "\n")
    df = pd.DataFrame(
        {
            "i": pc.list_parent_indices(lines).to_numpy(
                zero_copy_only=False
            ),
            "line": pc.list_flatten(lines).to_pylist(),
        }
    )
    kept = df[~df.duplicated(["i", "line"])]
    joined = kept.groupby("i", sort=True)["line"].agg("\n".join)
    n_total = df.groupby("i", sort=True).size()
    n_kept = kept.groupby("i", sort=True).size()
    return (
        joined.index.to_numpy(),
        joined.to_numpy(),
        n_kept.to_numpy(np.int64),
        (n_total - n_kept).to_numpy(np.int64),
    )


def dedup_lines(sf_dir: str) -> "rd.Dataset":
    """Within-doc duplicate-line REMOVAL (the transform counterpart of
    ops.text.dup_line_stats, the C4/Dolma "dedupe repeated lines" step):
    drop every line that repeats an earlier identical line in the same doc
    (first occurrence wins, order preserved), rejoin with newlines, and
    emit the cleaned text's md5 plus kept/removed counts. Batch-local, no
    shuffle; the only per-row Python is the md5 (the oracle contract) and
    the join of kept lines."""

    def transform(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import text_md5

        idx, cleaned, n_kept, n_removed = _dedup_lines_frame(batch)
        return pa.table(
            {
                "doc_id": pc.take(
                    batch.column("doc_id"), pa.array(idx, pa.int64())
                ),
                "n_lines_kept": pa.array(n_kept, pa.int64()),
                "n_lines_removed": pa.array(n_removed, pa.int64()),
                "clean_fp": pa.array(
                    [text_md5(t) for t in cleaned], pa.string()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        transform, batch_format="pyarrow"
    )


def dedup_lines_sql() -> str:
    """DuckDB mirror of dedup_lines: the (x, i) -> list_position(ls, x) = i
    lambda keeps exactly the first occurrence of each line in order."""
    return """
        WITH s AS (
            SELECT doc_id, string_split(text, chr(10)) AS ls
            FROM documents),
        k AS (
            SELECT doc_id, ls,
                   list_filter(ls, (x, i) -> list_position(ls, x) = i)
                       AS kept
            FROM s)
        SELECT doc_id,
               len(kept) AS n_lines_kept,
               len(ls) - len(kept) AS n_lines_removed,
               md5(array_to_string(kept, chr(10))) AS clean_fp
        FROM k
    """


def scrub_batch(batch: pa.Table) -> pa.Table:
    """Per-batch scrub kernel: within-doc duplicate-line removal (first
    wins, order preserved) then PII redaction in the fixed EMAIL -> IPV4 ->
    PHONE order — cleaned text, per-doc counts, all passthrough columns.
    Map-only, so the scrub and export pipelines run it with zero shuffle;
    cross-doc dedup stays a separate op (norm_dedup / exact_dedup /
    minhash) because it needs one."""
    idx_np, cleaned, _, n_removed = _dedup_lines_frame(batch)
    idx = pa.array(idx_np, pa.int64())
    text = pa.array(cleaned, pa.string())
    n_red = np.zeros(len(cleaned), dtype=np.int64)
    for pattern, token in PII_REDACTIONS:
        n_red += np.asarray(
            pc.count_substring_regex(text, pattern), dtype=np.int64
        )
        text = pc.replace_substring_regex(text, pattern, token)
    cols = {}
    for name in batch.schema.names:
        if name == "text":
            cols["text"] = text
        elif name == "n_chars":
            cols["n_chars"] = pc.cast(pc.utf8_length(text), pa.int64())
        else:
            cols[name] = pc.take(batch.column(name), idx)
    cols["n_lines_removed"] = pa.array(n_removed, pa.int64())
    cols["n_pii_redacted"] = pa.array(n_red, pa.int64())
    return pa.table(cols)


# Pile-style domain-mixing weights: named sources are up/down-weighted
# against a default. Accept probability = weight (capped at 1), decided by
# the same deterministic md5-prefix threshold as dsir_resample/doc_sample.
MIXTURE_WEIGHTS = (("src0", 1.0), ("src1", 0.75), ("src2", 0.5))
MIXTURE_DEFAULT_WEIGHT = 0.25


def _mix_threshold_hex(weight: float) -> str:
    """Fixed-width lowercase hex of floor(weight * 65536) — lexicographic
    compare against substr(md5(text), 1, 4) equals numeric. Weight >= 1
    returns 'g', which sorts above every hex prefix (hex digits top out at
    'f'), so full-weight sources keep ALL docs — a 0xffff cap would
    silently drop the ~1/65536 of docs whose md5 prefix is 'ffff'. The SQL
    oracle is generated from this same function, so parity holds."""
    if weight >= 1.0:
        return "g"
    return format(int(weight * 65536), "04x")


def source_mixture_sample(sf_dir: str) -> "rd.Dataset":
    """Training-mixture construction (the Pile/Dolma source-weighting
    step): keep each doc with probability equal to its source's mixing
    weight, decided by the deterministic md5-prefix threshold — shard- and
    re-run-stable, zero shuffle, one pruned scan. Emits the kept docs'
    (doc_id, source) plus the applied threshold so the mix is auditable."""
    weight_of = dict(MIXTURE_WEIGHTS)

    def keep(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import text_md5

        src = batch.column("source").to_pylist()
        thresh = np.array(
            [_mix_threshold_hex(
                weight_of.get(s2, MIXTURE_DEFAULT_WEIGHT)) for s2 in src],
            dtype="<U4",
        )
        fp = np.array(
            [text_md5(t)[:4] for t in batch.column("text").to_pylist()],
            dtype="<U4",
        )
        out = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "keep_threshold": pa.array(thresh.tolist(), pa.string()),
            }
        )
        return out.filter(pa.array(fp < thresh))

    return _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
        keep, batch_format="pyarrow"
    )


def source_mixture_sample_sql() -> str:
    """DuckDB mirror of source_mixture_sample: same per-source hex
    thresholds, same md5-prefix accept test."""
    cases = "\n                        ".join(
        f"WHEN '{s}' THEN '{_mix_threshold_hex(w)}'"
        for s, w in MIXTURE_WEIGHTS
    )
    return f"""
        SELECT doc_id, source,
               CASE source
                        {cases}
                        ELSE '{_mix_threshold_hex(MIXTURE_DEFAULT_WEIGHT)}'
               END AS keep_threshold
        FROM documents
        WHERE substr(md5(text), 1, 4) < CASE source
                        {cases}
                        ELSE '{_mix_threshold_hex(MIXTURE_DEFAULT_WEIGHT)}'
               END
    """


# distinct-fingerprint merge gate for corpus_report — same discipline as
# sketch.DISTINCT_DRIVER_MAX_ROWS: below it the per-batch md5 lists merge
# on the driver (≤ rows × 16 bytes), above it a distributed groupby counts
# distinct fingerprints. Equality of the paths is tested.
REPORT_DRIVER_MAX_ROWS = 5_000_000


def corpus_report(sf_dir: str):
    """One-row corpus health report — the first query a user runs against
    a new corpus: doc/char/token counts, distinct languages, docs with any
    PII hit, and exact + normalized duplicate-document counts. ONE pruned
    scan: every scalar folds from a per-batch combiner (counts, distinct
    langs, binary md5 digests of raw and normalized text); distinct
    fingerprints merge on the driver below REPORT_DRIVER_MAX_ROWS and via
    a distributed groupby above it."""
    from ..core.tokenizer import TOKEN_PATTERN
    from ..functions.tables import read_documents

    pii_any = "|".join(p for p, _ in PII_REDACTIONS)

    def partial(batch: pa.Table) -> pa.Table:
        import hashlib

        text = batch.column("text")
        norm = pc.utf8_trim(
            pc.replace_substring_regex(pc.utf8_lower(text), NORM_WS, " "),
            " ",
        )
        raw_fp = [
            hashlib.md5(t.encode()).digest() for t in text.to_pylist()
        ]
        norm_fp = [
            hashlib.md5(t.encode()).digest() for t in norm.to_pylist()
        ]
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "total_chars": pa.array(
                    [pc.sum(pc.utf8_length(text)).as_py() or 0], pa.int64()
                ),
                "total_tokens": pa.array(
                    [pc.sum(pc.count_substring_regex(
                        text, TOKEN_PATTERN)).as_py() or 0],
                    pa.int64(),
                ),
                "docs_with_pii": pa.array(
                    [pc.sum(pc.cast(pc.match_substring_regex(
                        text, pii_any), pa.int64())).as_py() or 0],
                    pa.int64(),
                ),
                "langs": pa.array(
                    [sorted(set(batch.column("lang").to_pylist()))],
                    pa.list_(pa.string()),
                ),
                "raw_fp": pa.array([b"".join(sorted(set(raw_fp)))],
                                   pa.binary()),
                "norm_fp": pa.array([b"".join(sorted(set(norm_fp)))],
                                    pa.binary()),
            }
        )

    import pyarrow.parquet as pq

    from ..functions.tables import collect_table

    src = read_documents(sf_dir, ["text", "lang"])
    n_rows = pq.read_metadata(
        f"{sf_dir}/documents.parquet"
    ).num_rows
    partials = src.map_batches(partial, batch_format="pyarrow")

    if n_rows <= REPORT_DRIVER_MAX_ROWS:
        tbl = collect_table(
            partials,
            empty_schema=pa.schema(
                [("n_docs", pa.int64()), ("total_chars", pa.int64()),
                 ("total_tokens", pa.int64()), ("docs_with_pii", pa.int64()),
                 ("langs", pa.list_(pa.string())),
                 ("raw_fp", pa.binary()), ("norm_fp", pa.binary())]
            ),
        )

        def distinct_digests(col) -> int:
            blobs = set()
            for buf in tbl.column(col).to_pylist():
                blobs.update(
                    buf[i:i + 16] for i in range(0, len(buf), 16)
                )
            return len(blobs)

        n_docs = int(pc.sum(tbl.column("n_docs")).as_py() or 0)
        langs = set()
        for ls in tbl.column("langs").to_pylist():
            langs.update(ls)
        n_exact_distinct = distinct_digests("raw_fp")
        n_norm_distinct = distinct_digests("norm_fp")
        total_chars = int(pc.sum(tbl.column("total_chars")).as_py() or 0)
        total_tokens = int(pc.sum(tbl.column("total_tokens")).as_py() or 0)
        docs_with_pii = int(
            pc.sum(tbl.column("docs_with_pii")).as_py() or 0
        )
    else:
        # distributed: scalars fold from the same partials; each distinct
        # count is a fingerprint groupby (the exact at-scale shape)
        tbl = collect_table(
            partials.select_columns(
                ["n_docs", "total_chars", "total_tokens", "docs_with_pii"]
            ),
            empty_schema=pa.schema(
                [("n_docs", pa.int64()), ("total_chars", pa.int64()),
                 ("total_tokens", pa.int64()),
                 ("docs_with_pii", pa.int64())]
            ),
        )
        n_docs = int(pc.sum(tbl.column("n_docs")).as_py() or 0)
        total_chars = int(pc.sum(tbl.column("total_chars")).as_py() or 0)
        total_tokens = int(pc.sum(tbl.column("total_tokens")).as_py() or 0)
        docs_with_pii = int(
            pc.sum(tbl.column("docs_with_pii")).as_py() or 0
        )

        def fp_rows(col):
            def fn(batch: pa.Table) -> pa.Table:
                out = partial(batch)
                buf = out.column(col)[0].as_py()
                return pa.table(
                    {"fp": pa.array(
                        [buf[i:i + 16]
                         for i in range(0, len(buf), 16)], pa.binary()
                    )}
                )
            return fn

        n_exact_distinct = (
            src.map_batches(fp_rows("raw_fp"), batch_format="pyarrow")
            .groupby("fp").count().count()
        )
        n_norm_distinct = (
            src.map_batches(fp_rows("norm_fp"), batch_format="pyarrow")
            .groupby("fp").count().count()
        )
        langs = set(src.select_columns(["lang"]).unique("lang"))

    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "total_chars": pa.array([total_chars], pa.int64()),
            "total_tokens": pa.array([total_tokens], pa.int64()),
            "n_langs": pa.array([len(langs)], pa.int64()),
            "docs_with_pii": pa.array([docs_with_pii], pa.int64()),
            "exact_dup_docs": pa.array(
                [n_docs - n_exact_distinct], pa.int64()
            ),
            "norm_dup_docs": pa.array(
                [n_docs - n_norm_distinct], pa.int64()
            ),
        }
    )


def corpus_report_sql() -> str:
    """DuckDB mirror of corpus_report: the same scalars in one SELECT."""
    from ..core.tokenizer import TOKEN_PATTERN

    pii_any = "|".join(p for p, _ in PII_REDACTIONS)
    return f"""
        SELECT CAST(count(*) AS BIGINT) AS n_docs,
               CAST(COALESCE(sum(length(text)), 0) AS BIGINT)
                   AS total_chars,
               CAST(COALESCE(sum(len(regexp_extract_all(text,
                   '{TOKEN_PATTERN}'))), 0) AS BIGINT) AS total_tokens,
               CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
               CAST(COALESCE(sum(CASE WHEN regexp_matches(text,
                   '{pii_any}') THEN 1 ELSE 0 END), 0) AS BIGINT)
                   AS docs_with_pii,
               CAST(count(*) - count(DISTINCT md5(text)) AS BIGINT)
                   AS exact_dup_docs,
               CAST(count(*) - count(DISTINCT md5(trim(regexp_replace(
                   lower(text), '{NORM_WS}', ' ', 'g')))) AS BIGINT)
                   AS norm_dup_docs
        FROM documents
    """


# --------------------------------------- global paragraph dedup (removal)
# C4/RefinedWeb-shape cross-document repetition removal: a non-empty
# paragraph that appears anywhere else in the corpus survives ONLY at its
# globally-first occurrence (order = (doc_id, paragraph_idx)); every doc is
# reassembled without its removed paragraphs. Scale shape:
#   pass 1  batch-local paragraph explode → (md5, pk, 1) combiner rows
#           (pk packs the global order: doc_id * STRIDE + idx; text dies
#           at the scan) → groupby(md5): min(pk), count → only hashes with
#           count ≥ 2 survive — the DUPLICATED-paragraph table, typically
#           ≪ corpus size.
#   pass 2  if that table fits PARA_DEDUP_BROADCAST_MAX it broadcasts and
#           the rewrite is a second batch-local scan (zero text shuffle);
#           above the gate `_dedup_paragraphs_joined` runs: scalar
#           (doc_id, idx, md5, pk) rows join the dup table, removal
#           (doc_id, idx) keys aggregate to per-doc lists, and ONE
#           left-outer join ships each doc's text through the shuffle
#           exactly once. Paths are equality-tested.
PARA_DEDUP_BROADCAST_MAX = 2_000_000
# paragraphs-per-doc bound for the packed first-wins key doc_id * STRIDE +
# idx; a doc with more paragraphs raises instead of colliding with the next
PARA_PK_STRIDE = 1_000_000


def _para_key_arrays(batch: pa.Table):
    """Vectorized paragraph explode with aligned arrays: parent row index,
    within-doc idx, per-doc paragraph counts, paragraph texts, md5 of each
    non-empty paragraph ('' sentinel for empties — always kept, never
    hashed), and the packed global-order key pk."""
    from ..functions.hashing import text_md5

    paras = pc.split_pattern(batch.column("text"), "\n")
    parent = pc.list_parent_indices(paras).to_numpy(zero_copy_only=False)
    counts = pc.list_value_length(paras).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    if len(counts) and counts.max() > PARA_PK_STRIDE:
        row = int(counts.argmax())
        raise ValueError(
            f"doc_id {batch.column('doc_id')[row].as_py()} has "
            f"{int(counts[row])} paragraphs; the packed paragraph key "
            f"allows at most PARA_PK_STRIDE={PARA_PK_STRIDE}"
        )
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]) \
        if len(counts) else np.zeros(0, np.int64)
    total = int(counts.sum())
    idx = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    doc_ids = np.asarray(batch.column("doc_id"), dtype=np.int64)[parent]
    pk = doc_ids * PARA_PK_STRIDE + idx
    texts = pc.list_flatten(paras).to_pylist()
    hs = [text_md5(s) if s else "" for s in texts]
    return parent, idx, counts, texts, hs, pk


def _para_fp_rows(batch: pa.Table) -> pa.Table:
    """(md5, min pk, n) combiner rows for the batch's non-empty paragraphs."""
    _, _, _, _, hs, pk = _para_key_arrays(batch)
    mask = np.fromiter((h != "" for h in hs), dtype=bool, count=len(hs))
    t = pa.table(
        {
            "h": pa.array([h for h in hs if h], pa.string()),
            "pk": pa.array(pk[mask], pa.int64()),
            "n": pa.array(np.ones(int(mask.sum()), dtype=np.int64)),
        }
    )
    return (
        t.group_by("h")
        .aggregate([("pk", "min"), ("n", "sum")])
        .rename_columns(["h", "pk", "n"])
    )


def _dup_para_table(sf_dir: str) -> "rd.Dataset":
    """Distributed (md5 → min pk) table of DUPLICATED paragraphs only."""
    from ray.data.aggregate import Min, Sum

    ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_para_fp_rows, batch_format="pyarrow")
        .repartition(_small_parts_cap(cap=4))
        .groupby("h")
        .aggregate(Min("pk"), Sum("n"))
        .map_batches(
            stable_rename(["h", "mpk", "n"]),
            batch_format="pyarrow",
        )
    )

    def dup_only(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("n"), 2)
        ).select(["h", "mpk"])

    return ds.map_batches(dup_only, batch_format="pyarrow").materialize()


def _para_reassemble(batch: pa.Table, keep: np.ndarray, parent, counts,
                     texts) -> pa.Table:
    """Rejoin each doc's kept paragraphs ('\\n'-separated, order preserved)
    and emit (doc_id, n_paras, n_paras_removed, clean_fp)."""
    import pandas as pd

    from ..functions.hashing import text_md5

    df = pd.DataFrame({"i": parent, "para": texts})
    kept = df[keep]
    joined = kept.groupby("i", sort=True)["para"].agg("\n".join) \
        .reindex(range(batch.num_rows), fill_value="")
    n_kept = kept.groupby("i", sort=True).size() \
        .reindex(range(batch.num_rows), fill_value=0).to_numpy(np.int64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_paras": pa.array(counts, pa.int64()),
            "n_paras_removed": pa.array(counts - n_kept, pa.int64()),
            "clean_fp": pa.array(
                [text_md5(t) for t in joined.to_numpy()], pa.string()
            ),
        }
    )


def dedup_paragraphs(sf_dir: str) -> "rd.Dataset":
    """Cross-document duplicate-paragraph REMOVAL (global first-wins):
    see the block comment above for the two-pass scale shape."""
    import ray

    from ..functions.tables import collect_table

    dup_ds = _dup_para_table(sf_dir)
    if dup_ds.count() > PARA_DEDUP_BROADCAST_MAX:
        return _dedup_paragraphs_joined(sf_dir, dup_ds)

    tbl = collect_table(
        dup_ds, pa.schema([("h", pa.string()), ("mpk", pa.int64())])
    )
    mpk_of = dict(
        zip(tbl.column("h").to_pylist(), tbl.column("mpk").to_pylist())
    )
    ref = ray.put(mpk_of)

    def transform(batch: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        m = get_broadcast(ref)
        parent, _, counts, texts, hs, pk = _para_key_arrays(batch)
        keep = np.fromiter(
            (h == "" or m.get(h, p) == p for h, p in zip(hs, pk)),
            dtype=bool, count=len(hs),
        )
        return _para_reassemble(batch, keep, parent, counts, texts)

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        transform, batch_format="pyarrow"
    )


def _dedup_paragraphs_joined(sf_dir: str, dup_ds: "rd.Dataset"):
    """At-scale twin: scalar (doc_id, idx, h, pk) rows ⋈ dup table on the
    hash → removal keys → per-doc removal lists → ONE left-outer join
    ships each doc's text through the shuffle exactly once; the rewrite
    itself stays batch-local. Byte-identical to the broadcast path
    (equality-tested)."""
    import pandas as pd

    def scalar_rows(batch: pa.Table) -> pa.Table:
        parent, idx, _, _, hs, pk = _para_key_arrays(batch)
        mask = np.fromiter((h != "" for h in hs), dtype=bool, count=len(hs))
        doc_ids = np.asarray(batch.column("doc_id"), dtype=np.int64)[parent]
        return pa.table(
            {
                "h": pa.array([h for h in hs if h], pa.string()),
                "doc_id": pa.array(doc_ids[mask], pa.int64()),
                "idx": pa.array(idx[mask], pa.int64()),
                "pk2": pa.array(pk[mask], pa.int64()),
            }
        )

    rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        scalar_rows, batch_format="pyarrow"
    )
    n_docs = _docs(sf_dir, ["doc_id"]).count()
    removals = rows.join(
        dup_ds, join_type="inner",
        num_partitions=_small_parts_cap(rows=n_docs),
        on=("h",),
    ).filter(expr="pk2 != mpk")

    def rm_list(group: pd.DataFrame) -> pd.DataFrame:
        # comma-joined scalar string: nested/tensor payloads are not
        # supported by the hash-join kernel, a string column is
        idxs = np.sort(group["idx"].to_numpy(np.int64))
        return pd.DataFrame(
            {
                "doc_id": [int(group["doc_id"].iloc[0])],
                "rm": [",".join(map(str, idxs))],
            }
        )

    rm = removals.groupby("doc_id").map_groups(rm_list,
                                               batch_format="pandas")
    joined = _docs(sf_dir, ["doc_id", "text"]).join(
        rm, join_type="left_outer",
        num_partitions=_small_parts_cap(rows=n_docs),
        on=("doc_id",),
    )

    def transform(batch: pa.Table) -> pa.Table:
        parent, idx, counts, texts, _, _ = _para_key_arrays(batch)
        rm_col = batch.column("rm").to_pylist()
        keep = np.ones(len(texts), dtype=bool)
        for row, rm_str in enumerate(rm_col):
            if not rm_str:
                continue
            rm_idx = np.fromiter(
                (int(x) for x in rm_str.split(",")), dtype=np.int64
            )
            sel = parent == row
            keep[sel] = ~np.isin(idx[sel], rm_idx)
        return _para_reassemble(batch, keep, parent, counts, texts)

    return joined.map_batches(transform, batch_format="pyarrow")


def dedup_paragraphs_sql() -> str:
    """DuckDB mirror of dedup_paragraphs: same md5 keys, same packed
    first-wins order, same '\\n' reassembly and md5 fingerprint."""
    return f"""
        WITH p AS (
            SELECT doc_id,
                   unnest(string_split(text, chr(10))) AS para,
                   generate_subscripts(string_split(text, chr(10)), 1) AS i
            FROM documents),
        k AS (
            SELECT doc_id, i, para,
                   doc_id * {PARA_PK_STRIDE} + (i - 1) AS pk
            FROM p),
        m AS (
            SELECT md5(para) AS h, min(pk) AS mpk, count(*) AS c
            FROM k WHERE para <> '' GROUP BY md5(para)),
        kept AS (
            SELECT k.doc_id, k.i, k.para
            FROM k LEFT JOIN m ON k.para <> '' AND md5(k.para) = m.h
            WHERE k.para = '' OR m.c = 1 OR k.pk = m.mpk),
        r AS (
            SELECT doc_id,
                   md5(string_agg(para, chr(10) ORDER BY i)) AS clean_fp,
                   count(*) AS n_kept
            FROM kept GROUP BY doc_id),
        tot AS (
            SELECT doc_id,
                   len(string_split(text, chr(10))) AS n_paras
            FROM documents)
        SELECT t.doc_id,
               CAST(t.n_paras AS BIGINT) AS n_paras,
               CAST(t.n_paras - coalesce(r.n_kept, 0) AS BIGINT)
                   AS n_paras_removed,
               coalesce(r.clean_fp, md5('')) AS clean_fp
        FROM tot t LEFT JOIN r USING (doc_id)
    """
