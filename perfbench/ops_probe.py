"""ops.* probe of the kg_build traced run: the document operators of
``ops.text``, ``ops.dedup``, ``ops.clean`` and ``ops.multimodal`` over a
``documents`` table written from the run's seeded pages. Each result is
compared, outside its span, with the DuckDB oracle of
``__ray_entry__.oracle_sql()`` where one exists, else with an exact twin.

``ops.relational``, ``ops.sketch`` and ``ops.ann`` read TPC-H-style and
embeddings tables that nothing in the source tree generates, so they are
not probed.
"""

from __future__ import annotations

import os
from typing import Callable, List, Tuple

DOCS_PAGES = 1000  # leading pages of the fixture that become documents
DOC_SOURCES = ("site", "other")


def write_documents(files: List[str], out_dir: str) -> Tuple[str, str]:
    """``documents.parquet`` (doc_id, text, lang, source, n_chars) from the
    first ``DOCS_PAGES`` pages of ``files``, plus the audio table ``ops.multimodal`` synthesises
    from it. Returns (documents dir, audio table path)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from spacy_crfsuite_ray.ops.multimodal import synth_audio_table
    from spacy_crfsuite_ray.sources.pages import HOT_DOMAINS

    pages = pa.concat_tables(
        pq.read_table(f, columns=["url", "text", "lang"])
        for f in files).slice(0, DOCS_PAGES)
    urls = pages.column("url").to_pylist()
    texts = pages.column("text").to_pylist()
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pages.column("lang"),
        # the hot domains of the page generator form one source, the rest
        # another
        "source": pa.array([DOC_SOURCES[int(u.split("site")[1].split(".")[0])
                                        >= HOT_DOMAINS] for u in urls]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(docs, os.path.join(out_dir, "documents.parquet"))
    audio = synth_audio_table(out_dir, os.path.join(out_dir, "audio.parquet"))
    return out_dir, audio


def queries() -> List[Tuple[str, str, Callable]]:
    """(layer, query, call(documents dir, audio path)) in a fixed order."""
    from spacy_crfsuite_ray.ops import clean, dedup, multimodal, text

    return [
        ("ops.text", "tfidf_top_terms", lambda d, a: text.tfidf_top_terms(d)),
        ("ops.text", "sequence_pack", lambda d, a: text.sequence_pack(d)),
        ("ops.text", "token_budget_select",
         lambda d, a: text.token_budget_select(d)),
        ("ops.dedup", "minhash_dedup_pairs",
         lambda d, a: dedup.minhash_dedup_pairs(d)),
        ("ops.dedup", "dup_clusters", lambda d, a: dedup.dup_clusters(d)),
        ("ops.dedup", "chunk_dup_stats",
         lambda d, a: dedup.chunk_dup_stats(d)),
        ("ops.clean", "dedup_paragraphs",
         lambda d, a: clean.dedup_paragraphs(d)),
        ("ops.clean", "pii_scrub", lambda d, a: clean.pii_scrub(d)),
        ("ops.multimodal", "audio_features",
         lambda d, a: multimodal.audio_features(d, media_path=a)),
    ]


def _frame(result):
    """A query result as a DataFrame with sorted columns and rows (the
    comparison convention of the repository's oracle tests)."""
    import pyarrow as pa

    df = result.to_pandas() if isinstance(result, pa.Table) else result
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _collect(result):
    """Execute a query (a Dataset is materialised; a Table is already)."""
    import ray.data as rd

    return result.materialize() if isinstance(result, rd.Dataset) else result


def ops_probe(run, files) -> None:
    import duckdb
    import pandas as pd

    import __ray_entry__
    from spacy_crfsuite_ray.ops.dedup import (
        DEFAULT_THRESHOLD,
        _exact_hashed_jaccard_pairs,
    )

    docs, audio = write_documents(files, os.path.join(run.dir, "documents"))
    results = {}
    for layer, name, call in queries():
        n0 = run.counter.n
        with run.tracer.span(layer, op=name) as c:
            out = _collect(call(docs, audio))
        c["ray_executions"] = run.counter.n - n0
        results[name] = out.to_pandas()
        c["rows_out"] = len(results[name])

    # outside the spans: each result against its oracle
    oracles = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"'{os.path.join(docs, 'documents.parquet')}'")
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    for name, got in results.items():
        try:
            if name in oracles:
                want = con.execute(oracles[name]).fetchdf()
                try:
                    pd.testing.assert_frame_equal(
                        _frame(got), _frame(want), check_dtype=False,
                        rtol=1e-9)
                    same = True
                except AssertionError:
                    same = False
                run.check(f"ops.{name}_equals_oracle", same, rows=len(got))
            elif name == "minhash_dedup_pairs":
                exact = _exact_hashed_jaccard_pairs(docs, DEFAULT_THRESHOLD)
                pairs = set(zip(got["a"], got["b"]))
                run.check("ops.minhash_dedup_pairs_within_exact",
                          pairs <= exact, rows=len(got))
            elif name == "audio_features":
                run.check("ops.audio_features_one_row_per_doc",
                          len(got) == n_docs
                          and set(got["media_id"]) == set(range(n_docs)))
        except AssertionError:
            pass  # recorded as a failed check: the result reads correct=false
    con.close()
