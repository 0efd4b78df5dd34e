"""Cleaning / repetition ops vs DuckDB on a crafted fixture.

The driver's synthetic documents contain no newlines, digits, or '@', so
pii_scrub / dup_line_stats / norm_dedup are trivially-zero there (their
sf-data oracle rows in test_ops.py still must match — and do). REAL
coverage lives here: a fixture with emails, IPv4s, phone numbers,
multi-line repeats, mixed case, tabs, empty and whitespace-only docs,
compared against the SAME DuckDB oracles the driver runs.
"""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cleanfix")
    docs = pa.table(
        {
            "doc_id": pa.array(range(10), pa.int64()),
            "text": pa.array(
                [
                    "Contact bob@example.com or 555-123-4567."
                    "\nline two\nline two",
                    "Server at 192.168.1.1 and 10.0.0.255 rebooted."
                    "\n\n\nonly line",
                    "no pii here\nno pii here\nno pii here\nunique",
                    "  Mixed   CASE\ttext  ",
                    "mixed case text",
                    "a@b.co x@y.io 1.2.3.4 999.888.7777",
                    "",
                    "\n\n\n",
                    "digits 123.456 not an ip, 12-34-5678 not a phone",
                    "dup chars\naaaa bbbb cccc dddd\naaaa bbbb cccc dddd\nz",
                ],
                pa.string(),
            ),
            "lang": pa.array(["en"] * 10),
            "source": pa.array(["s0"] * 10),
            "n_chars": pa.array([0] * 10, pa.int64()),
        }
    )
    pq.write_table(docs, str(d / "documents.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def fix_con(fixture_dir):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS "
        f"SELECT * FROM '{fixture_dir}/documents.parquet'"
    )
    return con


from conftest import assert_matches_oracle as _cmp  # noqa: E402


def test_pii_scrub_matches_oracle_on_real_pii(ray_session, fixture_dir,
                                              fix_con):
    from spacy_crfsuite_ray.ops import clean

    a = _cmp(clean.pii_scrub(fixture_dir), clean.pii_scrub_sql(), fix_con)
    by_id = a.set_index("doc_id")
    # doc 0: one email + one phone; doc 1: two IPs; doc 5: 2 emails, 1 ip,
    # 1 phone; doc 8 has lookalikes that must NOT match
    assert by_id.loc[0, ["n_email", "n_ipv4", "n_phone"]].tolist() == [1, 0, 1]
    assert by_id.loc[1, ["n_email", "n_ipv4", "n_phone"]].tolist() == [0, 2, 0]
    assert by_id.loc[5, ["n_email", "n_ipv4", "n_phone"]].tolist() == [2, 1, 1]
    assert by_id.loc[8, ["n_email", "n_ipv4", "n_phone"]].tolist() == [0, 0, 0]
    # redaction changes the fingerprint only where something matched
    import hashlib

    assert (
        by_id.loc[8, "clean_fp"]
        == hashlib.md5(
            "digits 123.456 not an ip, 12-34-5678 not a phone".encode()
        ).hexdigest()
    )


def test_norm_dedup_merges_reformatted_copies(ray_session, fixture_dir,
                                              fix_con):
    from spacy_crfsuite_ray.ops import clean

    a = _cmp(clean.norm_dedup(fixture_dir), clean.norm_dedup_sql(), fix_con)
    # docs 3 and 4 normalize to the same text -> one group, keep min id 3;
    # docs 6 ("") and 7 ("\n\n\n") both normalize to "" -> one group
    merged = a[a.n_docs > 1].sort_values("keep_doc_id")
    assert merged.keep_doc_id.tolist() == [3, 6]
    assert merged.n_docs.tolist() == [2, 2]
    assert len(a) == 8  # 10 docs, two 2-member groups


def test_dup_line_stats_matches_oracle_on_multiline(ray_session, fixture_dir,
                                                    fix_con):
    from spacy_crfsuite_ray.ops import text

    a = _cmp(text.dup_line_stats(fixture_dir), text.dup_line_stats_sql(),
             fix_con)
    by_id = a.set_index("doc_id")
    # doc 0: 3 lines, "line two" repeated once -> frac 1/3
    assert by_id.loc[0, "n_lines"] == 3
    assert by_id.loc[0, "dup_line_frac_c6"] == 333333
    # doc 2: 4 lines, 2 repeats -> 1/2
    assert by_id.loc[2, "dup_line_frac_c6"] == 500000
    # doc 9: char fraction weighs the long repeated line, not the 'z'
    assert by_id.loc[9, "dup_char_frac_c6"] > by_id.loc[9, "dup_line_frac_c6"]
    # empty and newline-only docs are dropped on both sides
    assert 6 not in by_id.index and 7 not in by_id.index


def test_lineitem_corr_moments_consistent(ray_session):
    """Sanity beyond the oracle equality in test_ops.py: the moments obey
    Cauchy-Schwarz (|corr| <= 1) and the group counts cover the table."""
    from spacy_crfsuite_ray.ops import relational

    a = relational.lineitem_corr("/root/testdata/sf0.001").to_pandas()
    assert set(a.l_returnflag) == {"A", "N", "R"}
    assert (a.n > 0).all()
    assert (a.corr_c6.abs() <= 1_000_000).all()
    import pyarrow.parquet as pq

    assert a.n.sum() == pq.read_metadata(
        "/root/testdata/sf0.001/lineitem.parquet"
    ).num_rows


def test_dedup_lines_removes_repeats_keeps_order(ray_session, fixture_dir,
                                                 fix_con):
    from spacy_crfsuite_ray.ops import clean

    a = _cmp(clean.dedup_lines(fixture_dir), clean.dedup_lines_sql(),
             fix_con)
    by_id = a.set_index("doc_id")
    import hashlib

    # doc 0: "...\nline two\nline two" -> second "line two" dropped
    assert by_id.loc[0, "n_lines_removed"] == 1
    assert by_id.loc[0, "clean_fp"] == hashlib.md5(
        "Contact bob@example.com or 555-123-4567.\nline two".encode()
    ).hexdigest()
    # doc 2: three identical lines collapse to one
    assert by_id.loc[2, "n_lines_kept"] == 2
    assert by_id.loc[2, "n_lines_removed"] == 2
    # single-line docs pass through untouched
    assert by_id.loc[4, "n_lines_removed"] == 0
    assert len(a) == 10  # every doc emits a row (transform, not a filter)


def test_dsir_resample_is_weight_proportional_subset(ray_session):
    from spacy_crfsuite_ray.ops import text

    SF = "/root/testdata/sf0.001"
    w = text.dsir_weights(SF).to_pandas().set_index("doc_id")
    kept = text.dsir_resample(SF).to_pandas().set_index("doc_id")
    # kept rows are exactly the weights rows for the surviving ids
    assert kept.index.isin(w.index).all()
    pd.testing.assert_frame_equal(kept, w.loc[kept.index])
    # acceptance rate tracks the designed P(keep) = min(1, w/denom)
    import numpy as np

    p = np.minimum(
        1.0,
        w.dsir_weight_c6.to_numpy()
        / float(text.DSIR_RESAMPLE_DENOM_C6),
    )
    expected = p.mean()
    actual = len(kept) / len(w)
    assert abs(actual - expected) < 0.08  # md5 test is ~Bernoulli(p)


def test_scrub_documents_transform(fixture_dir):
    from spacy_crfsuite_ray.ops import clean

    out = clean.scrub_batch(
        pq.read_table(f"{fixture_dir}/documents.parquet")
    ).to_pandas().set_index("doc_id")
    # every doc survives (transform, not a filter) with all columns kept
    assert len(out) == 10
    for col in ["text", "lang", "source", "n_chars",
                "n_lines_removed", "n_pii_redacted"]:
        assert col in out.columns
    # PII gone from the cleaned text
    assert "bob@example.com" not in out.loc[0, "text"]
    assert "<EMAIL>" in out.loc[0, "text"]
    assert "<PHONE>" in out.loc[0, "text"]
    assert out.loc[0, "n_pii_redacted"] == 2
    # duplicate line removed BEFORE redaction counts
    assert out.loc[0, "n_lines_removed"] == 1
    assert out.loc[2, "text"] == "no pii here\nunique"
    # n_chars recomputed over the cleaned text
    assert (out["n_chars"] == out["text"].str.len()).all()


def test_cli_scrub_writes_parquet(ray_session, fixture_dir, tmp_path):
    import json

    from spacy_crfsuite_ray.cli import main

    out_dir = str(tmp_path / "scrubbed")
    assert main(
        ["scrub", f"{fixture_dir}/documents.parquet", out_dir]
    ) == 0
    import duckdb

    # round 5: output is shard-partitioned (resume manifests, see
    # pipelines/scrub.py) — read the hive layout
    got = duckdb.connect().execute(
        f"SELECT count(*) AS n, sum(n_pii_redacted) AS p "
        f"FROM '{out_dir}/shard=*/*.parquet'"
    ).fetchone()
    assert got[0] == 10
    assert got[1] >= 6  # fixture plants >= 6 redactable PII items


def test_corpus_report_paths_equal_and_match_oracle(ray_session,
                                                    fixture_dir, fix_con,
                                                    monkeypatch):
    from spacy_crfsuite_ray.ops import clean

    driver = _cmp(
        __import__("ray").data.from_arrow(clean.corpus_report(fixture_dir)),
        clean.corpus_report_sql(),
        fix_con,
    )
    assert driver.docs_with_pii.iloc[0] >= 3
    assert driver.norm_dup_docs.iloc[0] == 2
    monkeypatch.setattr(clean, "REPORT_DRIVER_MAX_ROWS", 0)
    import pandas as pd

    dist = clean.corpus_report(fixture_dir).to_pandas()
    dist = dist[sorted(dist.columns)].reset_index(drop=True)
    pd.testing.assert_frame_equal(driver, dist, check_dtype=False)


def test_para_key_bound_raises_instead_of_colliding():
    """A doc with more than PARA_PK_STRIDE paragraphs would pack keys into
    the next doc's range; it must raise, naming the doc. Driver-only."""
    import numpy as np

    from spacy_crfsuite_ray.ops.clean import PARA_PK_STRIDE, _para_key_arrays

    def table(newlines):
        return pa.table({"doc_id": pa.array([7], pa.int64()),
                         "text": pa.array(["x" + "\n" * newlines])})

    with pytest.raises(ValueError, match="doc_id 7"):
        _para_key_arrays(table(1_000_000))
    # exactly STRIDE paragraphs still fit: idx runs 0..STRIDE-1
    pk = _para_key_arrays(table(PARA_PK_STRIDE - 1))[-1]
    assert pk[0] == 7 * PARA_PK_STRIDE and pk[-1] < 8 * PARA_PK_STRIDE
    assert len(np.unique(pk)) == PARA_PK_STRIDE
