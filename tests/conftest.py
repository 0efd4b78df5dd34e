import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session per pytest run (never per test/module)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def restaurant_examples():
    """Deterministic restaurant-search gold set, semantics of
    /root/reference/examples/restaurent_search.md (re-authored fixture)."""
    from spacy_crfsuite_ray.sources.markdown import read_markdown

    md = """## intent:restaurant_search
- i'm looking for a place to eat
- i'm looking for a place in the [north](location) of town
- show me [chinese](cuisine) restaurants
- show me [chines](cuisine:chinese) restaurants in the [north](location)
- show me a [mexican](cuisine) place in the [centre](location)
- i am looking for an [indian](cuisine) spot called olaolaolaolaolaola
- search for restaurants
- anywhere in the [west](location)
- anywhere near [18328](location)
- I am looking for [asian fusion](cuisine) food
- I am looking a restaurant in [29432](location)
- I am looking for [mexican indian fusion](cuisine)
- [central](location) [indian](cuisine) restaurant
- show me [italian](cuisine) restaurants in the [east](location)
- find me a [thai](cuisine) place in the [south](location)
"""
    return read_markdown(md)


@pytest.fixture(scope="session")
def trained_extractor(restaurant_examples):
    from spacy_crfsuite_ray.core.extractor import CRFExtractor, gold_example_to_crf_tokens
    from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer

    tok = RegexTokenizer()
    samples = [
        gold_example_to_crf_tokens(dict(e), tokenizer=tok)
        for e in restaurant_examples
    ]
    ext = CRFExtractor({"c1": 0.003, "c2": 0.03, "max_iter": 200})
    ext.train(samples)
    return ext, samples


def oracle_frame(x):
    """Normalize a Ray Dataset / Arrow table / DataFrame for oracle
    comparison: sorted columns, sorted rows, fresh index."""
    import pyarrow as pa

    import ray.data as rd

    if isinstance(x, rd.Dataset):
        x = x.to_pandas()
    elif isinstance(x, pa.Table):
        x = x.to_pandas()
    return x[sorted(x.columns)].sort_values(
        sorted(x.columns)).reset_index(drop=True)


def assert_matches_oracle(ray_result, sql, con):
    """THE oracle comparator (mirrors the driver gate): column-sorted,
    row-sorted frame equality with rtol=1e-9. One copy — fixture-based and
    sf-based tests must assert identical equality semantics."""
    import pandas as pd

    a = oracle_frame(ray_result)
    b = oracle_frame(con.execute(sql).fetchdf())
    pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=1e-9)
    return a


def hamming64(a: int, b: int) -> int:
    """Bit distance between two 64-bit simhashes (test helper)."""
    return bin(a ^ b).count("1")
