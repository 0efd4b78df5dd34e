"""Salted two-stage aggregation — the explicit skew lever for hot keys.

A plain ``groupby(key)`` sends every row of a hot key (e.g. a hot domain at
web scale: 30% of pages on 3 domains in the fixture) to one reducer. Salting
splits each key into ``n_salts`` sub-keys for a first parallel reduction,
then merges the (key, salt) partials in a second, tiny groupby. Combined
with per-batch combiners, the second shuffle moves at most
``n_keys × n_salts`` rows regardless of skew.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa

import ray.data as rd

DEFAULT_SALTS = 16


def add_salt(batch: pa.Table, n_salts: int = DEFAULT_SALTS) -> pa.Table:
    """Deterministic per-row salt (row-position based — uniform by
    construction, no hash needed)."""
    salt = np.arange(batch.num_rows, dtype=np.int64) % n_salts
    return batch.append_column("salt", pa.array(salt))


def salted_sum(
    ds: "rd.Dataset",
    keys: List[str],
    value_col: str,
    n_salts: int = DEFAULT_SALTS,
    out_name: str = None,
) -> "rd.Dataset":
    """SUM(value) GROUP BY keys, skew-safe: per-batch combine → salted
    groupby → merge groupby."""
    from ..functions.tables import stable_rename

    out_name = out_name or value_col

    def combine(batch: pa.Table) -> pa.Table:
        batch = add_salt(batch, n_salts)
        return (
            batch.select(keys + ["salt", value_col])
            .group_by(keys + ["salt"])
            .aggregate([(value_col, "sum")])
            .rename_columns(keys + ["salt", value_col])
        )

    first = (
        ds.map_batches(combine, batch_format="pyarrow")
        .groupby(keys + ["salt"])
        .sum(value_col)
        .map_batches(
            stable_rename(keys + ["salt", value_col]),
            batch_format="pyarrow",
        )
    )
    from ..functions.cluster import coalesce_small

    return (
        coalesce_small(first).groupby(keys)
        .sum(value_col)
        .map_batches(
            stable_rename(keys + [out_name]),
            batch_format="pyarrow",
        )
    )
