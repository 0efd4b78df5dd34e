"""Smoke test of the benchmark at tiny sizes (about ninety seconds, most of
it training the default model once per run):

    python3 -m pytest perfbench/test_smoke.py -q

Every run starts from a directory outside the source tree, so it also checks
that Ray workers and the server subprocess import the package from the
benchmark's own location rather than from the cwd.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

CHECKS = {
    "kg_build": {"setup.training_deterministic",
                 "kg_build.triples_equal_reference", "kg_build.gold_pr",
                 "kg_build.one_shard_run",
                 "kg_build.tagger_equals_reference_sample"},
    "parse_serve": {"setup.training_deterministic",
                    "parse_serve.response_equals_parse_texts",
                    "parse_serve.tagger_equals_reference_sample"},
}
TRACED_CHECKS = {  # the traced run also probes the resume path and ops.*
    "kg_build": {"kg_build.refresh_reruns_one_shard",
                 "kg_build.refresh_triples_unchanged",
                 "ops.tfidf_top_terms_equals_oracle",
                 "ops.sequence_pack_equals_oracle",
                 "ops.token_budget_select_equals_oracle",
                 "ops.minhash_dedup_pairs_within_exact",
                 "ops.dup_clusters_equals_oracle",
                 "ops.chunk_dup_stats_equals_oracle",
                 "ops.dedup_paragraphs_equals_oracle",
                 "ops.pii_scrub_equals_oracle",
                 "ops.audio_features_one_row_per_doc"},
    "parse_serve": set(),
}


def _bench(cwd, workload, trace, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_and_every_check_runs(tmp_path, workload, trace):
    proc = _bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    summary = {line.split()[0]: line.split()[2] for line in lines[:-1]}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert summary[m["name"]] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0

    path = [line for line in proc.stderr.splitlines()
            if line.startswith("record: ")][-1].split(" ", 1)[1]
    with open(path) as f:
        record = json.load(f)
    assert set(record["checks"]) == (
        CHECKS[workload] | (TRACED_CHECKS[workload] if trace else set()))
    for name, check in record["checks"].items():
        assert check["ran"] >= 1 and check["failed"] == 0, name
    for key in ("cpu_count", "affinity_cpus", "omp_num_threads",
                "ray_version", "pyarrow_version", "source"):
        assert key in record["host"]
    assert len(record["loadavg_before"]) == 3
    assert len(record["loadavg_after"]) == 3


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "kg_build", 0,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
