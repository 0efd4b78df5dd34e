"""kg_build: the KG pipeline (``pipelines.kg``) under a cold rebuild loop.

Each op is one closed-loop call of ``run_kg_pipeline`` from a single caller
into a fresh output dir. The traced run times ``run_phase1`` and
``run_phase2`` as separate calls, re-runs the fused phase-1 stage chain in
this process over the same blocks (Ray runs it fused inside workers, where
no span can see the stage boundaries), and probes the incremental (resume)
path, ``ops.graph`` on the built edges, the document operators of ``ops``
(see ops_probe.py) and fixed Ray Data costs.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    RayCluster,
    Tracer,
    noop_execution,
    peak_rss_mb,
    peak_rss_reset,
    release_memory,
    reference_tags,
    same_entities,
    train_default_model,
    window_start,
    write_pages,
)
from ops_probe import ops_probe

TAG_SLICE = 128  # rows per tag call, as pipelines.kg.TAG_BATCH_SIZE
REFERENCE_SAMPLE = 512  # sentences re-tagged by the slow reference tagger
GOLD_MIN_PR = 0.95  # planted-gold gate of tests/test_pipeline.py

# (files, pages per file). The full size keeps the program's own input
# layout: sources.pages writes 2,000 pages per file, which is
# pipelines.kg.PAGES_PER_BLOCK, so each file is one block and the four
# blocks fill four CPUs.
SIZES = {"full": (4, 2000), "smoke": (2, 40)}
TRIPLE_KEYS = ("subj", "pred", "obj", "url", "subj_canonical",
               "obj_canonical")


def setup_ready(run, cluster: RayCluster, repeats: int) -> Dict:
    """Time to a ready state: the default model trained into this run's own
    artifact dir (the median of ``repeats`` trainings, see
    ``train_default_model``), plus the median of ``repeats`` cold starts of
    Ray + one warm no-op execution + the first load of the model."""
    from spacy_crfsuite_ray.state.model import load_extractor

    model, trains = train_default_model(run, repeats)
    train_s = statistics.median(trains)
    art = os.path.dirname(model)
    starts = []
    for k in range(repeats):
        if k:
            cluster.stop()
        copy = os.path.join(art, f"load-{k}.npz")
        shutil.copyfile(model, copy)
        t0 = time.perf_counter()
        cluster.start()
        noop_execution()
        load_extractor(copy)
        starts.append(time.perf_counter() - t0)
    return {"model": model, "train_s": train_s, "trains_s": trains,
            "start_s": starts,
            "setup_s": train_s + statistics.median(starts)}


# ------------------------------------------------------------- the program

def kg_op(run, files, out, model, traced: bool, op: int,
          files_per_shard=None) -> Dict:
    """One ``run_kg_pipeline``; traced, its two phases as separate calls
    (what ``run_kg_pipeline`` does) with a span and an execution count."""
    from spacy_crfsuite_ray.pipelines.kg import (
        run_kg_pipeline,
        run_phase1,
        run_phase2,
    )

    if not traced:
        return run_kg_pipeline(files, out, shards=1, model_path=model,
                               files_per_shard=files_per_shard)
    n0 = run.counter.n
    with run.tracer.span("pipelines.kg.run_phase1", op=op):
        s1 = run_phase1(files, out, shards=1, model_path=model,
                        files_per_shard=files_per_shard)
    with run.tracer.span("pipelines.kg.run_phase2", op=op):
        s2 = run_phase2(out, force=s1["shards_run"] > 0)
    return {**s1, **s2, "ray_executions": run.counter.n - n0}


# ------------------------------------------------------ stage chain re-run

def stage_block(path: str, model: str, tracer=None):
    """The phase-1 UDF chain of pipelines.kg over one input file (one
    block, as ``run_phase1`` reads them), tagging in 128-row slices.
    Returns the union rows and, traced, the sentences each tag call saw."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from spacy_crfsuite_ray.stages.extract import (
        explode_sentences,
        extract_text_batch,
        filter_lang,
    )
    from spacy_crfsuite_ray.stages.relations import derive_union_batch
    from spacy_crfsuite_ray.stages.tag import tag_batch

    tracer = tracer or Tracer(False)
    parts, slices = [], []
    block = pq.read_table(path, columns=["url", "html", "lang"])
    with tracer.span("stages.extract.extract_text_batch",
                     pages_in=block.num_rows):
        text = extract_text_batch(block)
    with tracer.span("stages.extract.filter_lang"):
        text = filter_lang(text, "en")
    with tracer.span("stages.extract.explode_sentences") as c:
        sents = explode_sentences(text)
        c["sentences_out"] = sents.num_rows
    for lo in range(0, sents.num_rows, TAG_SLICE):
        piece = sents.slice(lo, TAG_SLICE)
        if tracer.enabled:
            slices.append(piece.column("sent").to_pylist())
        with tracer.span("stages.tag.tag_batch",
                         sentences_in=piece.num_rows) as c:
            tagged = tag_batch(piece, model_path=model)
            c["entities_out"] = int(
                pc.sum(pc.list_value_length(tagged.column("entities")))
                .as_py() or 0)
        with tracer.span("stages.relations.derive_union_batch") as c:
            union = derive_union_batch(tagged)
            for kind in ("e", "t", "s"):
                c["rows_out_" + kind] = int(
                    pc.sum(pc.equal(union.column("kind"), kind)).as_py()
                    or 0)
        parts.append(union)
    return pa.concat_tables(parts), slices


def stage_chain(run, files: List[str], model: str) -> Dict:
    """``stage_block`` over every input file. Traced, in this process, where
    the spans are; untraced the chain is only the reference, so it runs in
    one child process per block (``python kg.py``), which writes the block's
    union rows to parquet."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    if run.tracer.enabled:
        blocks = [stage_block(path, model, run.tracer) for path in files]
        return {"union": pa.concat_tables(u for u, _ in blocks),
                "slices": [s for _, sl in blocks for s in sl]}
    ref = os.path.join(run.dir, "reference")
    os.makedirs(ref)
    outs = [os.path.join(ref, f"union-{k:05d}.parquet")
            for k in range(len(files))]
    procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__),
                               path, model, out], stderr=sys.stderr)
             for path, out in zip(files, outs)]
    if any([p.wait() for p in procs]):
        raise RuntimeError("the reference stage chain failed")
    return {"union": pa.concat_tables(pq.read_table(o) for o in outs),
            "slices": []}


def expected_triples(union, tracer) -> List[tuple]:
    """Canonical triples the pipeline must write for these union rows, as a
    sorted multiset: each raw ("t") triple rewritten through the linker's
    mapping over the summed ("s") surface counts."""
    import pyarrow.compute as pc

    from spacy_crfsuite_ray.core.linking import (
        mapping_from_surfaces,
        normalize_surface,
    )

    surf = (union.filter(pc.equal(union.column("kind"), "s"))
            .group_by(["type", "norm"]).aggregate([("cnt", "sum")]))
    rows = list(zip(surf.column("type").to_pylist(),
                    surf.column("norm").to_pylist(),
                    surf.column("cnt_sum").to_pylist()))
    with tracer.span("core.linking.mapping_from_surfaces",
                     surfaces_in=len(rows)) as c:
        mapping = mapping_from_surfaces(rows)
        c["mapping_out"] = len(mapping)

    def canon(value, type_):
        norm = normalize_surface(value)
        return mapping.get((type_, norm), norm)

    return sorted(
        (t["subj"], t["pred"], t["obj"], t["url"],
         canon(t["subj"], t["subj_type"]), canon(t["obj"], t["obj_type"]))
        for t in union.filter(pc.equal(union.column("kind"), "t")).to_pylist()
    )


def triples_digest(rows: List[tuple]) -> Dict:
    """A sorted triple multiset as its size and sha256, so this process
    need not hold the reference while the program runs."""
    return {"triples": len(rows),
            "sha256": hashlib.sha256(repr(rows).encode()).hexdigest()}


def triple_rows(out: str) -> List[tuple]:
    """The canonical triples a run wrote, as a sorted multiset."""
    import pyarrow.parquet as pq

    got = pq.read_table(os.path.join(out, "triples", "shard=all"),
                        columns=list(TRIPLE_KEYS))
    return sorted(zip(*(got.column(c).to_pylist() for c in TRIPLE_KEYS)))


def check_tagger_sample(run, union, model) -> None:
    """The reference above tags with the same fast tagger as the pipeline,
    so a seeded sample of its sentences is re-tagged by the reference
    tagger. A mismatch marks the run incorrect."""
    import pyarrow.compute as pc

    rows = union.filter(pc.equal(union.column("kind"), "e"))
    sents = rows.column("sent").to_pylist()
    ents = rows.column("entities").to_pylist()
    idx = sorted(random.Random(f"sample-{run.seed}").sample(
        range(len(sents)), min(REFERENCE_SAMPLE, len(sents))))
    ref = reference_tags(model, [sents[i] for i in idx])
    try:
        run.check("kg_build.tagger_equals_reference_sample",
                  all(same_entities(ents[i], r) for i, r in zip(idx, ref)))
    except AssertionError:
        pass  # recorded as a failed check: the result reads correct=false


def fast_tag_probe(slices: List[List[str]], model: str, tracer) -> None:
    """core.fast_tag on exactly the sentences the tag stage saw, with a
    fresh (cold-cache) tagger as each Ray worker starts with."""
    from spacy_crfsuite_ray.core.fast_tag import FastTagger
    from spacy_crfsuite_ray.state.model import load_extractor

    fast = FastTagger(load_extractor(model))
    for texts in slices:
        with tracer.span("core.fast_tag.tag_texts"):
            fast.tag_texts(texts)


def manifest_probe(files, out, tracer, files_per_shard=None) -> None:
    """stages.graph.manifest_valid over every shard and phase-2 output, the
    checks a resumed run makes before deciding what to re-run."""
    from spacy_crfsuite_ray.pipelines.kg import (
        LAYOUT_VERSION,
        _shard_groups,
        _stable_shard_groups,
    )
    from spacy_crfsuite_ray.stages.graph import input_ref_entries, manifest_valid

    if files_per_shard is None:
        groups = [(f"{i:05d}", g) for i, g in enumerate(_shard_groups(files, 1))]
    else:
        groups = _stable_shard_groups(files, files_per_shard)
    tagged = os.path.join(out, "tagged")
    with tracer.span("stages.graph.manifest_valid") as c:
        ok = all(manifest_valid(tagged, pid, input_refs=input_ref_entries(g),
                                layout=LAYOUT_VERSION) for pid, g in groups)
        ok = ok and all(manifest_valid(os.path.join(out, d), "all")
                        for d in ("triples", "edges", "nodes", "mapping"))
        c["manifests"] = len(groups) + 4
    if not ok:
        raise AssertionError("a manifest of a finished run does not validate")


def refresh_probe(run, files, model) -> Dict:
    """The incremental path: the same pages built with one shard per file,
    then one file gets a new mtime (same bytes) and the pipeline resumes,
    re-running that shard's phase 1 and all of phase 2."""
    out = os.path.join(run.dir, "out-refresh")
    kg_op(run, files, out, model, False, -1, files_per_shard=1)
    want = triple_rows(out)
    path = files[random.Random(f"refresh-{run.seed}").randrange(len(files))]
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    with run.tracer.span("pipelines.kg.refresh"):
        stats = kg_op(run, files, out, model, False, -1, files_per_shard=1)
    run.check("kg_build.refresh_reruns_one_shard",
              stats["shards_run"] == 1
              and stats["shards_skipped"] == len(files) - 1)
    run.check("kg_build.refresh_triples_unchanged", triple_rows(out) == want)
    manifest_probe(files, out, run.tracer, files_per_shard=1)
    return stats


def graph_probe(out, tracer, counter) -> None:
    """ops.graph on the edges this run's pipeline wrote."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from spacy_crfsuite_ray.ops.graph import (
        degree_stats_from_edges,
        pagerank_from_edges,
    )

    e = pq.read_table(os.path.join(out, "edges", "shard=all"),
                      columns=["subj_id", "obj_id"])
    edges = pa.table({"src": e.column("subj_id").cast(pa.string()),
                      "dst": e.column("obj_id").cast(pa.string())})
    n0 = counter.n
    with tracer.span("ops.graph") as c:
        ranks = pagerank_from_edges(edges)
        degrees = degree_stats_from_edges(edges)
        c["rows_out"] = ranks.num_rows + degrees.num_rows
    c["ray_executions"] = counter.n - n0
    if ranks.num_rows == 0 or degrees.num_rows == 0:
        raise AssertionError("ops.graph returned no rows for a non-empty KG")


def ray_floors(files, tracer) -> None:
    """Fixed Ray Data costs on this run's pages: one no-op execution, a
    parquet read, a groupby and a hash join."""
    import ray.data as rd

    for _ in range(3):
        with tracer.span("ray.noop_execution"):
            noop_execution()
    with tracer.span("ray.read_parquet"):
        rd.read_parquet(files, columns=["url", "lang"]).materialize()
    with tracer.span("ray.groupby"):
        rd.read_parquet(files, columns=["lang"]).groupby("lang").count() \
            .take_all()
    with tracer.span("ray.join"):
        left = rd.read_parquet(files, columns=["url", "lang"])
        right = rd.read_parquet(files, columns=["url", "warc_ts"])
        left.join(right, join_type="inner", num_partitions=4,
                  on=("url",)).count()


# ---------------------------------------------------------------- workloads

def kg_build(run) -> None:
    from spacy_crfsuite_ray.pipelines.oracle import triple_prf

    n_files, per_file = SIZES[run.size]
    files, gold = write_pages(window_start(run.seed, "kg_build"), n_files,
                              per_file, os.path.join(run.dir, "pages"))
    s = setup_ready(run, run.cluster, run.setup_repeats)
    run.setup = s
    model = s["model"]
    # the reference the built triples must equal, from the same stage
    # functions called in this process (traced: these are the layer spans)
    chain = stage_chain(run, files, model)
    want = expected_triples(chain["union"], run.tracer)
    vs_gold = triple_prf([dict(zip(("subj", "pred", "obj"), t[:3]))
                          for t in want], gold)
    try:  # every build must equal this reference, so its gold P/R too
        run.check("kg_build.gold_pr",
                  vs_gold["precision"] >= GOLD_MIN_PR
                  and vs_gold["recall"] >= GOLD_MIN_PR,
                  precision=vs_gold["precision"], recall=vs_gold["recall"])
    except AssertionError:
        pass  # recorded as a failed check: the result reads correct=false
    check_tagger_sample(run, chain["union"], model)
    if run.tracer.enabled:
        fast_tag_probe(chain["slices"], model, run.tracer)
    want = triples_digest(want)
    del chain, gold  # this process's peak RSS should be the program's
    release_memory()
    last_out, rss = None, []

    def op(k, traced):
        nonlocal last_out
        out = os.path.join(run.dir, f"out-{k}")  # cold: a fresh dir each op
        run.attempted += 1
        try:
            t0 = time.perf_counter()
            stats = kg_op(run, files, out, model, traced, k)
            dt = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - an op failure is counted
            run.fail(k, exc)
            return None
        rss.append(peak_rss_mb())  # before the checks allocate anything
        try:  # a wrong output is a failed op that still took its time
            got = triples_digest(triple_rows(out))
            run.check("kg_build.triples_equal_reference", got == want, **got)
            run.check("kg_build.one_shard_run", stats["shards_run"] == 1)
        except Exception as exc:  # noqa: BLE001 - missing or wrong output
            run.fail(k, exc)
        if traced:
            run.executions.append(stats["ray_executions"])
        if last_out:
            shutil.rmtree(last_out, ignore_errors=True)
        last_out = out
        peak_rss_reset()  # the next op's peak starts from here
        return dt

    # one warm-up op, then closed-loop ops until run.seconds pass; in the
    # traced run ops alternate traced / untraced, so the difference of
    # their medians is the tracing overhead
    op(0, traced=False)
    rss.clear()
    t_end = time.perf_counter() + run.seconds
    k = 1
    while time.perf_counter() < t_end or k <= 2:
        traced = run.tracer.enabled and k % 2 == 1
        dt = op(k, traced=traced)
        if dt is not None:
            run.latencies.append(dt)
            run.pages.append(n_files * per_file)
            (run.traced_s if traced else run.untraced_s).append(dt)
        k += 1
    run.peak_rss_mb = max(rss)
    run.rss_mb = rss
    if run.tracer.enabled:
        graph_probe(last_out, run.tracer, run.counter)
        run.refresh = refresh_probe(run, files, model)
        ray_floors(files, run.tracer)
        ops_probe(run, files)


if __name__ == "__main__":  # one block of the reference: in, model, out
    import pyarrow.parquet as pq

    pq.write_table(stage_block(sys.argv[1], sys.argv[2])[0], sys.argv[3])
