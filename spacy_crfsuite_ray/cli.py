"""CLI entry points — reference parity for the train/eval commands
(/root/reference/spacy_crfsuite/train.py:63-129, eval.py:13-55) plus the KG
pipeline runner.

    python -m spacy_crfsuite_ray.cli train  gold.md -o outdir [-c cfg.json] [--fine-tune]
    python -m spacy_crfsuite_ray.cli eval   gold.md -m outdir/model.npz
    python -m spacy_crfsuite_ray.cli tag    "some text" -m outdir/model.npz
    python -m spacy_crfsuite_ray.cli kg     PAGES_DIR OUT_DIR [--shards N]
    python -m spacy_crfsuite_ray.cli scrub  DOCS_PARQUET OUT_DIR

Only the CLI owns a Ray session (guarded init); library code never calls
ray.init().
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys


class UserInputError(ValueError):
    """Bad user input (unsupported file type, malformed config, ...)."""


def _load_config(path):
    if not path:
        return None
    with open(path) as f:
        return json.load(f)


@contextlib.contextmanager
def _ray_session():
    """Ray for one command, Ray Data progress bars off. Joins a running
    session and leaves it running; otherwise starts one and shuts down only
    that one. No explicit address: RAY_ADDRESS decides (the cluster address
    under `ray job submit`), so the same CLI is both the local entrypoint
    and the job entrypoint."""
    import ray
    from ray.data import DataContext

    owned = not ray.is_initialized()
    if owned:
        ray.init(include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        if owned:
            ray.shutdown()


def cmd_train(args) -> int:
    from .core.extractor import CRFExtractor, gold_example_to_crf_tokens
    from .core.tokenizer import RegexTokenizer
    from .sources.readers import read_file

    try:
        examples = read_file(args.input)
    except ValueError as e:
        raise UserInputError(str(e)) from e
    tok = RegexTokenizer()
    samples = [gold_example_to_crf_tokens(dict(e), tokenizer=tok)
               for e in examples]
    config = _load_config(args.config) or {}
    if args.fine_tune:
        from .pipelines.train import fine_tune

        with _ray_session():
            best, score, _ = fine_tune(samples, base_config=config)
        print(f"fine-tune best params {best} (weighted F1 {score:.3f})")
        config.update(best)
    ext = CRFExtractor(config)
    ext.train(samples)
    os.makedirs(args.out_dir, exist_ok=True)
    model_path = os.path.join(args.out_dir, "model.npz")
    ext.ent_tagger.save(model_path)
    stats, report = ext.eval(samples)
    print(report)
    print(f"saved {model_path}")
    return 0


def cmd_eval(args) -> int:
    from .core.crf import LinearChainCRF
    from .core.extractor import CRFExtractor, gold_example_to_crf_tokens
    from .core.tokenizer import RegexTokenizer
    from .sources.readers import read_file

    ext = CRFExtractor(_load_config(args.config),
                       ent_tagger=LinearChainCRF.load(args.model))
    tok = RegexTokenizer()
    try:
        examples = read_file(args.input)
    except ValueError as e:
        raise UserInputError(str(e)) from e
    samples = [gold_example_to_crf_tokens(dict(e), tokenizer=tok)
               for e in examples]
    _stats, report = ext.eval(samples)
    print(report)
    return 0


def cmd_tag(args) -> int:
    from .api import parse_texts

    entities = parse_texts(
        [args.text], model_path=args.model, config=_load_config(args.config)
    )[0]["entities"]
    print(json.dumps(entities, indent=1))
    return 0


def cmd_kg(args) -> int:
    from .pipelines.kg import run_kg_pipeline
    from .sources.pages import page_files

    files = page_files(args.pages_dir) if os.path.isdir(args.pages_dir) \
        else [args.pages_dir]
    with _ray_session():
        res = run_kg_pipeline(files, args.out_dir, shards=args.shards,
                              files_per_shard=args.files_per_shard)
    print(json.dumps({k: v for k, v in res.items() if not k.endswith("_dir")}))
    return 0


def cmd_scrub(args) -> int:
    """Map-only document scrub (within-doc line dedupe + PII redaction) to
    shard-partitioned parquet with per-shard lineage manifests — a re-run
    over the same input skips every manifested shard (the same resume
    machinery as `cli kg`)."""
    from .pipelines.scrub import run_scrub_pipeline

    with _ray_session():
        res = run_scrub_pipeline(args.input, args.out_dir, shards=args.shards,
                                 files_per_shard=args.files_per_shard)
    print(json.dumps({k: v for k, v in res.items() if k != "out_dir"}))
    return 0


def cmd_export(args) -> int:
    """Composed training-data export: token-budget quality selection →
    scrub → fixed k-word chunk explode → shard-partitioned parquet with
    per-shard lineage manifests. The global selection digest is folded
    into the manifest layout key, so changing ANY input file or knob
    re-runs every shard; a plain restart skips finished shards."""
    from .pipelines.export import run_export_pipeline

    with _ray_session():
        res = run_export_pipeline(
            args.input, args.out_dir, budget_tokens=args.budget,
            chunk_words=args.chunk_words, shards=args.shards,
            files_per_shard=args.files_per_shard,
        )
    print(json.dumps({k: v for k, v in res.items() if k != "out_dir"}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="spacy_crfsuite_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("train")
    t.add_argument("input")
    t.add_argument("-o", "--out-dir", required=True)
    t.add_argument("-c", "--config")
    t.add_argument("--fine-tune", action="store_true")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval")
    e.add_argument("input")
    e.add_argument("-m", "--model", required=True)
    e.add_argument("-c", "--config")
    e.set_defaults(fn=cmd_eval)

    g = sub.add_parser("tag")
    g.add_argument("text")
    g.add_argument("-m", "--model", required=True)
    g.add_argument("-c", "--config")
    g.set_defaults(fn=cmd_tag)

    k = sub.add_parser("kg")
    k.add_argument("pages_dir")
    k.add_argument("out_dir")
    k.add_argument("--shards", type=int, default=1)
    k.add_argument("--files-per-shard", type=int, default=None,
                   help="incremental-ingest mode: fixed-size name-sorted "
                        "file chunks with name-hash shard ids (manifests "
                        "record file size+mtime, so an in-place rewrite "
                        "re-runs its chunk); appending inputs re-runs only "
                        "new chunks")
    k.set_defaults(fn=cmd_kg)

    s = sub.add_parser("scrub")
    s.add_argument("input", help="documents parquet file or directory")
    s.add_argument("out_dir")
    s.add_argument("--shards", type=int, default=1)
    s.add_argument("--files-per-shard", type=int, default=None,
                   help="incremental-ingest mode (see `kg`)")
    s.set_defaults(fn=cmd_scrub)

    x = sub.add_parser("export")
    x.add_argument("input", help="documents parquet file or directory")
    x.add_argument("out_dir")
    x.add_argument("--budget", type=int, default=20_000,
                   help="token budget for the quality selection")
    x.add_argument("--chunk-words", type=int, default=64)
    x.add_argument("--shards", type=int, default=1)
    x.add_argument("--files-per-shard", type=int, default=None,
                   help="incremental-ingest mode (see `kg`)")
    x.set_defaults(fn=cmd_export)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, IsADirectoryError, UserInputError) as e:
        # user-input problems get a one-line error; engine bugs keep their
        # tracebacks
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
