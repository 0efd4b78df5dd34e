"""Benchmark of the spacy_crfsuite_ray KG engine.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 25 --trace 0

Workloads (each a closed loop with one caller):

- ``kg_build``    cold ``run_kg_pipeline`` over a seeded 8,000-page fixture;
- ``parse_serve`` POST /parse of one seeded page per request to
                  ``python -m spacy_crfsuite_ray.serve`` in a subprocess.

The seed picks a page-index window of the page generator; the program gets
only the pages written from that window. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes a separate traced run (spans around
every call into a layer, kept in memory) and prints the per-layer metrics.
Every op's output is checked; the full record (host stamp, load average,
set-up, latencies, checks, spans) is written under ``.perfbench_runs/``.
The last stdout line is one JSON object; everything else goes to stderr.

Run it from anywhere: the source tree is found from this file's location.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

RUN_LIMIT_S = 170
SETUP_REPEATS = 3
WORKLOADS = ("kg_build", "parse_serve")

OPS_LAYERS = ("ops.graph", "ops.text", "ops.dedup", "ops.clean",
              "ops.multimodal")
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "pages_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "state.model.ensure_default_model_s": "s",
    "stages.extract.extract_text_batch_s": "s",
    "stages.extract.filter_lang_s": "s",
    "stages.extract.explode_sentences_s": "s",
    "stages.extract.pages_in": "count",
    "stages.extract.sentences_out": "count",
    "stages.tag.tag_batch_s": "s",
    "stages.tag.sentences_in": "count",
    "stages.tag.entities_out": "count",
    "core.fast_tag.tag_texts_s": "s",
    "stages.relations.derive_union_batch_s": "s",
    "stages.relations.rows_out_t": "count",
    "stages.relations.rows_out_s": "count",
    "stages.relations.rows_out_e": "count",
    "pipelines.kg.run_phase1_s": "s",
    "pipelines.kg.run_phase2_s": "s",
    "pipelines.kg.shards_run": "count",
    "pipelines.kg.shards_skipped": "count",
    "pipelines.kg.skip_ratio": "ratio",
    "pipelines.kg.ray_executions": "count",
    "pipelines.kg.refresh_s": "s",
    "core.linking.mapping_from_surfaces_s": "s",
    "core.linking.surfaces_in": "count",
    "core.linking.mapping_out": "count",
    "stages.graph.manifest_valid_s": "s",
    "ops.graph_s": "s",
    "ops.graph.rows_out": "count",
    "ops.graph.ray_executions": "count",
    "ops.text_s": "s",
    "ops.text.rows_out": "count",
    "ops.text.ray_executions": "count",
    "ops.dedup_s": "s",
    "ops.dedup.rows_out": "count",
    "ops.dedup.ray_executions": "count",
    "ops.clean_s": "s",
    "ops.clean.rows_out": "count",
    "ops.clean.ray_executions": "count",
    "ops.multimodal_s": "s",
    "ops.multimodal.rows_out": "count",
    "ops.multimodal.ray_executions": "count",
    "api.parse_texts_s": "s",
    "serve.overhead_ms": "ms",
    "ray.noop_execution_s": "s",
    "ray.read_parquet_s": "s",
    "ray.groupby_s": "s",
    "ray.join_s": "s",
    "trace.overhead_ms": "ms",
}


class Run:
    """State of one benchmark run: inputs, counters, checks and results."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = "smoke" if args.smoke else "full"
        self.setup_repeats = 1 if args.smoke else SETUP_REPEATS
        self.dir = os.path.join(
            common.RUNS_DIR,
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.tracer = common.Tracer(bool(args.trace))
        self.counter = common.ExecutionCounter()
        self.cluster = common.RayCluster()
        self.setup = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = {}
        self.latencies, self.pages = [], []
        self.traced_s, self.untraced_s = [], []
        self.executions = []  # Ray executions of each traced op
        self.refresh = {}  # stats of the traced run's resume probe
        self.peak_rss_mb = None
        self.rss_mb = []  # peak RSS of each measured op
        self.sentences = None
        self.serve_overhead_ms = 0.0
        self._exit = []

    def check(self, name: str, ok: bool, **info) -> None:
        rec = self.checks.setdefault(name, {"ran": 0, "failed": 0})
        rec["ran"] += 1
        if info:
            rec["last"] = info
        if not ok:
            rec["failed"] += 1
            raise AssertionError(f"check failed: {name} {info or ''}")

    def fail(self, op: int, exc: BaseException) -> None:
        self.failed += 1
        self.failures.append({"op": op, "error": repr(exc)})
        traceback.print_exception(exc, file=sys.stderr)

    def on_exit(self, fn) -> None:
        self._exit.append(fn)

    def close(self) -> None:
        for fn in reversed(self._exit):
            fn()
        self._exit.clear()

    # ------------------------------------------------------------ metrics

    def end_to_end(self):
        return {
            "setup_s": self.setup["setup_s"],
            "op_p50_ms": 1000.0 * statistics.median(self.latencies),
            "pages_per_s": sum(self.pages) / sum(self.latencies),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self):
        t = self.tracer
        own = t.self_times()

        def med(values):
            return statistics.median(values) if values else 0.0

        run_ = self.refresh.get("shards_run", 0)
        skipped = self.refresh.get("shards_skipped", 0)
        out = {
            "pipelines.kg.run_phase1_s": med(t.durations("pipelines.kg.run_phase1")),
            "pipelines.kg.run_phase2_s": med(t.durations("pipelines.kg.run_phase2")),
            "pipelines.kg.shards_run": run_,
            "pipelines.kg.shards_skipped": skipped,
            "pipelines.kg.skip_ratio":
                skipped / (run_ + skipped) if self.refresh else 0.0,
            "pipelines.kg.ray_executions": med(self.executions),
            "stages.extract.pages_in": t.count(
                "stages.extract.extract_text_batch", "pages_in"),
            "stages.extract.sentences_out": t.count(
                "stages.extract.explode_sentences", "sentences_out"),
            "stages.tag.sentences_in": t.count("stages.tag.tag_batch",
                                               "sentences_in"),
            "stages.tag.entities_out": t.count("stages.tag.tag_batch",
                                               "entities_out"),
            "core.linking.surfaces_in": t.count(
                "core.linking.mapping_from_surfaces", "surfaces_in"),
            "core.linking.mapping_out": t.count(
                "core.linking.mapping_from_surfaces", "mapping_out"),
            "state.model.ensure_default_model_s": self.setup["train_s"],
            "serve.overhead_ms": self.serve_overhead_ms,
            "ray.noop_execution_s": med(t.durations("ray.noop_execution")),
            "trace.overhead_ms": 1000.0 * (med(self.traced_s)
                                           - med(self.untraced_s))
            if self.traced_s and self.untraced_s else 0.0,
        }
        for layer in OPS_LAYERS:
            for key in ("rows_out", "ray_executions"):
                out[f"{layer}.{key}"] = t.count(layer, key)
        for kind in ("t", "s", "e"):
            out[f"stages.relations.rows_out_{kind}"] = t.count(
                "stages.relations.derive_union_batch", "rows_out_" + kind)
        for name in PER_LAYER:
            if name not in out:  # "<span name>_s": the layer's self time
                out[name] = own.get(name[:-2], 0.0)
        return out

    def record(self, trace: int) -> dict:
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": trace, "size": self.size,
            "setup": self.setup, "attempted": self.attempted,
            "failed": self.failed, "failures": self.failures,
            "fail_ratio": self.failed / max(self.attempted, 1),
            "checks": self.checks,
            "latency_s": self.latencies,
            "latency_quartiles_s": common.quartiles(self.latencies)
            if self.latencies else None,
            "latency_tail_s": common.tail(self.latencies),
            "sentences": self.sentences, "op_peak_rss_mb": self.rss_mb,
            "traced_op_s": self.traced_s, "untraced_op_s": self.untraced_s,
            "traced_op_ray_executions": self.executions,
            "refresh_probe": {k: v for k, v in self.refresh.items()
                              if not k.endswith("_dir")},
            "ray_temp_dir": self.cluster.temp_dir,
        }


def _descendants():
    """pids of every live process below this one (from /proc)."""
    parent = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            parent[int(name)] = int(fields[1])
    out, frontier = set(), {os.getpid()}
    while frontier:
        frontier = {p for p, pp in parent.items() if pp in frontier} - out
        out |= frontier
    return out


def _running(pids):
    """Those of ``pids`` that still run (zombies excluded)."""
    out = set()
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            out.add(p)
    return out


def _wait_gone(pids, timeout_s: float = 30.0) -> None:
    """Reap and wait for ``pids`` (Ray's processes end asynchronously after
    ``ray.shutdown``); SIGKILL whatever outlives the timeout."""
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        alive = _running(pids)
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {sorted(alive)} did not exit")
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed, deadline = True, time.monotonic() + 5.0
        time.sleep(0.1)


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up (benchmark self-test)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(common.ROOT, common.PACKAGE)):
        print(f"no {common.PACKAGE}/ source tree next to perfbench/ at "
              f"{common.ROOT}", file=sys.stderr)
        return 2

    # stdout carries only the result; Ray, the server and the program log
    # to stderr (child processes inherit the redirected descriptor)
    result_fd = os.dup(1)
    os.dup2(2, 1)
    common.use_repo_imports()
    signal.signal(signal.SIGALRM, _timeout)
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(RUN_LIMIT_S)

    from kg import kg_build
    from parse_serve import parse_serve

    run = Run(args)
    record = {"host": common.host_stamp(), "loadavg_before": common.loadavg()}
    status = 1
    try:
        with run.counter if args.trace else contextlib.nullcontext():
            {"kg_build": kg_build, "parse_serve": parse_serve}[
                args.workload](run)
        metrics = run.per_layer() if args.trace else run.end_to_end()
        units = PER_LAYER if args.trace else END_TO_END
        status = 0
    except BaseException:  # noqa: BLE001 - report, clean up, exit non-zero
        traceback.print_exc()
    finally:
        run.close()
        pids = _descendants()
        run.cluster.stop()
        _wait_gone(pids)
        run.cluster.remove_temp()
        signal.alarm(0)
    record.update(run.record(args.trace))
    record["loadavg_after"] = common.loadavg()
    for name in ("pages", "artifacts", "reference", "documents") + tuple(
            n for n in os.listdir(run.dir) if n.startswith("out")):
        shutil.rmtree(os.path.join(run.dir, name), ignore_errors=True)
    if status != 0:
        _write(os.path.join(run.dir, "record.json"), record)
        return 1

    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                         for k in units}
    if args.trace:
        run.tracer.dump(os.path.join(run.dir, "spans.json"))
    _write(os.path.join(run.dir, "record.json"), record)
    print(f"record: {os.path.join(run.dir, 'record.json')}", file=sys.stderr)

    correct = run.failed == 0 and all(c["failed"] == 0
                                      for c in run.checks.values())
    lines = [f"{k} {v['value']:.6g} {v['unit']}"
             for k, v in record["metrics"].items()]
    lines.append(f"fail_ratio {run.failed / run.attempted:.6g} ratio")
    tail = record["latency_tail_s"]
    if tail and not args.trace:
        lines.append(f"op_tail_ms {1000 * tail['value']:.6g} ms "
                     f"p{tail['percentile']} n={tail['samples']}")
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": record["metrics"]}
    with os.fdopen(result_fd, "w") as out:
        out.write("\n".join(lines + [json.dumps(result)]) + "\n")
    return 0


def _write(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, default=str)


if __name__ == "__main__":
    sys.exit(main())
