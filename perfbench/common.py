"""Shared pieces of the benchmark: paths, host stamp, statistics, tracing,
Ray start/stop and the seeded pages fixture.

Nothing here imports the program at module import time, so the benchmark
can report a missing source tree before anything else happens.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "spacy_crfsuite_ray"
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
# Ray appends "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store"
# (~63 bytes) to its temp dir, and AF_UNIX paths stop at 107 bytes.
RAY_TEMP_DIR = os.path.join(ROOT, ".pbray")
RAY_SOCKET_SUFFIX = 64


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def use_repo_imports() -> None:
    """Make the package importable here AND in every process started later
    (Ray workers and the server subprocess import from PYTHONPATH, not from
    this process's cwd)."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if ROOT not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + parts)


# ---------------------------------------------------------------- host stamp

def source_digest() -> str:
    """git sha when the checkout is a repository, else a sha1 over the
    program's source files (the benchmark may run from a plain export)."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for dirpath, dirs, names in os.walk(os.path.join(ROOT, PACKAGE)):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src:" + h.hexdigest()


def host_stamp() -> Dict:
    import pyarrow
    import ray

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity_cpus(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python": sys.version.split()[0],
        "source": source_digest(),
    }


def loadavg() -> List[float]:
    return list(os.getloadavg())


# ---------------------------------------------------------------- statistics

def quartiles(values: List[float]) -> Dict[str, float]:
    vals = sorted(values)
    if len(vals) == 1:
        return {"p25": vals[0], "p50": vals[0], "p75": vals[0]}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"p25": q1, "p50": statistics.median(vals), "p75": q3}


def tail(values: List[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples above it (nearest
    rank), or None when there are too few samples for one."""
    n = len(values)
    if n < 11:
        return None
    vals = sorted(values)
    idx = n - 11  # ten samples sit above index n - 11
    return {"percentile": round(100.0 * (idx + 1) / n, 3),
            "value": vals[idx], "samples": n}


# ------------------------------------------------------------------- tracing

class Tracer:
    """In-memory spans (name, start, end, parent, op id, counts). A disabled
    tracer records nothing and costs one attribute test per call site."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op=None, **counts):
        if not self.enabled:
            yield {}
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = {"id": None, "name": name, "op": op,
               "parent": stack[-1]["id"] if stack else None,
               "counts": dict(counts)}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the part of each span's
        interval that its children cover."""
        children: Dict[int, List[Dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: Dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
                if hi <= lo:
                    continue
                if cur_end is None or lo > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = lo, hi
                else:
                    cur_end = max(cur_end, hi)
            if cur_end is not None:
                covered += cur_end - cur_start
            dur = s["end"] - s["start"]
            out[s["name"]] = out.get(s["name"], 0.0) + dur - covered
        return out

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans
                   if s["name"] == name)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path: str) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                for s in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f)


# Ray Data calls that execute a Dataset. Counting the outermost one per
# thread gives the number of executions a layer started.
_CONSUMING = ("materialize", "count", "iter_batches", "iter_rows", "take",
              "take_all", "take_batch", "to_pandas", "to_arrow_refs",
              "write_parquet")


class ExecutionCounter:
    """Counts Dataset executions by wrapping Ray Data's public consuming
    methods for the lifetime of a ``with`` block (traced runs only)."""

    def __init__(self):
        self.n = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: Dict[str, object] = {}

    def __enter__(self):
        import ray.data as rd

        for name in _CONSUMING:
            orig = getattr(rd.Dataset, name)
            self._saved[name] = orig
            setattr(rd.Dataset, name, self._wrap(orig))
        return self

    def __exit__(self, *exc):
        import ray.data as rd

        for name, orig in self._saved.items():
            setattr(rd.Dataset, name, orig)
        self._saved.clear()

    def _wrap(self, orig):
        counter = self

        def wrapped(*args, **kwargs):
            depth = getattr(counter._local, "depth", 0)
            if depth == 0:
                with counter._lock:
                    counter.n += 1
            counter._local.depth = depth + 1
            try:
                return orig(*args, **kwargs)
            finally:
                counter._local.depth = depth

        wrapped.__name__ = orig.__name__
        return wrapped


# ----------------------------------------------------------------------- ray

class RayCluster:
    """A private single-node Ray instance sized to this process's CPU
    affinity, with its temp dir inside the checkout when the socket path
    limit allows it."""

    def __init__(self):
        self.temp_dir = None
        if len(RAY_TEMP_DIR.encode()) + RAY_SOCKET_SUFFIX <= 107:
            self.temp_dir = RAY_TEMP_DIR

    def start(self) -> None:
        import ray

        kwargs = {}
        if self.temp_dir:
            os.makedirs(self.temp_dir, exist_ok=True)
            kwargs["_temp_dir"] = self.temp_dir
        ray.init(address="local", num_cpus=affinity_cpus(),
                 object_store_memory=512 * 1024 * 1024,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", **kwargs)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()

    def remove_temp(self) -> None:
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def noop_execution() -> None:
    import ray.data as rd

    rd.range(1).materialize()


# ------------------------------------------------------------------ fixtures

def window_start(seed: int, salt: str) -> int:
    """The seed picks a page-index window; pages are keyed by index, so the
    window alone fixes every input byte."""
    return random.Random(f"{salt}-{seed}").randrange(10_000_000)


def write_pages(start: int, n_files: int, pages_per_file: int,
                out_dir: str):
    """Pages [start, start + n_files * pages_per_file) as parquet parts plus
    their planted gold triples. Returns (files, gold rows)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from spacy_crfsuite_ray.sources.pages import PAGES_SCHEMA, _page_rows

    os.makedirs(out_dir, exist_ok=True)
    files, gold = [], []
    for k in range(n_files):
        lo = start + k * pages_per_file
        rows = [_page_rows(i) for i in range(lo, lo + pages_per_file)]
        for r in rows:
            gold.extend(r.pop("gold"))
        path = os.path.join(out_dir, f"part-{k:05d}.parquet")
        pq.write_table(pa.Table.from_pylist(rows, schema=PAGES_SCHEMA), path)
        files.append(path)
    return files, gold


# --------------------------------------------------------------- the model

_TRAIN = """\
import json, sys, time
from spacy_crfsuite_ray.state.model import ensure_default_model
t0 = time.perf_counter()
path = ensure_default_model(sys.argv[1])
print(json.dumps({"model": path, "train_s": time.perf_counter() - t0}))
"""


def train_default_model(run, repeats: int):
    """``state.model.ensure_default_model`` into ``repeats`` fresh artifact
    dirs of this run, trained at the same time by child processes pinned to
    distinct CPUs. Training is deterministic single-core work that dominates
    set-up, so the median of the trainings is its time and every copy must
    be byte-identical. Returns (model path, seconds of each training)."""
    art = os.path.join(run.dir, "artifacts")
    os.environ["SCR_RAY_ARTIFACTS"] = art
    cpus = sorted(os.sched_getaffinity(0))
    procs = []
    for k in range(repeats):
        d = os.path.join(art, f"train-{k}")
        os.makedirs(d)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _TRAIN, os.path.join(d, "kg_crf_v1.npz")],
            cwd=ROOT, env=dict(os.environ, SCR_RAY_ARTIFACTS=d),
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            preexec_fn=lambda cpu=cpus[k % len(cpus)]:
                os.sched_setaffinity(0, {cpu})))
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        raise RuntimeError("training the default model failed")
    done = [json.loads(o.strip().splitlines()[-1]) for o in outs]
    digests = set()
    for d in done:
        with open(d["model"], "rb") as f:
            digests.add(hashlib.sha256(f.read()).hexdigest())
    try:
        run.check("setup.training_deterministic", len(digests) == 1,
                  trainings=len(done))
    except AssertionError:
        pass  # recorded as a failed check: the result reads correct=false
    return done[0]["model"], [d["train_s"] for d in done]


# --------------------------------------------------------------- reference

def reference_tags(model: str, sentences: List[str]) -> List[List[Dict]]:
    """Entities from the per-sentence reference tagger (core.crf through
    ``CRFExtractor.process``), the path the batched fast tagger must match."""
    from spacy_crfsuite_ray.core.tokenizer import RegexTokenizer
    from spacy_crfsuite_ray.stages.tag import tag_sentences
    from spacy_crfsuite_ray.state.model import load_extractor

    return tag_sentences(load_extractor(model), RegexTokenizer(), sentences)


def same_entities(got: List[Dict], want: List[Dict]) -> bool:
    """Spans, labels and values exact; confidence within 1e-9, the
    tolerance of tests/test_fast_tag.py."""
    return len(got) == len(want) and all(
        (g["start"], g["end"], g["value"], g["entity"])
        == (w["start"], w["end"], w["value"], w["entity"])
        and abs(g["confidence"] - w["confidence"]) <= 1e-9
        for g, w in zip(got, want))


def release_memory() -> None:
    """Hand freed Python and Arrow memory back to the OS, so the RSS the
    program starts from is not inflated by what the benchmark freed."""
    import ctypes
    import gc

    import pyarrow as pa

    gc.collect()
    pa.default_memory_pool().release_unused()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def peak_rss_reset(pid: str = "self") -> None:
    """Reset the kernel's peak-RSS mark so VmHWM covers only what follows."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")
