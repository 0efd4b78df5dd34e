"""parse_serve: ``python -m spacy_crfsuite_ray.serve`` in a subprocess, one
client in a closed loop, one page's sentences per POST /parse, pages never
repeated (every 251st page of the generator is a 40x giant).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from http.client import HTTPConnection
from typing import Dict, List, Optional

from common import (
    ROOT,
    peak_rss_mb,
    peak_rss_reset,
    reference_tags,
    same_entities,
    train_default_model,
    window_start,
)

WARMUP_REQUESTS = 20
REFERENCE_SAMPLE = 64  # requests re-tagged by the slow reference tagger
STATUS_TIMEOUT_S = 60.0


class Server:
    """One serve subprocess on a free port; ``stop`` waits until it exits."""

    def __init__(self, model: str):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "spacy_crfsuite_ray.serve", "-m", model,
             "-p", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True,
        )
        line = self.proc.stdout.readline()  # "serving on <host>:<port>"
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + STATUS_TIMEOUT_S
        while True:
            try:
                if self.request("GET", "/status")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("serve /status never returned 200")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def page_sentences(index: int) -> List[str]:
    from spacy_crfsuite_ray.core.sentences import split_sentences
    from spacy_crfsuite_ray.sources.pages import _page_rows

    return [s for _, s in split_sentences(_page_rows(index)["text"])]


def parse_body(texts: List[str]) -> bytes:
    return json.dumps({"text": texts}).encode("utf-8")


def setup_ready(run, repeats: int) -> Dict:
    """The default model trained into the run's own artifact dir (the
    median of ``repeats`` trainings, see ``train_default_model``), plus the
    median of ``repeats`` cold server starts: spawn, /status 200, and a
    first /parse that loads the model."""
    model, trains = train_default_model(run, repeats)
    train_s = statistics.median(trains)
    art = os.path.dirname(model)
    starts, server = [], None
    warm = parse_body(["Alice Martin works at Acme Corp."])
    for k in range(repeats):
        if server is not None:
            server.stop()
        copy = os.path.join(art, f"load-{k}.npz")
        shutil.copyfile(model, copy)
        t0 = time.perf_counter()
        server = Server(copy)
        run.on_exit(server.stop)
        server.wait_ready()
        status, _ = server.request("POST", "/parse", warm)
        starts.append(time.perf_counter() - t0)
        if status != 200:
            raise RuntimeError(f"warm /parse returned {status}")
    return {"model": copy, "server": server, "train_s": train_s,
            "trains_s": trains, "start_s": starts,
            "setup_s": train_s + statistics.median(starts)}


def parse_serve(run) -> None:
    from spacy_crfsuite_ray.api import parse_texts

    s = setup_ready(run, run.setup_repeats)
    server = s.pop("server")
    run.setup = s
    model = s["model"]
    first = window_start(run.seed, "parse_serve")
    sent: List[List[str]] = []
    got: List[bytes] = []
    http_s: List[float] = []

    def one(k: int, traced: bool) -> None:
        texts = page_sentences(first + k)
        body = parse_body(texts)
        run.attempted += 1
        t0 = time.perf_counter()
        with run.tracer.span("serve.parse_request", op=k):
            status, data = server.request("POST", "/parse", body)
        dt = time.perf_counter() - t0
        sent.append(texts)
        got.append(data if status == 200 else b"")
        http_s.append(dt)
        if k >= WARMUP_REQUESTS:
            run.latencies.append(dt)
            run.pages.append(1)
            (run.traced_s if traced else run.untraced_s).append(dt)

    for k in range(WARMUP_REQUESTS):
        one(k, traced=False)
    peak_rss_reset(str(server.proc.pid))
    k = WARMUP_REQUESTS
    t_end = time.perf_counter() + run.seconds
    while time.perf_counter() < t_end or k < 2 * WARMUP_REQUESTS:
        one(k, traced=run.tracer.enabled and k % 2 == 1)
        k += 1
    run.peak_rss_mb = peak_rss_mb(str(server.proc.pid))
    server.stop()

    # outside the timed region: every response must equal the in-process
    # API on the same texts (also the base of serve.overhead_ms), and a
    # seeded sample must equal the reference tagger, which the API's fast
    # tagger replaces
    sample = set(random.Random(f"sample-{run.seed}").sample(
        range(len(sent)), min(REFERENCE_SAMPLE, len(sent))))
    overhead = []
    for k, (texts, data, dt) in enumerate(zip(sent, got, http_s)):
        t0 = time.perf_counter()
        with run.tracer.span("api.parse_texts", op=k):
            want = parse_texts(texts, model_path=model)
        local = time.perf_counter() - t0
        overhead.append(dt - local)
        try:
            resp = json.loads(data)["data"] if data else None
            run.check("parse_serve.response_equals_parse_texts",
                      resp == json.loads(json.dumps(want)))
            if k in sample:
                run.check("parse_serve.tagger_equals_reference_sample", all(
                    same_entities(r["entities"], ref) for r, ref in
                    zip(resp, reference_tags(model, texts))))
        except (AssertionError, ValueError, KeyError) as exc:
            run.fail(k, exc)
    run.sentences = sum(len(t) for t in sent[WARMUP_REQUESTS:])
    run.serve_overhead_ms = 1000.0 * statistics.median(
        overhead[WARMUP_REQUESTS:])
    if run.tracer.enabled:
        from spacy_crfsuite_ray.core.fast_tag import FastTagger
        from spacy_crfsuite_ray.state.model import load_extractor

        fast = FastTagger(load_extractor(model))
        for texts in sent:
            with run.tracer.span("core.fast_tag.tag_texts"):
                fast.tag_texts(texts)
