"""HTTP serving surface — parity with the reference's FastAPI app
(/root/reference/spacy_crfsuite/serve.py:38-93) on the standard library only
(no FastAPI/network deps in this environment).

Endpoints:
- ``GET /status``  → ``{"status": "OK", "crf_model": <basename>}``
- ``POST /parse``  with ``{"text": str | [str, ...]}`` →
  ``{"data": [{"text": ..., "entities": [{"entity", "value", "start",
  "end"}, ...]}, ...]}`` — the reference Response/Sentence/Entity shape.

The handler delegates to :func:`spacy_crfsuite_ray.api.parse_texts`, which
tags with the warm FastTagger of the cached model (reloaded only when the
model file changes), so serving cost is the batched inference kernel, not
per-request model loads.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .api import parse_texts

# ThreadingHTTPServer handles requests concurrently, but the warm FastTagger
# mutates its per-token encode cache during tagging — inference is serialized
# (the model itself is the bottleneck; batch within one request for speed)
_PARSE_LOCK = threading.Lock()


def make_handler(model_path: Optional[str] = None,
                 config: Optional[Dict] = None):
    """Build a request-handler class bound to one model configuration."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # quiet by default (library use)
            pass

        def _send(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/status":
                self._send(404, {"error": "not found"})
                return
            self._send(200, {
                "status": "OK",
                "crf_model": os.path.basename(model_path) if model_path
                else "default",
            })

        def do_POST(self):
            if self.path != "/parse":
                self._send(404, {"error": "not found"})
                return
            try:
                n = int(self.headers.get("Content-Length", 0))
                req = json.loads(self.rfile.read(n) or b"{}")
                text = req["text"]
                if not isinstance(text, (str, list)):
                    # a dict/number would otherwise be iterated (dict keys
                    # are strings!) and silently parsed — reject explicitly
                    raise TypeError("text must be str or list of str")
                texts = [text] if isinstance(text, str) else text
                if not all(isinstance(t, str) for t in texts):
                    raise TypeError("text items must be strings")
            except (KeyError, TypeError, ValueError, json.JSONDecodeError):
                # KeyError: no 'text'; TypeError: non-object body / non-str
                # non-iterable text — all malformed requests get a 400, never
                # a dropped connection
                self._send(400, {"error": "body must be JSON with 'text': "
                                          "str | [str, ...]"})
                return
            try:
                with _PARSE_LOCK:
                    data = parse_texts(texts, model_path, config)
            except Exception as exc:  # surface model errors as 500 JSON
                self._send(500, {"error": str(exc)})
                return
            self._send(200, {"data": data})

    return Handler


def make_server(model_path: Optional[str] = None,
                config: Optional[Dict] = None,
                host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Create (not start) a threading HTTP server; ``port=0`` picks a free
    port (``server.server_address[1]``). Caller owns serve_forever/shutdown."""
    return ThreadingHTTPServer((host, port), make_handler(model_path, config))


def main(argv=None) -> None:  # pragma: no cover - thin CLI wrapper
    import argparse

    ap = argparse.ArgumentParser(description="Serve /parse and /status")
    ap.add_argument("-m", "--model", default=None)
    ap.add_argument("-p", "--port", type=int, default=8000)
    args = ap.parse_args(argv)
    srv = make_server(args.model, port=args.port)
    print(f"serving on {srv.server_address[0]}:{srv.server_address[1]}")
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        srv.shutdown()


if __name__ == "__main__":  # pragma: no cover
    main()
