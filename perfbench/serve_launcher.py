"""Run ``repro serve`` with spans around each served layer (traced run).

    python3 perfbench/serve_launcher.py SUMMARY.json [repro serve flags...]

Wraps the layer entry points inside this server process, then hands the
flags to ``repro.service.http.main``.  Once the server has drained and
returned (SIGTERM), the per-layer summary is written to ``SUMMARY.json``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

from layers import Recorder


def instrument(recorder: Recorder) -> None:
    from repro.analysis import batch as analysis_batch
    from repro.service import cache, facade, http

    # The transport's body codec: request bodies are decoded with
    # json.loads, responses encoded with json.dumps.
    recorder.patch(http, "json", types.SimpleNamespace(
        loads=recorder.traced("json.decode", json.loads),
        dumps=recorder.traced("json.encode", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    ))
    recorder.wrap(http, "task_from_dict", "task.decode")
    recorder.wrap(facade, "task_fingerprint", "fingerprint")
    recorder.trace_compile()
    recorder.wrap(facade.EvaluationService, "submit_simulation", "facade")
    recorder.wrap(facade.EvaluationService, "submit_analysis", "facade")

    lookup = cache.ResultCache.get

    def get(self, key, *args, **kwargs):
        # Files the enclosing facade span under facade.hit / facade.miss.
        result = lookup(self, key, *args, **kwargs)
        record = recorder.current()
        if record is not None and record["name"] == "facade" and record["kind"] is None:
            record["kind"] = "miss" if result is None else "hit"
        return result

    recorder.patch(cache.ResultCache, "get", get)
    recorder.wrap(facade, "analyse_many", "analyse",
                  lambda record, result, *a, **k: recorder.count("analyse.tasks", len(result)))
    recorder.trace_transform(analysis_batch)
    recorder.wrap(facade, "simulate_many", "engine")


def main(argv: list[str]) -> int:
    summary_path = Path(argv[0])
    from repro.service import http

    recorder = Recorder()
    instrument(recorder)
    try:
        return http.main(argv[1:])
    finally:
        summary = {"layers": recorder.layers(), "counts": dict(recorder.counts)}
        summary_path.write_text(json.dumps(summary), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
