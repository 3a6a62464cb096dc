"""Runs one fairmlp command in-process and writes what it measured.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

JOB holds ``argv`` for ``fairmlp.cli.main``, ``trace`` (wrap the layers
in spans) and ``setup`` (after the command, time the ingest sequence
every command pays: resolve_schema + load_csv + encode, plus
load_checkpoint + Encoder.from_json when a model is given). The BLAS
thread count is pinned by the caller through the environment, before
numpy is imported here.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import spans


def _peak_rss_mb() -> float:
    """Peak resident set of this process image. ru_maxrss is not used: it
    carries over the parent's peak through fork and exec."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def time_setup(setup: dict) -> float:
    from fairmlp import data, model

    t0 = time.perf_counter()
    schema = data.resolve_schema(setup["schema"])
    table = data.load_csv(setup["csv"], schema)
    encoder = None
    if setup.get("model"):
        model.load_checkpoint(setup["model"])
        encoder = data.Encoder.from_json(setup["encoder"])
    data.encode(table, schema, encoder)
    return time.perf_counter() - t0


def run(job: dict) -> dict:
    from fairmlp import cli

    tracer = spans.Tracer() if job["trace"] else None
    main = cli.main
    if tracer is not None:
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    out = io.StringIO()
    result = {"rc": None, "error": None}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            result["rc"] = main(job["argv"])
    except Exception:  # the caller counts the run as failed
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()
    result["stdout"] = out.getvalue()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.results)
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    elif job.get("setup") and result["rc"] == 0:
        result["setup_s"] = time_setup(job["setup"])
    return result


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
