"""Timed CLI calls of one benchmark run, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the workload, workload seed, run length, trace flag, work
directory and worker count; run.py writes it and sets PYTHONPATH and the
BLAS thread variables. Each call goes through ``strategia.cli.main``
in-process and is timed from the argv to the return, which covers config
loading, scenario building, the computation and the CSV write. Jobs start
while the longest job so far still fits in the run length. When the
workload names a reference kernel (calib.py), the kernel is timed right
before and right after the untraced pass of every job; one timing serves as
the "after" of one job and the "before" of the next when nothing runs in
between. With tracing on,
each job runs once untraced at the workload's worker count and once traced
at one worker; the results hold both passes, and the traced spans are
written as gzipped JSON lines to the path SPEC names.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import io
import json
import os
import resource
import sys
import time

import calib
import workloads
from tracer import Tracer


def _run_call(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit status, stderr text, error) of one cli.main call."""
    err = io.StringIO()
    error = ""
    gc.collect()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback: the call failed
            rc, error = -1, f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
    return seconds, rc, err.getvalue(), error


def _run_job(cli, job: int, seed: int, calls, workdir: str, workers: int, tag: str,
             tracer=None, first_id: int = 0) -> list[dict]:
    files: dict[int, str] = {}
    records = []
    for i, call in enumerate(calls):
        key = id(call.config)
        if key not in files:
            files[key] = os.path.join(workdir, f"job{job}-{tag}-config{len(files)}.json")
            with open(files[key], "w", encoding="utf-8") as fh:
                json.dump(call.config, fh)
        out = os.path.join(workdir, f"job{job}-{i}-{call.kind}-{tag}.csv")
        argv = [call.command, "--config", files[key], "--out", out, "--workers", str(workers)]
        if tracer is not None:
            tracer.call_id = first_id + i
        seconds, rc, stderr, error = _run_call(cli, argv)
        records.append({
            "job": job, "job_seed": seed, "kind": call.kind, "pass": tag,
            "config": files[key], "csv": out, "workers": workers,
            "seconds": seconds, "rc": rc, "stderr": stderr, "error": error,
        })
    return records


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import strategia
    import strategia.cli as cli
    import concurrent.futures.process  # noqa: F401  (imported lazily by the first pool)

    workload = workloads.WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    records: list[dict] = []
    job_seconds: list[float] = []
    kernel: list[list[float]] = []
    reference = workload.reference
    if reference:
        calib.kernel_seconds(reference)  # warm-up
    after = None
    begin = time.perf_counter()
    job = 0
    while not job_seconds or time.perf_counter() - begin + max(job_seconds) <= spec["seconds"]:
        started = time.perf_counter()
        seed = workloads.job_seed(spec["seed"], job)
        calls = workload.calls(seed)
        if reference:
            before = calib.kernel_seconds(reference) if after is None else after
        records += _run_job(cli, job, seed, calls, spec["workdir"], spec["workers"], "plain")
        if reference:
            after = calib.kernel_seconds(reference)
            kernel.append([before, after])
        if tracer is not None:
            after = None
            tracer.install(strategia)
            try:
                records += _run_job(cli, job, seed, calls, spec["workdir"], 1, "traced",
                                    tracer, len(records))
            finally:
                tracer.uninstall()
        job_seconds.append(time.perf_counter() - started)
        job += 1

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"records": records, "kernel": kernel,
              "peak_rss_mb": max(self_kb, children_kb) / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.reduce()
        with gzip.open(spec["spans"], "wt", encoding="utf-8", compresslevel=1) as fh:
            for rec in tracer.span_records():
                rec["job"] = records[rec["call"]]["job"]
                fh.write(json.dumps(rec) + "\n")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
