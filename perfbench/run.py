"""strategia benchmark: one workload, one workload seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run times set-up in fresh interpreters (perfbench/probe.py), then runs
the workload's jobs for about S seconds in a worker interpreter
(perfbench/worker.py) that calls ``strategia.cli.main`` in-process, then
checks every call's CSV against ``strategia.oracles`` (perfbench/checks.py).
Every set-up probe is bracketed by timings of a fresh interpreter that
imports numpy alone, and, on a workload that names a reference kernel
(perfbench/calib.py), every job by timings of that kernel; ``setup_s`` and
``job_s`` are reported in reference seconds, which take out the drift of a
shared machine's speed. The report lines give the wall seconds as well.
It prints a report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``. A traced run also writes its spans as gzipped JSON lines to
``.perfbench_work/spans-<workload>-<seed>.jsonl.gz``.

The program is taken from ``src/`` of the checkout and nowhere else; the
run exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import PER_LAYER, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

E2E = (
    ("job_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_PROBES = 9
# The set-up reference: a fresh interpreter that imports numpy and not the
# program (calib.REF_S["interpreter"]).
INTERPRETER_ARGS = ("-c", "import numpy")
SHARES_SHOWN = 8
# A run is killed this long after its --seconds of jobs would end.
RUN_MARGIN_S = 120.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _spawn(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the group if the run limit passes."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _env_line(args, nproc: int, workers: int, blas_threads: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"# env workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={nproc} workers={workers} blas_threads={blas_threads} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name', '?')}-{blas.get('version', '?')} "
        f"commit={_git_commit()} src_sha256={_src_digest()[:16]}"
    )


def _high_percentile(values: list[float]) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    best = "-"
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            rank = max(0, min(n - 1, -(-p * n // 100) - 1))
            best = f"p{p:g}={xs[int(rank)]:.4f}"
    return best


def _error_lines(stderr: str) -> list[str]:
    return [ln for ln in stderr.splitlines() if ln.startswith(("error:", "config error:"))]


def _judge(records: list[dict], checker, workload: str) -> None:
    """Fill in each record's digest and failure reason ('' when the call is good)."""
    refs = json.loads((HERE / "digests.json").read_text())
    plain_digest = {}
    for rec in records:
        rec["sha256"] = ""
        rec["digest"] = "-"
        if rec["rc"] not in (0, 1) or rec["error"] or _error_lines(rec["stderr"]):
            rec["failure"] = rec["error"] or "; ".join(_error_lines(rec["stderr"])) or f"exit {rec['rc']}"
            continue
        try:
            text = Path(rec["csv"]).read_text(encoding="utf-8")
        except OSError:
            rec["failure"] = "no CSV written"
            continue
        rec["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        key = (rec["job"], rec["kind"])
        if rec["pass"] == "plain":
            plain_digest[key] = rec["sha256"]
            config = json.loads(Path(rec["config"]).read_text())
            sample_key = f"{workload}:{rec['job_seed']}:{rec['kind']}"
            try:
                rec["failure"] = "; ".join(checker.check(rec["kind"], config, text, sample_key))
            except Exception as e:  # a malformed CSV fails its call, not the run
                rec["failure"] = f"check raised {type(e).__name__}: {e}"
            ref = refs.get(f"{workload}/{rec['kind']}/{rec['job_seed']}")
            rec["digest"] = "new" if ref is None else ("same" if ref == rec["sha256"] else "changed")
        else:
            same = plain_digest.get(key) == rec["sha256"]
            rec["failure"] = "" if same else "traced 1-worker CSV differs from the untraced CSV"


def _job_times(records: list[dict], tag: str) -> list[float]:
    per_job = defaultdict(float)
    for rec in records:
        if rec["pass"] == tag:
            per_job[rec["job"]] += rec["seconds"]
    return [per_job[j] for j in sorted(per_job)]


def _report(reference, records, kernel, setup_times, setup_kernel, peak_rss_mb) -> dict:
    import calib  # imports numpy, so only after main() has pinned the BLAS threads

    plain = [r for r in records if r["pass"] == "plain"]
    for r in records:
        print(f"# call job={r['job']} job_seed={r['job_seed']} kind={r['kind']} pass={r['pass']} "
              f"seconds={r['seconds']:.4f} rc={r['rc']} sha256={r['sha256'] or '-'} "
              f"digest={r['digest']} oracle={'FAIL ' + r['failure'] if r['failure'] else 'ok'}")
    job_times = _job_times(records, "plain")
    job_ref = job_times
    if reference:
        job_ref = [calib.reference_seconds(reference, s, *k) for s, k in zip(job_times, kernel)]
        kernel_all = [k for pair in kernel for k in pair]
        print(f"# reference kernel {reference}: median {statistics.median(kernel_all):.4f} s "
              f"over {len(kernel_all)} timings, reference {calib.REF_S[reference]} s")
    setup_ref = [calib.reference_seconds("interpreter", s, setup_kernel[i], setup_kernel[i + 1])
                 for i, s in enumerate(setup_times)]
    print(f"# reference kernel interpreter: median {statistics.median(setup_kernel):.4f} s "
          f"over {len(setup_kernel)} timings, reference {calib.REF_S['interpreter']} s")
    values = {
        "job_s": statistics.median(job_ref),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb,
    }
    timings = {"job_s": job_ref, "setup_s": setup_ref, "setup_wall_s": setup_times}
    if reference:
        timings["job_wall_s"] = job_times
    for r in plain:
        timings.setdefault(r["kind"] + "_s", []).append(r["seconds"])
    print(f"# {'metric':<16} {'unit':<6} {'n':>4} {'median':>12}  high percentile")
    for name, secs in timings.items():
        print(f"# {name:<16} {'s':<6} {len(secs):>4} {statistics.median(secs):>12.4f}  "
              f"{_high_percentile(secs)}")
    print(f"# {'peak_rss_mb':<16} {'MB':<6} {1:>4} {peak_rss_mb:>12.1f}")
    failed = sum(1 for r in records if r["failure"])
    print(f"# {'fail_ratio':<16} {'ratio':<6} {len(records):>4} {failed / len(records):>12.4f}")
    digests = defaultdict(int)
    for r in plain:
        digests[r["digest"]] += 1
    print(f"# digests against the reference: {dict(digests)} (a changed digest is not a failure)")
    print(f"# verdict: {'correct' if failed == 0 else f'{failed} of {len(records)} calls failed'}")
    return values


def _trace_report(records, trace: dict) -> dict:
    plain, traced = _job_times(records, "plain"), _job_times(records, "traced")
    overhead = statistics.median(traced) / statistics.median(plain)
    print(f"# tracing overhead: traced job median {statistics.median(traced):.4f} s / "
          f"untraced {statistics.median(plain):.4f} s = {overhead:.3f}")
    seconds = defaultdict(lambda: defaultdict(list))
    for rec in records:
        seconds[rec["kind"]][rec["pass"]].append(rec["seconds"])
    for kind, by_pass in seconds.items():
        ratio = statistics.median(by_pass["traced"]) / statistics.median(by_pass["plain"])
        print(f"# tracing overhead of {kind}_s: {ratio:.3f}")
    kind_self = defaultdict(lambda: defaultdict(float))
    for call, per_name in trace["by_call"].items():
        rec = records[int(call)]
        for name, s in per_name.items():
            kind_self[rec["kind"]][name.partition("[")[0]] += s
    for kind, per_name in kind_self.items():
        total = sum(seconds[kind]["traced"])
        top = sorted(per_name.items(), key=lambda kv: -kv[1])[:SHARES_SHOWN]
        shares = ", ".join(f"{n} {s / total:.1%}" for n, s in top)
        print(f"# self-time shares of {kind}_s (traced): {shares}")
    print(f"# {'function':<44} {'calls':>9} {'self_s':>10}")
    for name in sorted(trace["self_s"], key=lambda n: -trace["self_s"][n]):
        print(f"# {name:<44} {trace['calls'][name]:>9} {trace['self_s'][name]:>10.4f}")
    return per_layer_metrics(trace, len(traced), overhead)


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    if not (SRC / "strategia" / "__init__.py").is_file():
        print(f"perfbench: no strategia sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    workers = min(workload.workers, nproc)
    blas_threads = max(1, nproc // workers)
    # Pin BLAS threads so that pool workers x BLAS threads <= nproc, in this
    # process too (it imports numpy for the checks).
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("STRATEGIA_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    import strategia

    if Path(strategia.__file__).resolve().parent != SRC / "strategia":
        print(f"perfbench: imported strategia from {strategia.__file__}", file=sys.stderr)
        return 2
    from checks import Checker

    print(_env_line(args, nproc, workers, blas_threads))
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # Set-up: one untimed probe to fill the page and bytecode caches, then
        # SETUP_PROBES timed ones on the first job's configs, each with a
        # timed bare interpreter that imports numpy on either side.
        calls = workload.calls(workloads.job_seed(args.seed, 0))
        configs = {id(call.config): call.config for call in calls}
        paths = []
        for i, cfg in enumerate(configs.values()):
            paths.append(str(workdir / f"setup{i}.json"))
            Path(paths[-1]).write_text(json.dumps(cfg))
        probe = [sys.executable, str(HERE / "probe.py"), *paths]
        interpreter = [sys.executable, *INTERPRETER_ARGS]
        setup_times, setup_kernel = [], []
        for i in range(SETUP_PROBES + 1):
            t0 = time.perf_counter()
            done = _spawn(probe, env, deadline)
            if done.returncode != 0:
                print(f"perfbench: set-up probe failed:\n{done.stderr}", file=sys.stderr)
                return 1
            if i:
                setup_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            if _spawn(interpreter, env, deadline).returncode != 0:
                print("perfbench: the bare interpreter failed", file=sys.stderr)
                return 1
            setup_kernel.append(time.perf_counter() - t0)

        spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "workdir": str(workdir), "workers": workers,
                "spans": str(WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz")}
        spec_path, result_path = workdir / "spec.json", workdir / "result.json"
        spec_path.write_text(json.dumps(spec))
        done = _spawn([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                      env, deadline)
        if done.returncode != 0 or not result_path.is_file():
            print(f"perfbench: worker exited {done.returncode}:\n{done.stderr[-4000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        records = result["records"]
        _judge(records, Checker(strategia), args.workload)
        values = _report(workload.reference, records, result["kernel"], setup_times,
                         setup_kernel, result["peak_rss_mb"])
        units = {name: unit for name, unit, _ in E2E}
        if args.trace:
            values = _trace_report(records, result["trace"])
            print(f"# spans written to {Path(spec['spans']).relative_to(ROOT)}")
            units = {name: unit for name, unit, _ in PER_LAYER}
    except subprocess.TimeoutExpired:
        print(f"perfbench: run killed after {args.seconds + RUN_MARGIN_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    failed = sum(1 for r in records if r["failure"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
