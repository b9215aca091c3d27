"""Benchmark worker: the one process that runs fastslow jobs.

Start-up is the measured set-up: import ``fastslow`` and ``fastslow.cli``
from the checkout's ``src``, generate the seeded job list and write its
input files, then print one ``ready`` line.  With ``--probe`` the worker
exits there.  Otherwise it serves requests, one JSON object per line on
stdin, and answers each on stdout:

  {"op": "run", "job": i, "pass": "plain" | "spans" | "memory"}
      run job i through ``fastslow.cli.main`` and report its exit code,
      captured output, wall time and the digests of the files it wrote;
  {"op": "stats"}
      report ``ru_maxrss`` and, after traced passes, the span aggregates.

Run it only through ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import fastslow
    import fastslow.cli as cli

    if not os.path.abspath(fastslow.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"fastslow was imported from {fastslow.__file__}, not from {src}")

    from jobs import digest, make_jobs

    jobs = make_jobs(args.workload, args.seed)
    os.makedirs(args.work, exist_ok=True)
    for job in jobs:
        for name, text in job.files.items():
            with open(os.path.join(args.work, name), "w") as fh:
                fh.write(text)
    ipc = sys.stdout
    ipc.write(json.dumps({"ready": digest(jobs)}) + "\n")
    ipc.flush()
    if args.probe:
        return 0

    from spans import Tracer

    tracer = Tracer()
    export_bytes = 0.0
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "stats":
            reply = {"maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            reply["trace"] = {
                "calls": tracer.calls,
                "self": tracer.self_time,
                "counts": {**tracer.counts, "semantics.export.bytes": export_bytes},
                "peak_mb": tracer.peak_mb,
            }
        else:
            job = jobs[request["job"]]
            argv = [a.replace("{w}", args.work) for a in job.argv]
            outputs = [o.replace("{w}", args.work) for o in job.outputs]
            reply = run_job(cli, argv, outputs, tracer, request["pass"])
            if request["pass"] == "spans" and argv[0] == "lts":
                export_bytes += sum(os.path.getsize(o) for o in outputs if os.path.exists(o))
        ipc.write(json.dumps(reply) + "\n")
        ipc.flush()
    return 0


def run_job(cli, argv: list[str], outputs: list[str], tracer, mode: str) -> dict:
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    if mode == "memory":
        tracemalloc.start()
    if mode != "plain":
        tracer.install(memory=mode == "memory")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if mode == "plain":
                    code = cli.main(argv)
                else:
                    code = tracer.root("cli", cli.main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
    finally:
        if mode != "plain":
            tracer.uninstall()
        if mode == "memory":
            tracemalloc.stop()
    digests = {}
    for path in outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[path] = hashlib.sha256(fh.read()).hexdigest()
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "seconds": seconds,
        "outputs": digests,
    }


if __name__ == "__main__":
    sys.exit(main())
