"""fastslow benchmark runner.

    python3 perfbench/run.py --workload decide|explore|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The runner is the single client of a
closed loop: it starts one worker process (``worker.py``), sends it one
job at a time, checks every answer against a known answer that does not
come from fastslow (``check.py``), and sends the next job only after the
previous one is done.  The worker runs each job through
``fastslow.cli.main(argv)``.

The job list of a workload is one cycle (``jobs.py``).  The runner
repeats whole cycles until the jobs' own time reaches about ``--seconds``
and at least 100 jobs have run, so every job runs equally often.  The
first run of each job is checked in full; later runs must reproduce its
exit code, output and written files byte for byte.

Before timing, one job of each command shape runs once as a warm-up.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
job of the cycle untraced and then with spans (``spans.py``), runs the
costliest quarter of the distinct commands once more under
``tracemalloc``, and prints the per-layer metrics.  The last line of
standard output is one JSON object; a summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check  # noqa: E402
from jobs import WORKLOADS, digest, make_jobs  # noqa: E402

SETUP_SAMPLES = 15
MIN_JOBS = 100
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


class Worker:
    """One worker process, spoken to over line-delimited JSON."""

    def __init__(self, root: str, workload: str, seed: int, work: str, deadline: float, probe: bool):
        self.deadline = deadline
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
               "--workload", workload, "--seed", str(seed), "--work", work]
        if probe:
            cmd.append("--probe")
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root)
        try:
            self.ready = self._receive()["ready"]
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - started

    def request(self, **message) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def _receive(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise BenchError(f"worker gave no answer within the {HARD_LIMIT_S:.0f} s limit")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, args, root: str, work: str):
        self.args = args
        self.root = root
        self.work = work
        self.jobs = make_jobs(args.workload, args.seed)
        self.digest = digest(self.jobs)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.signatures: dict[int, tuple] = {}
        self.failures: dict[int, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.times: dict[int, list[float]] = {i: [] for i in range(len(self.jobs))}

    def start_worker(self, probe: bool) -> Worker:
        worker = Worker(self.root, self.args.workload, self.args.seed, self.work, self.deadline, probe)
        if worker.ready != self.digest:
            worker.close()
            raise BenchError("worker generated a different job list")
        return worker

    def warm_up(self, worker: Worker) -> None:
        """Run one job of each command shape (the command line without its
        file arguments), the one with the shortest input files, once,
        untimed and unchecked, so that lazy imports and first-call set-up
        are done before timing."""
        smallest: dict[tuple, tuple[int, int]] = {}
        for i, job in enumerate(self.jobs):
            shape = tuple(a for a in job.argv if not a.startswith("{w}/"))
            size = sum(map(len, job.files.values()))
            smallest[shape] = min(smallest.get(shape, (size, i)), (size, i))
        for _, i in smallest.values():
            worker.request(op="run", job=i, **{"pass": "plain"})

    def run_job(self, worker: Worker, index: int, mode: str) -> float:
        reply = worker.request(op="run", job=index, **{"pass": mode})
        signature = (reply["code"], reply["stdout"], reply["error"], sorted(reply["outputs"].items()))
        if index not in self.signatures:
            self.signatures[index] = signature
            problems = check(self.jobs[index], reply, self.work)
        elif signature != self.signatures[index]:
            problems = ["output differs from the first run of this job"]
        else:
            problems = self.failures.get(index, [])
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.setdefault(index, problems)
        return reply["seconds"]

    def cycles(self, worker: Worker, body) -> int:
        """Repeat ``body`` (one pass over the job list, returning the jobs'
        own time) until about ``--seconds`` of job time has run."""
        spent, done = 0.0, 0
        while True:
            cycle = body(worker)
            spent += cycle
            done += 1
            enough_jobs = self.args.trace or done * len(self.jobs) >= MIN_JOBS
            if enough_jobs and spent + cycle / 2 >= self.args.seconds:
                return done

    def plain_cycle(self, worker: Worker) -> float:
        total = 0.0
        for i in range(len(self.jobs)):
            seconds = self.run_job(worker, i, "plain")
            self.times[i].append(seconds)
            total += seconds
        return total

    def end_to_end(self) -> dict:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe = self.start_worker(probe=True)
            setups.append(probe.setup_s)
            probe.close()
        worker = self.start_worker(probe=False)
        setups.append(worker.setup_s)
        try:
            self.warm_up(worker)
            self.cycles(worker, self.plain_cycle)
            maxrss = worker.request(op="stats")["maxrss_mb"]
        finally:
            worker.close()
        samples = [t for ts in self.times.values() for t in ts]
        return {
            "setup_s": (statistics.median(setups), "s"),
            "verdict_p50_s": (statistics.median(samples), "s"),
            "verdict_p90_s": (percentile(samples, 0.9), "s"),
            "jobs_per_s": (len(samples) / sum(samples), "1/s"),
            "peak_rss_mb": (maxrss, "MB"),
            "ok_ratio": (1 - self.failed / self.attempted, "ratio"),
        }

    def per_layer(self) -> dict:
        worker = self.start_worker(probe=False)
        plain = traced = 0.0
        first = True

        def traced_cycle(w: Worker) -> float:
            nonlocal plain, traced, first
            spent = 0.0
            for i in range(len(self.jobs)):
                p = self.run_job(w, i, "plain")
                t = self.run_job(w, i, "spans")
                self.times[i].append(p)
                spent += p + t
                plain += p
                traced += t
            if first:
                # Peaks come from the largest jobs; tracemalloc is too slow
                # to run the whole cycle under it.  Copies of a job share
                # its peak, so each command runs once.
                distinct = {tuple(self.jobs[i].argv): i for i in range(len(self.jobs))}.values()
                costly = sorted(distinct, key=lambda i: self.times[i][0])[-len(distinct) // 4:]
                spent += sum(self.run_job(w, i, "memory") for i in costly)
            first = False
            return spent

        try:
            self.warm_up(worker)
            passes = self.cycles(worker, traced_cycle)
            trace = worker.request(op="stats")["trace"]
        finally:
            worker.close()
        return layer_metrics(trace, passes, traced / plain)


def layer_metrics(trace: dict, passes: int, overhead: float) -> dict:
    """Per-layer metrics for one pass over the job list."""
    self_s = trace["self"]
    counts = trace["counts"]
    peaks = {name: float(mb) for name, mb in trace["peak_mb"].items()}

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cross = counts.get("equivalence.cross_pairs", 0)
    states = counts.get("semantics.states", 0)
    metrics = {
        "equivalence.largest.self_s": (per_pass(self_s.get("equivalence.largest", 0)), "s"),
        "equivalence.largest.peak_mb": (peaks.get("equivalence.largest", 0.0), "MB"),
        "equivalence.cross_pairs": (per_pass(cross), "count"),
        "equivalence.relation_pairs": (per_pass(counts.get("equivalence.relation_pairs", 0)), "count"),
        "equivalence.kept_ratio": (ratio(counts.get("equivalence.relation_pairs", 0), cross), "ratio"),
        "equivalence.queries_per_pair": (ratio(counts.get("equivalence.largest_queries", 0), cross), "ratio"),
        "equivalence.check.self_s": (per_pass(self_s.get("equivalence.check", 0)), "s"),
        "semantics.weak_views.self_s": (per_pass(self_s.get("semantics.weak_views", 0)), "s"),
        "semantics.weak_views.queries": (per_pass(counts.get("semantics.weak_views.queries", 0)), "count"),
        "semantics.weak_views.closure_states": (
            per_pass(counts.get("semantics.weak_views.closure_states", 0)), "count"),
        "semantics.build_lts.self_s": (per_pass(self_s.get("semantics.build_lts", 0)), "s"),
        "semantics.build_lts.us_per_state": (ratio(self_s.get("semantics.build_lts", 0), states) * 1e6, "us"),
        "semantics.build_lts.peak_mb": (peaks.get("semantics.build_lts", 0.0), "MB"),
        "semantics.states": (per_pass(states), "count"),
        "semantics.transitions": (per_pass(counts.get("semantics.transitions", 0)), "count"),
        "semantics.export.self_s": (per_pass(self_s.get("semantics.export", 0)), "s"),
        "semantics.export.bytes": (per_pass(counts.get("semantics.export.bytes", 0)), "bytes"),
        "classification.classify.self_s": (per_pass(self_s.get("classification.classify", 0)), "s"),
        "classification.transform.self_s": (per_pass(self_s.get("classification.transform", 0)), "s"),
        "classification.shortcut.self_s": (per_pass(self_s.get("classification.shortcut", 0)), "s"),
        "classification.species": (per_pass(counts.get("classification.species", 0)), "count"),
        "rational.self_s": (per_pass(self_s.get("rational", 0)), "s"),
        "rational.calls": (per_pass(trace["calls"].get("rational", 0)), "count"),
        "parser.self_s": (per_pass(self_s.get("parser", 0)), "s"),
        "parser.calls": (per_pass(trace["calls"].get("parser", 0)), "count"),
        "parser.bytes": (per_pass(counts.get("parser.bytes", 0)), "bytes"),
        "model.compose.self_s": (per_pass(self_s.get("model.compose", 0)), "s"),
        "cli.self_s": (per_pass(self_s.get("cli", 0)), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fastslow", "cli.py")):
        print("src/fastslow not found: run from the root of a fastslow checkout", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work", str(os.getpid()))
    runner = Runner(args, root, work)
    try:
        metrics = runner.per_layer() if args.trace else runner.end_to_end()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    known = {i for i, job in enumerate(runner.jobs) if job.known_defect}
    unexpected = sorted(set(runner.failures) - known)
    print(f"workload {args.workload}, seed {args.seed}: {len(runner.jobs)} jobs per cycle, "
          f"job list digest {runner.digest}", file=sys.stderr)
    print(f"{runner.attempted} jobs run, {runner.failed} failed", file=sys.stderr)
    for i, problems in sorted(runner.failures.items()):
        job = runner.jobs[i]
        tag = "known defect" if i in known else "FAILED"
        print(f"  {tag}: {job.name}: {'; '.join(problems)}", file=sys.stderr)
        if job.known_defect:
            print(f"    ({job.known_defect})", file=sys.stderr)
    for i, ts in sorted(runner.times.items(), key=lambda item: runner.jobs[item[0]].name):
        if ts:
            print(f"  {runner.jobs[i].name}: median {statistics.median(ts):.4f} s over {len(ts)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
