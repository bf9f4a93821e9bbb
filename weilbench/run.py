#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `weil` verbs.

    python3 weilbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs one workload (verify, realise or modular; see README.md) in this
process and a single thread, on the package under src/ of the checkout that
holds this file.  Every job is weildescent.cli.run on a fixed argv.

--trace 0 measures set-up in fresh interpreters, and runs whole rounds of
the workload's jobs: three, and more while the next round, as long as the
last, still ends within --seconds of job time.  wall_s and cpu_s are the
sums over jobs of each job's median across rounds.  --trace 1 runs one
untraced round and one round under the layer tracer, and reports the
per-layer metrics and the tracing overhead.

Every report of the first round goes through the independent checks in
checks.py; every later report must be byte-identical to it.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Run artefacts (results, traces, the theta pair file) go to weilbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 31
MIN_ROUNDS = 3  # so that every job's median has three samples

# Runs in a fresh interpreter: import plus first use of the lru_cached
# constructors the workload needs.
SETUP_CODE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
t0 = time.perf_counter()
import weildescent.cli
import workloads
workloads.construct({fields!r})
print(repr(time.perf_counter() - t0))
"""


def load_program():
    "Import weildescent from this checkout's src/ and nowhere else."
    init = SRC / "weildescent" / "__init__.py"
    if not init.is_file():
        sys.exit(f"weilbench: no program source at {init}")
    sys.path.insert(0, str(SRC))
    import weildescent
    import weildescent.cli

    if Path(weildescent.__file__).resolve() != init.resolve():
        sys.exit(f"weilbench: imported {weildescent.__file__}, not {init}")
    return weildescent


class Setup:
    """Set-up time in fresh interpreters: import plus first-use construction.
    The interpreters share a bytecode cache under out/, written by a first,
    discarded run, so every sample imports from cached bytecode whatever the
    environment says about writing it.  One sample is taken before the first
    job and the rest between jobs, as many after each job as spreads them
    over the first MIN_ROUNDS rounds, so that they cover the run instead of
    one moment of the machine's speed."""

    def __init__(self, job_list):
        fields = workloads.fields_used(job_list)
        self.code = SETUP_CODE.format(src=str(SRC), here=str(HERE), fields=fields)
        self.env = {**os.environ, "PYTHONPYCACHEPREFIX": str(OUT / "pycache")}
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.per_job = math.ceil((SETUP_REPEATS - 1) / (len(job_list) * MIN_ROUNDS))
        self.samples = []
        self._time()  # writes the bytecode cache

    def _time(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.code], env=self.env,
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        return float(proc.stdout.strip().splitlines()[-1])

    def sample(self, count=1):
        for _ in range(min(count, SETUP_REPEATS - len(self.samples))):
            self.samples.append(self._time())

    def after_job(self):
        self.sample(self.per_job)


class Runner:
    """Runs jobs, checks the first report of each and compares the rest."""

    def __init__(self, cli, job_list):
        self.cli = cli
        self.jobs = job_list
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed runs, failed checks, changed reports
        self.correct = True

    def run(self, i, tracer=None):
        "One execution of job i: (wall s, cpu s), or None if it failed."
        job = self.jobs[i]
        buf = io.StringIO()
        gc.collect()
        self.attempted += 1
        scope = tracer.span("job " + " ".join(job["argv"])) if tracer else contextlib.nullcontext()
        with scope, contextlib.redirect_stdout(buf):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                code = self.cli.run(job["argv"])
            except Exception as exc:  # a crash is a failed job, not a lost run
                code = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        text = buf.getvalue()
        if code != 0:
            self.failed += 1
            self.problems.append(f"{job['argv']}: failed ({code})")
            return None
        if i not in self.reference:
            try:
                checks.check_report(job, code, json.loads(text))
            except Exception as exc:  # a malformed report fails its check
                self.correct = False
                self.problems.append(f"{job['argv']}: {type(exc).__name__}: {exc}")
            self.reference[i] = text
        elif text != self.reference[i]:
            self.correct = False
            self.problems.append(f"{job['argv']}: report differs from the first round")
        return wall, cpu

    def round(self, tracer=None):
        return [self.run(i, tracer) for i in range(len(self.jobs))]


def measure(runner, seconds, setup):
    """At least MIN_ROUNDS whole rounds of the jobs, and more while the next
    round, as long as the last, still ends within `seconds` of job wall
    time; per-job samples."""
    samples = [[] for _ in runner.jobs]
    spent = last = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or spent + last <= seconds:
        last = 0.0
        for i in range(len(runner.jobs)):
            res = runner.run(i)
            setup.after_job()
            if res is not None:
                samples[i].append(res)
                last += res[0]
        spent += last
        rounds += 1
    return samples, rounds


def summed_median(samples, k):
    return sum(statistics.median(s[k] for s in job) for job in samples if job)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = load_program()
    OUT.mkdir(exist_ok=True)
    job_list = workloads.jobs(args.workload, args.seed, OUT)
    runner = Runner(pkg.cli, job_list)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "compiled_kernel": pkg.COMPILED,
        "jobs": [" ".join(j["argv"]) for j in job_list],
    }

    if args.trace:
        workloads.construct(workloads.fields_used(job_list))
        untraced = runner.round()
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.round(tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        wall = lambda rs: sum(r[0] for r in rs if r)  # noqa: E731
        metrics["trace.overhead_s"] = (wall(traced) - wall(untraced), "s")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({**record, **tracer.dump()}))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        setup = Setup(job_list)
        setup.sample()
        workloads.construct(workloads.fields_used(job_list))
        samples, rounds = measure(runner, args.seconds, setup)
        metrics = {
            "wall_s": (summed_median(samples, 0), "s"),
            "cpu_s": (summed_median(samples, 1), "s"),
            "setup_s": (statistics.median(setup.samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update(
            rounds=rounds,
            setup_samples_s=setup.samples,
            job_samples=[
                {"job": " ".join(j["argv"]), "wall_s": [s[0] for s in js], "cpu_s": [s[1] for s in js]}
                for j, js in zip(job_list, samples)
            ],
        )

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(problems=runner.problems, result=result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(f"weilbench {args.workload} seed {args.seed}: python {record['python']}, "
          f"compiled kernel {pkg.COMPILED}, {runner.attempted} jobs run")
    for problem in runner.problems:
        print("PROBLEM", problem)
    for k, (v, u) in metrics.items():
        print(f"  {k:36s} {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
