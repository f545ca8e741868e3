"""The benchmark's single worker process: one client, one thread, closed loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

Generates the job list from the seed, warms each layer up, then runs the
jobs one after another, each under a deadline.  Answers are checked after
the loop.  With TRACE=0 it measures the end-to-end figures and then runs
the known-defect probes; with TRACE=1 it runs the job list untraced,
traced, and untraced again, and reports the per-layer figures of the
traced pass.  Either way each job's time is scaled to the reference
host's speed with calib.py.  The last line of stdout is a JSON object for
run.py.  Needs cfinite on the path.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time

import calib
import warmup
import workloads
from tracer import Tracer


class Deadline(BaseException):
    """Raised in a job that overran its deadline; no program handler catches it."""


def _alarm(signum, frame):
    raise Deadline


def run_jobs(jobs, deadline_s, tracer=None):
    """Run each job under its deadline, with calibration slices between jobs
    (calib.py); ([(latency, out, failure)], the speed of each job)."""
    signal.signal(signal.SIGALRM, _alarm)
    gc.collect()
    results, marks = [], []
    clock = time.perf_counter
    last = -calib.CALIBRATE_EVERY_S
    for i, job in enumerate(jobs):
        if clock() - last >= calib.CALIBRATE_EVERY_S:
            marks.append((i, calib.seconds(1)[0]))
            last = clock()
        if tracer:
            tracer.job = i
        t0 = clock()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline_s)
                out, failure = job.call(), None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            out, failure = None, ("deadline", f"over {deadline_s} s")
        except Exception as exc:  # an escaped exception is a recorded failure
            out, failure = None, ("exception", f"{type(exc).__name__}: {exc}")
        results.append((clock() - t0, out, failure))
        if tracer and failure:
            tracer.stack.clear()
    marks.append((len(jobs), calib.seconds(1)[0]))
    return results, calib.job_speeds(marks, len(jobs))


def check(jobs, results):
    """Failure of each job, or None: a run failure or the check's verdict."""
    return [failure or job.check(out) for job, (_, out, failure) in zip(jobs, results)]


def summarize(jobs, failures):
    counts = {"answer": 0, "exception": 0, "exit_code": 0, "deadline": 0}
    by_class = {}
    for job, f in zip(jobs, failures):
        if f:
            counts[f[0]] += 1
            by_class.setdefault(job.cls, []).append(f"{f[0]}: {f[1]}"[:300])
    return counts, by_class


def _scaled_total(results, speeds):
    return sum(r[0] * v for r, v in zip(results, speeds))


def traced(jobs, deadline, spans_path):
    """Per-layer figures of a traced pass over the jobs.

    An untraced pass first fills what the inputs fill once (mpmath caches
    constants per precision); the overhead ratio compares the traced pass
    with an untraced pass after it.
    """
    run_jobs(jobs, deadline)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = -1  # spans of the primer carry job id -1
        warmup.prime_every_span()
        results, speeds = run_jobs(jobs, deadline, tracer)
    finally:
        tracer.remove()
    plain, plain_speeds = run_jobs(jobs, deadline)
    layers = tracer.metrics(speeds)
    layers["trace.overhead_ratio"] = _scaled_total(results, speeds) / _scaled_total(plain, plain_speeds)
    tracer.dump(spans_path)
    return results, {"layers": layers, "spans": len(tracer.spans)}


def timed(workload, jobs, deadline):
    """End-to-end figures of an untraced pass, then the known-defect probes.

    Each latency is scaled to the reference host's speed (calib.py); the
    measured figures are reported under "raw".
    """
    results, speeds = run_jobs(jobs, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [r[0] for r in results]
    scaled = [t * v for t, v in zip(raw, speeds)]
    n = len(raw)
    k = max(0, n - 11)  # the 11th largest: 10 samples beyond it

    def figures(lat):
        return {
            "jobs_per_s": n / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1000,
            "latency_tail_ms": sorted(lat)[k] * 1000,
        }

    by_class = {}
    for job, t in zip(jobs, scaled):
        by_class.setdefault(job.cls, []).append(t * 1000)
    probe_jobs = workloads.probes(workload)
    probe_results, _ = run_jobs(probe_jobs, 5.0)
    return results, {
        **figures(scaled),
        "tail_percentile": 100 * (k + 1) / n,
        "peak_rss_mb": peak_rss_mb,
        "speed": statistics.median(speeds),
        "raw": figures(raw),
        "class_median_ms": {c: statistics.median(v) for c, v in sorted(by_class.items())},
        "probes": {
            job.cls: (f"{f[0]}: {f[1]}"[:300] if f else "ok")
            for job, f in zip(probe_jobs, check(probe_jobs, probe_results))
        },
    }


def main(workload, seed, seconds, trace, spans_path):
    rounds = workloads.rounds_for(workload, seconds)
    jobs = workloads.build(workload, seed, rounds)
    warmup.warm(workload)
    deadline = workloads.DEADLINE_S[workload]
    gc.freeze()  # generated inputs are not the program's garbage
    if trace:
        results, out = traced(jobs, deadline, spans_path)
    else:
        results, out = timed(workload, jobs, deadline)
    failures = check(jobs, results)
    out["failures"], out["failed_classes"] = summarize(jobs, failures)
    out.update(rounds=rounds, jobs=len(jobs), failed=sum(1 for f in failures if f))
    print(json.dumps(out))


if __name__ == "__main__":
    w, s, sec, tr, path = sys.argv[1:6]
    main(w, int(s), int(sec), int(tr), path)
