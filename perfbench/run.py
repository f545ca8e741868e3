"""cfinite benchmark: four seeded closed-loop workloads, checked answers.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 15 --trace 0

Workloads: closure, products, dimers, interactive, or `all` for each in
turn.  With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Every result is also
written under perfbench/out/.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import calib
from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NAMES = ("closure", "products", "dimers", "interactive")
SETUP_STARTS = 12
WORKER_TIMEOUT_S = 160
# the end-to-end metrics of BENCHMARK.json; latency_tail_ms is printed but
# not among them, its spread across seeds comes too close to the largest bound
UNITS = {"jobs_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # imports read cached bytecode, as an installed package's would, whatever
    # the caller's setting; the unmeasured first start writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _python(args, timeout):
    """Run a fresh interpreter in the benchmark directory; its stdout."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=BENCH, env=_env(), capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args[0]} exited {proc.returncode}")
    return proc.stdout


def setup_start(workload):
    """One fresh interpreter's import plus one warm-up per layer: the
    measured seconds, and the seconds scaled to the reference host's speed
    as measured in that interpreter."""
    out = json.loads(_python(["warmup.py", workload], 60))
    return out["setup_s"], out["setup_s"] * calib.speed(out["calibration_s"])


def _git_commit():
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def environment(args, rounds):
    runs = len(list(OUT.glob("result-*.json")))
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "run_count": runs + 1,
        "rounds": rounds,
    }


def run_workload(name, args):
    OUT.mkdir(exist_ok=True)
    stamp = f"{name}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    setup = []
    if not args.trace:
        setup_start(name)  # unmeasured: compiles bytecode once
        # half the starts before the worker and half after, so the median
        # spans the run rather than one moment of the host's speed
        setup = [setup_start(name) for _ in range(SETUP_STARTS // 2)]
    spans = OUT / f"spans-{stamp}.jsonl.gz"
    raw = _python(
        ["worker.py", name, str(args.seed), str(args.seconds), str(args.trace), str(spans)],
        WORKER_TIMEOUT_S,
    )
    if not args.trace:
        setup += [setup_start(name) for _ in range(SETUP_STARTS - len(setup))]
    res = json.loads(raw.strip().splitlines()[-1])
    res["environment"] = environment(args, res["rounds"])
    res["workload"] = name
    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        res["setup_s"] = statistics.median(s for _, s in setup)
        res["raw"]["setup_s"] = statistics.median(s for s, _ in setup)
        metrics = {k: {"value": res[k], "unit": u} for k, u in UNITS.items()}
    res["metrics"] = metrics
    (OUT / f"result-{stamp}.json").write_text(json.dumps(res, indent=1))
    report(res)
    return res


def report(res):
    env = res["environment"]
    print(f"== {res['workload']}: seed {env['seed']}, {res['jobs']} jobs in {res['rounds']} rounds, "
          f"one client, closed loop, trace {env['trace']}")
    print("   " + ", ".join(f"{k} {v}" for k, v in env.items() if k not in ("seed", "trace", "rounds")))
    for k, m in res["metrics"].items():
        note = ""
        if k in ("jobs_per_s", "latency_p50_ms"):
            note = f"  ({res['jobs']} samples)"
        elif k == "setup_s":
            note = f"  (median of {SETUP_STARTS} fresh interpreters)"
        print(f"   {k:44s} {m['value']:.6g} {m['unit']}{note}")
    if "latency_tail_ms" in res:
        print(f"   {'latency_tail_ms':44s} {res['latency_tail_ms']:.6g} ms  "
              f"(p{res['tail_percentile']:.2f}, 10 of {res['jobs']} samples beyond)")
    if "raw" in res:
        print(f"   times above are at the reference host's speed; this worker ran at "
              f"{res['speed']:.4g} x it, and measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    fails = res["failures"]
    print(f"   fail_ratio {res['failed'] / res['jobs']:.6g}  ({res['failed']} of {res['jobs']}: "
          + ", ".join(f"{k} {v}" for k, v in fails.items()) + ")")
    for cls, msgs in res["failed_classes"].items():
        print(f"   FAILED {cls}: {len(msgs)} x, first: {msgs[0]}")
    for cls, outcome in res.get("probes", {}).items():
        print(f"   known-defect probe {cls}: {'FAILED ' if outcome != 'ok' else ''}{outcome}")


def result_line(results):
    # nothing in the timed mix fails at the parent commit, so any failure
    # (wrong answer or exit code, escaped exception, deadline) is an error
    correct = all(r["failed"] == 0 for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    return {
        "correct": correct,
        "attempted": sum(r["jobs"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cfinite" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {ROOT / 'src' / 'cfinite'} is missing")
    names = NAMES if args.workload == "all" else (args.workload,)
    line = result_line([run_workload(n, args) for n in names])
    print(json.dumps(line))
    if not line["correct"]:
        sys.exit("error: failed jobs (see the FAILED lines above)")


if __name__ == "__main__":
    main()
