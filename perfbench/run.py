"""sphereq benchmark: end-to-end and per-layer metrics of two workloads.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  One run:

1. starts ``SETUP_PROBES`` fresh interpreters that only set up the workload
   (import, grids and operators, one warm-up op) and report the time;
2. starts the measuring process, which sets up the same way, generates the
   workload's inputs from ``--seed`` and runs whole rounds of ops in a
   closed loop, stopping at the round boundary nearest ``--seconds`` (and
   not before the workload's minimum number of rounds).  With ``--trace 1``
   it first runs one untraced round, then the rounds again with spans
   recorded, and reports per-layer metrics and the tracing overhead;
3. prints a provenance line, a summary, and as its last line one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See perfbench/README.md for why each workload and metric exists.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "audit")
SETUP_PROBES = 2
#: Every run ends within 180 s: set-up probes, then the measuring process
#: with its hard cap on measuring time.
PROBE_TIMEOUT_S = 40.0
RUN_DEADLINE_S = 175.0
MEASURE_CAP_S = 135.0
#: Thread settings users do not normally set; removed so every run gets the
#: package's and BLAS's defaults, and recorded as found.
THREAD_VARS = ("SPHERE_EQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
#: The tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    for name in THREAD_VARS:
        env.pop(name, None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out after %.0f s" % (" ".join(extra), timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("worker %s exited with %d" % (" ".join(extra), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker %s printed nothing" % " ".join(extra))
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "sphereq", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def tail_percentile(n_min):
    """The highest percentile with TAIL_BEYOND ops beyond it in a run of the
    workload's minimum length.  Fixing it from the minimum, not from the
    ops a run happened to fit, keeps one percentile across runs; longer
    runs only put more ops beyond it.  Below 2 * TAIL_BEYOND ops it would
    fall under the median, so the median stands in."""
    if n_min < 2 * TAIL_BEYOND:
        return 50.0
    return 100.0 * (n_min - TAIL_BEYOND) / n_min


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or
    below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(setups, main):
    records = main["phases"]["untraced"]["records"]
    times = [r[1] for r in records]
    passed = sum(r[2] == "ok" for r in records)
    tail_q = tail_percentile(main["cases"] * main["min_rounds"])
    tail_s = statistics.median(times) if tail_q == 50.0 else percentile(times, tail_q)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (passed / sum(times), "1/s"),
        "pass_frac": (passed / len(records), "ratio"),
        "peak_rss_mb": (main["rss_mb"], "MB"),
    }
    return metrics, "op_s.tail is p%.1f of n=%d ops" % (tail_q, len(times))


def summarize(main, phase):
    data = main["phases"][phase]
    by_label = {}
    for label, t, status in data["records"]:
        by_label.setdefault(label, []).append((t, status))
    lines = ["%s: %d ops in %d round(s) of %d%s" % (
        phase, len(data["records"]), data["rounds"], main["cases"],
        ", cut at the hard cap" if data["partial"] else "")]
    for label in sorted(by_label):
        rows = by_label[label]
        lines.append("  %-28s n=%-3d median %.4f s  failed %d" % (
            label, len(rows), statistics.median([t for t, _ in rows]),
            sum(s != "ok" for _, s in rows)))
    lines += ["  " + m.strip().replace("\n", "\n    ") for m in data["messages"]]
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sphereq", "__init__.py")):
        print("error: no sphereq source at %s" % os.path.join(ROOT, "src", "sphereq"),
              file=sys.stderr)
        return 2
    started = time.monotonic()
    common = ["--workload", args.workload]
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(run_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"])
    spans = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", "spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
        common += ["--spans", spans]
    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    main_run = run_worker(
        common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--budget", str(MEASURE_CAP_S)],
        remaining,
    )
    setups.append(main_run["setup_s"])

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": main_run["versions"],
        "blas": main_run["blas"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "env_found": {name: os.environ.get(name) for name in THREAD_VARS},
        "env_used": {name: None for name in THREAD_VARS},
        "loop": "closed, one client",
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("setup_s samples " + " ".join("%.4f" % s for s in setups))
    for key, info in sorted(main_run["settle"].items()):
        print("laplacian warm-up %s: %d calls, first %.3f ms, median %.3f ms, %d slow" % (
            key, info["calls"], info["first_ms"], info["median_ms"], info["slow_calls"]))

    phases = ["untraced", "traced"] if args.trace else ["untraced"]
    records = []
    for phase in phases:
        print("\n".join(summarize(main_run, phase)))
        records += main_run["phases"][phase]["records"]
    e2e, tail_note = end_to_end(setups, main_run)
    print(tail_note)
    failed = sum(r[2] != "ok" for r in records)
    print("fail_frac %.6f (%d of %d ops)" % (failed / len(records), failed, len(records)))
    if args.trace:
        metrics = main_run["layer"]
        if main_run["absent"]:
            print("absent bindings: " + ", ".join(main_run["absent"]))
        print("spans written to " + os.path.relpath(spans, ROOT))
    else:
        metrics = e2e
    for name, (value, unit) in sorted(e2e.items()):
        print("%-12s %.6g %s" % (name, value, unit))
    result = {
        "correct": all(r[2] != "wrong" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
