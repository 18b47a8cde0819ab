"""One benchmark process: set up a workload in a fresh interpreter, then run
its ops in a closed loop (one client; each op starts when the previous one
returns).

Run by run.py, never directly.  Set-up is timed from before ``import
sphereq`` to the end of the warm-up op, so cost a lazy import defers stays
counted.  With ``--setup-only`` the process stops there; run.py starts a few
of those to take the median set-up time.  The last line of standard output
is one JSON object for run.py.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import zlib
from types import SimpleNamespace

T0 = time.perf_counter()

#: Laplacian warm-up per operator: apply until this many consecutive calls
#: each take at most SETTLE_RATIO times the fastest call, or SETTLE_MAX_S.
SETTLE_CALLS = 20
SETTLE_RATIO = 3.0
SETTLE_MAX_S = 3.0
#: Messages of failed ops printed per run.
MAX_MESSAGES = 8


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--budget", type=float, default=120.0,
                   help="hard cap on measuring time; stops mid-round")
    p.add_argument("--spans", default=None, help="where the traced run writes spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sphereq
    import sphereq.fieldio
    import sphereq.grid
    import sphereq.harmonics
    import sphereq.problems
    import sphereq.solver
    import sphereq.symmetry

    where = os.path.realpath(sphereq.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("sphereq imported from %s, not from %s" % (where, src))
    return SimpleNamespace(
        errors=sphereq.errors,
        grid=sphereq.grid,
        harmonics=sphereq.harmonics,
        problems=sphereq.problems,
        solver=sphereq.solver,
        symmetry=sphereq.symmetry,
        fieldio=sphereq.fieldio,
    )


def settle(sq, op):
    """Apply the Laplacian until its per-call time is steady.

    A Laplacian can run many times slower for roughly the first second of a
    fresh process (the finite-difference one at 48x96 does); this keeps such
    a transient inside set-up and reports it."""
    field = sq.harmonics.harmonic_mode(op.grid, 2, 2)
    times = []
    start = time.perf_counter()
    steady = 0
    while steady < SETTLE_CALLS and time.perf_counter() - start < SETTLE_MAX_S:
        t = time.perf_counter()
        sq.harmonics.apply_laplacian(op, field)
        times.append(time.perf_counter() - t)
        steady = steady + 1 if times[-1] <= SETTLE_RATIO * min(times) else 0
    ordered = sorted(times)
    return {
        "calls": len(times),
        "first_ms": 1e3 * times[0],
        "median_ms": 1e3 * ordered[len(ordered) // 2],
        "slow_calls": sum(t > SETTLE_RATIO * ordered[0] for t in times),
    }


def blas_info():
    """BLAS vendor and thread count as numpy's bundled OpenBLAS reports them."""
    import ctypes
    import glob

    import numpy as np

    info = {"vendor": "unknown", "threads": None, "config": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = "%s %s" % (deps.get("name"), deps.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, "%s_get_num_threads%s" % (prefix, suffix), None)
                cfg = getattr(lib, "%s_get_config%s" % (prefix, suffix), None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                if cfg is not None:
                    cfg.restype = ctypes.c_char_p
                    info["config"] = cfg().decode()
                if fn is not None:
                    return info
    return info


def run_phase(wl, cases, seconds, min_rounds, cap, tracer, sq, workloads):
    """Whole rounds of ``cases``, at least ``min_rounds``, stopping at the
    round boundary nearest to ``seconds``; stops mid-round only at the hard
    ``cap``.  Stopping at the nearest boundary rather than the first one
    past ``seconds`` keeps a run's length near ``seconds`` however long a
    round takes."""
    records, counters, messages = [], [], []
    start = time.perf_counter()
    rounds = 0
    partial = False
    while not partial:
        for case in cases:
            if time.perf_counter() - start > cap:
                partial = True
                break
            status, message, result, found = None, None, None, {}
            if tracer is not None:
                tracer.op = len(records)
                tracer.enabled = True
            t = time.perf_counter()
            try:
                result = wl.run(case)
            except sq.errors.SphereqError as exc:
                status, message = "failed", "%s: %s" % (type(exc).__name__, exc)
            except Exception:
                status, message = "wrong", traceback.format_exc(limit=4)
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.enabled = False
            if status is None:
                try:
                    found = wl.check(case, result) or {}
                    status = "ok"
                except workloads.CheckFailed as exc:
                    status, message = "failed", str(exc)
                except workloads.WrongResult as exc:
                    status, message = "wrong", str(exc)
                except Exception:
                    status, message = "wrong", traceback.format_exc(limit=4)
            records.append((case.label, dt, status))
            counters.append(found)
            if message and len(messages) < MAX_MESSAGES:
                messages.append("%s: %s" % (case.label, message))
        else:
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
                break
    return {"records": records, "counters": counters, "messages": messages,
            "rounds": rounds, "partial": partial}


def main(argv=None):
    args = parse_args(argv)
    sq = import_package(args.root)
    import_s = time.perf_counter() - T0
    scipy_loaded = "scipy.sparse.linalg" in sys.modules

    import numpy as np
    import scipy

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer(sq) if args.trace else None
    if tracer is not None:
        tracer.enabled = True
    wl = workloads.WORKLOADS[args.workload](sq)
    wl.build()
    settled = {"%s.%dx%d" % (op.realization, op.grid.n_theta, op.grid.n_phi): settle(sq, op)
               for op in wl.ops.values()}
    warm = wl.warmup_case()
    wl.check(warm, wl.run(warm))
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "import_s": import_s, "settle": settled}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])
    if tracer is not None:
        tracer.enabled = False
    cases = wl.cases(rng)
    # A traced run measures one untraced round first, for the overhead.
    if tracer is None:
        phases = [("untraced", None, args.seconds, wl.min_rounds)]
    else:
        tracer.reset_counts()
        phases = [("untraced", None, 0.0, 1),
                  ("traced", tracer, args.seconds, wl.min_rounds)]
    results = {}
    deadline = time.perf_counter() + args.budget
    for name, phase_tracer, seconds, min_rounds in phases:
        cap = deadline - time.perf_counter()
        results[name] = run_phase(wl, cases, seconds, min_rounds, cap, phase_tracer,
                                  sq, workloads)

    out.update(
        phases=results,
        cases=len(cases),
        min_rounds=wl.min_rounds,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__},
        blas=blas_info(),
    )
    if tracer is not None:
        traced = results["traced"]
        walls = [r[1] for r in traced["records"]]
        out["layer"] = tracing.layer_metrics(
            tracer, walls, traced["counters"], import_s, scipy_loaded,
            statistics.median(r[1] for r in results["untraced"]["records"]),
            statistics.median(walls),
        )
        out["absent"] = tracer.absent
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
