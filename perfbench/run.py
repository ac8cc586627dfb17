"""Repo benchmark: dendrograms, HDBSCAN* and serving, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dendrogram_1m --seed 1 --seconds 12 --trace 0

Workloads are listed in ``BENCHMARK.json`` (why each exists, which layers
it loads and which it bypasses) and implemented in ``workloads.py``.  All
are closed loops: each client waits for a reply before its next request.

``--trace 0`` measures the end-to-end metrics: the median ``setup_s`` of
three set-ups (each with a cold import), median request latency, ok
requests per second, and peak resident memory (the shard workers
included).  The p90 latency, with its sample count, goes to the record
only: the dendrogram and HDBSCAN* workloads complete 3 to 15 requests a
run, too few for a tail percentile.  ``--trace 1`` measures the
first half of ``--seconds`` untraced and the second half with spans from
this benchmark's own code around each layer call, and reports the
per-layer metrics, the tracing overhead (traced minus untraced median
latency) and the share of request time no layer span covers.  It also
records a fixed seed-determined count pass; those counts must equal the
ones of any earlier traced run of the same code and seed in this checkout,
or the run fails.

Every run re-checks outputs outside the timed region: PANDORA parents
against the sequential bottom-up baseline, the HDBSCAN* EMST weight against
a dense Prim, and served parents against a direct ``pandora()``.  A
mismatch counts as a failed request.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the environment stamp; ``perfbench/out/`` keeps a full record of each
run (stamp, metrics, spans).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from spans import Op, Tracer, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def closed_loop(op, clients: int, seconds: float, start: int = 0) -> list:
    """Run ``op(i)`` from ``clients`` threads until ``seconds`` have passed.

    Operation indices are handed out in order from ``start``; each client
    issues its next operation only after the previous one returned, and
    every client completes at least one.
    """
    lock = threading.Lock()
    nxt = [start]
    ops: list = []
    errors: list = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        first = True
        while first or time.perf_counter() < deadline:
            first = False
            with lock:
                i = nxt[0]
                nxt[0] += 1
            try:
                rec = op(i)
            except Exception as exc:  # a failed request, not a crashed run
                errors.append(repr(exc))
                now = time.perf_counter()
                rec = Op(i, 0.0, False, "error", start=now, end=now)
            with lock:
                ops.append(rec)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for e in errors[:3]:
        print(f"perfbench: request failed: {e}", file=sys.stderr)
    return sorted(ops, key=lambda o: o.index)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children (MB).

    The sum of per-process peaks: an upper bound on the joint peak, and
    it counts pages forked workers share with this process twice.
    """
    pids = [os.getpid()] + [p.pid for p in mp.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    if total_kb == 0:
        import resource
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def environment(args) -> dict:
    import numpy
    import scipy

    from repro.obs.metrics import enabled
    from repro.parallel.backend import get_backend
    from repro.parallel.machine import debug_checks

    backend = get_backend()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend.name,
        "releases_gil": bool(backend.releases_gil),
        "obs": enabled(),
        "debug_checks": debug_checks(),
    }


def code_fingerprint() -> str:
    """Digest of the program and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, files in sorted(os.walk(base)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_counts(args, counts: dict) -> list[str]:
    """Compare exact counts with an earlier traced run of the same code and
    seed in this checkout (recording them if there is none); returns the
    differing names."""
    path = os.path.join(
        OUT, "counts",
        f"{args.workload}-seed{args.seed}-scale{args.scale}-{code_fingerprint()}.json",
    )
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        return sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return []


def fresh_import_s() -> float:
    """Import time of the program in a fresh interpreter."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path[:0] = %r; "
        "import repro.engine, repro.hdbscan, workloads; "
        "print(time.perf_counter() - t)" % [SRC, HERE]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout)


def run(args, import_s: float) -> tuple[dict, dict]:
    import workloads
    from repro.parallel.machine import CostModel

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    setups = []
    for rep in range(SETUP_REPEATS):
        # Each set-up pays one cold import: this process's own, then
        # fresh interpreters.
        imp = import_s if rep == 0 else fresh_import_s()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(imp + time.perf_counter() - t0)
    record: dict = {"setup_runs_s": setups}
    try:
        if not args.trace:
            ops = closed_loop(wl.op, wl.clients, args.seconds)
            rss = peak_rss_mb()
        else:
            half = args.seconds / 2.0
            ops = closed_loop(wl.op, wl.clients, half)
            counts, start = wl.count_pass(CostModel(), ops[-1].index + 1)
            tracer = Tracer()
            traced = closed_loop(
                lambda i: wl.traced_op(i, tracer), wl.clients, half, start
            )
            layers = wl.layers(tracer)
        mismatches = wl.gate()
    finally:
        wl.teardown()
    stray = mp.active_children()
    for p in stray:
        p.terminate()
        p.join(10)

    good = [o for o in ops if o.ok]
    failed = len(ops) - len(good) + mismatches
    record["gate_mismatches"] = mismatches
    if not args.trace:
        lat = [o.latency for o in good] or [float("nan")]
        span = max(o.end for o in ops) - min(o.start for o in ops)
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "requests_per_s": len(good) / span if span > 0 else 0.0,
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        p90 = percentile(lat, 90)
        record["latency_p90"] = {
            "ms": p90 * 1e3, "requests": len(lat),
            "beyond": sum(x > p90 for x in lat),
        }
        record["latencies_ms"] = [o.latency * 1e3 for o in ops]
    else:
        metrics = dict.fromkeys(workloads.PER_LAYER, 0.0)
        metrics.update(counts)
        metrics.update(layers)
        traced_lat = [o.latency for o in traced if o.ok]
        base_lat = [o.latency for o in good]
        if traced_lat and base_lat:
            metrics["trace.overhead_ms"] = (
                statistics.median(traced_lat) - statistics.median(base_lat)
            ) * 1e3
        if hasattr(wl, "unattributed"):
            uncovered, total = wl.unattributed()
        else:
            uncovered, total = tracer.unattributed("request")
        metrics["trace.unattributed_frac"] = uncovered / total if total else 0.0
        exact = {k: metrics[k] for k in workloads.EXACT}
        differ = check_counts(args, exact)
        if differ:
            raise SystemExit(
                f"perfbench: exact counts differ from an earlier traced run of "
                f"the same code and seed: {differ}"
            )
        units = workloads.PER_LAYER
        failed += sum(not o.ok for o in traced)
        ops = ops + traced
        record.update(
            traced_attempted=len(traced),
            self_time_s=tracer.self_times(),
            spans=tracer.to_json(),
        )
    result = {
        "correct": mismatches == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return result, record


def main(argv=None) -> int:
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="input-size multiplier; below 1 only for the self-test",
    )
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at src/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro.engine  # noqa: F401  (import time is part of set-up)
    import repro.hdbscan  # noqa: F401
    import workloads
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")

    env = environment(args)
    result, record = run(args, import_s)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w") as f:
        json.dump({"env": env, "result": result, **record}, f, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print("self_time_s " + json.dumps(
            {k: round(v, 4) for k, v in sorted(record["self_time_s"].items())}
        ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
