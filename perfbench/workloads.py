"""The five benchmark workloads: set-up, closed-loop operations, gates, traces.

Each workload is a class with the same surface:

* ``setup()`` builds inputs, engines and warm state (timed as ``setup_s``;
  the runner repeats it and keeps the last);
* ``op(i)`` performs operation ``i`` of the seed's schedule and returns an
  :class:`Op` whose latency covers only the call into the program;
* ``gate()`` re-checks kept outputs against an independent reference and
  returns the number of mismatching operations;
* ``count_pass(model, start)`` runs a fixed, seed-determined amount of
  work and returns its exact counts plus the next free operation index;
* ``traced_op(i, tracer)`` is ``op(i)`` with spans around the calls into
  each layer, and ``layers(tracer)`` turns those spans into the per-layer
  metrics.

All calls go through the program's public functions with its shipped
defaults (backend, observability and debug checks untouched).
"""

from __future__ import annotations

import math
import pickle
import statistics
import threading
import time

import numpy as np
from scipy.spatial import cKDTree

import gen
from repro import pandora
from repro.core.baselines.bottomup import dendrogram_bottomup
from repro.core.pandora import pandora_plan
from repro.engine import Engine, Phase, ServePolicy, content_key
from repro.hdbscan import condense_tree, extract_labels, hdbscan, select_clusters
from repro.parallel.machine import CATEGORIES, CostModel, tracking
from repro.spatial import KDTree, emst, knn_graph
from spans import Op, Tracer

#: Per-round leaf-pair work is reported for rounds 1..EMST_ROUNDS_REPORTED.
EMST_ROUNDS_REPORTED = 12

#: Per-layer metrics, name -> unit.  Every traced run reports all of them;
#: a layer the workload does not run reads 0.
PER_LAYER = {
    "sort.s": "s",
    "contraction.s": "s",
    "expansion.s": "s",
    "stitch.s": "s",
    "contraction.levels": "count",
    "contraction.alpha_edges": "count",
    "kernels.launches": "count",
    **{f"kernels.work.{c}": "count" for c in CATEGORIES},
    "kdtree.build_s": "s",
    "knn.s": "s",
    "emst.s": "s",
    "emst.rounds": "count",
    "emst.pair_visits": "count",
    "emst.leaf_pair_work": "count",
    "emst.candidates": "count",
    **{
        f"emst.round.{r}.leaf_pair_work": "count"
        for r in range(1, EMST_ROUNDS_REPORTED + 1)
    },
    "emst.candidate_yield": "ratio",
    "extract.s": "s",
    "hdbscan.dendrogram_s": "s",
    "cache.hash_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "serve.hit_ms": "ms",
    "serve.miss_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.retries": "count",
    "serve.failed": "count",
    "ipc.payload_bytes": "bytes",
    "ipc.result_bytes": "bytes",
    "ipc.pickle_ms": "ms",
    "pool.overhead_ms": "ms",
    "pool.respawns": "count",
    "pool.retries": "count",
    "pool.shed": "count",
    "trace.overhead_ms": "ms",
    "trace.unattributed_frac": "ratio",
}

#: Counts that must repeat exactly for the same code and seed.
EXACT = (
    "contraction.levels", "contraction.alpha_edges", "kernels.launches",
    *(f"kernels.work.{c}" for c in CATEGORIES),
    "emst.rounds", "emst.pair_visits", "emst.leaf_pair_work", "emst.candidates",
    *(f"emst.round.{r}.leaf_pair_work" for r in range(1, EMST_ROUNDS_REPORTED + 1)),
    "cache.hit_ratio", "cache.evictions", "ipc.payload_bytes", "ipc.result_bytes",
)

_PHASES = ("sort", "contraction", "expansion", "stitch")


def _sized(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def traced_plan(tracer: Tracer):
    """The default PANDORA plan with a span around each phase."""
    plan = pandora_plan()
    for ph in plan.phases:
        def run(a, _fn=ph.run, _name=ph.name):
            with tracer.span(_name):
                return _fn(a)
        plan = plan.replace(
            ph.name, Phase(ph.name, run, ph.requires, ph.provides, ph.bucket)
        )
    return plan


def kernel_counts(model: CostModel) -> dict[str, float]:
    out = {"kernels.launches": len(model.records)}
    for c in CATEGORIES:
        out[f"kernels.work.{c}"] = model.total_work(c)
    return out


def contraction_counts(stats_list) -> dict[str, float]:
    return {
        "contraction.levels": sum(s.n_levels for s in stats_list),
        "contraction.alpha_edges": sum(sum(s.alpha_counts) for s in stats_list),
    }


def _median(values, scale=1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def phase_metrics(tracer: Tracer) -> dict[str, float]:
    """Median per-request time of each PANDORA phase."""
    return {f"{ph}.s": _median(tracer.per_request(ph).values()) for ph in _PHASES}


# ---------------------------------------------------------------------------
# dendrogram_1m
# ---------------------------------------------------------------------------


class Dendrogram1M:
    """One client; each step runs PANDORA on a random tree and a caterpillar."""

    clients = 1

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.n_edges = _sized(1_000_000, scale, 64)
        self.kept = None

    def setup(self) -> None:
        self.trees = None   # free the previous set-up's trees first
        self.trees = gen.dendrogram_trees(self.seed, self.n_edges)
        # Warm-up: first-call allocations and lazy imports.
        pandora(*gen.random_tree(np.random.default_rng(self.seed), 10_000))

    def teardown(self) -> None:
        pass

    def op(self, i: int) -> Op:
        t0 = time.perf_counter()
        parents = [pandora(u, v, w)[0].parent for u, v, w in self.trees]
        t1 = time.perf_counter()
        if self.kept is None:
            self.kept = parents
        return Op(i, t1 - t0, True, start=t0, end=t1)

    def gate(self) -> int:
        bad = 0
        for (u, v, w), parent in zip(self.trees, self.kept):
            bad += not np.array_equal(dendrogram_bottomup(u, v, w).parent, parent)
        return min(bad, 1)  # both trees belong to the first operation

    def count_pass(self, model: CostModel, start: int):
        with tracking(model):
            stats = [pandora(u, v, w)[1] for u, v, w in self.trees]
        return {**kernel_counts(model), **contraction_counts(stats)}, start

    def traced_op(self, i: int, tracer: Tracer) -> Op:
        plan = traced_plan(tracer)
        with tracer.span("request", request=i) as sp:
            for u, v, w in self.trees:
                with tracer.span("pandora"):
                    pandora(u, v, w, plan=plan)
        return Op(i, sp["end"] - sp["start"], True, start=sp["start"], end=sp["end"])

    def layers(self, tracer: Tracer) -> dict[str, float]:
        return phase_metrics(tracer)


# ---------------------------------------------------------------------------
# hdbscan_gps / hdbscan_uniform
# ---------------------------------------------------------------------------

MPTS = 4
MIN_CLUSTER_SIZE = 50
LEAF_SIZE = 96   # hdbscan()'s kd-tree leaf size
SEED_K = 8       # emst()'s default kNN seeding columns


def prim_total_weight(points: np.ndarray, mpts: int) -> float:
    """MST weight over mutual reachability by dense row-wise Prim, O(n^2).

    Core distances come from scipy's kd-tree, independent of the program's.
    Works on squared distances; the answer is the sum of square roots.
    """
    n = points.shape[0]
    core = cKDTree(points).query(points, k=min(mpts, n))[0]
    core2 = (core[:, -1] if core.ndim == 2 else core) ** 2
    coords = [points[1:, d].copy() for d in range(points.shape[1])]
    rc = core2[1:].copy()
    key = np.full(n - 1, np.inf)
    cur = points[0].copy()
    cur_c = core2[0]
    picked = np.empty(n - 1)
    for step in range(n - 1):
        d2 = (coords[0] - cur[0]) ** 2
        for d in range(1, len(coords)):
            d2 += (coords[d] - cur[d]) ** 2
        np.maximum(d2, rc, out=d2)
        np.maximum(d2, cur_c, out=d2)
        np.minimum(key, d2, out=key)
        k = int(np.argmin(key))
        picked[step] = key[k]
        cur = np.array([c[k] for c in coords])
        cur_c = rc[k]
        last = key.size - 1   # swap-remove the new tree vertex
        for c in coords:
            c[k] = c[last]
        rc[k], key[k] = rc[last], key[last]
        coords = [c[:last] for c in coords]
        rc, key = rc[:last], key[:last]
    return math.fsum(np.sqrt(picked))


class _HDBSCAN:
    """One client; each call clusters a fresh cloud with ``hdbscan()``."""

    clients = 1
    n_full = 0
    cloud = None  # gen.gps_cloud or gen.uniform_cloud

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.n = _sized(self.n_full, scale, 300)
        self.kept = None

    def points(self, i: int) -> np.ndarray:
        return self.cloud(self.seed, i, self.n)

    def setup(self) -> None:
        self.first = self.points(0)
        # Warm-up on a small cloud of the same kind.
        hdbscan(self.cloud(self.seed, gen.WARMUP, 2000), mpts=MPTS,
                min_cluster_size=MIN_CLUSTER_SIZE)

    def teardown(self) -> None:
        pass

    def op(self, i: int) -> Op:
        pts = self.first if i == 0 else self.points(i)
        t0 = time.perf_counter()
        res = hdbscan(pts, mpts=MPTS, min_cluster_size=MIN_CLUSTER_SIZE)
        t1 = time.perf_counter()
        ok = res.labels.shape == (self.n,) and res.mst.n_edges == self.n - 1
        if i == 0:
            self.kept = res
        return Op(i, t1 - t0, ok, start=t0, end=t1)

    def gate(self) -> int:
        got = math.fsum(self.kept.mst.w)
        want = prim_total_weight(self.first, MPTS)
        return int(not math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0))

    def _call(self, pts: np.ndarray, tracer: Tracer, i: int):
        """hdbscan() split at its layer boundaries, one span per layer call."""
        plan = traced_plan(tracer)
        n = pts.shape[0]
        with tracer.span("request", request=i) as sp:
            with tracer.span("kdtree.build"):
                tree = KDTree.build(pts, leaf_size=LEAF_SIZE)
            with tracer.span("knn"):
                knn = knn_graph(pts, k=max(MPTS, min(SEED_K, n)), tree=tree)
            with tracer.span("emst"):
                mst = emst(pts, mpts=MPTS, knn=knn)
            with tracer.span("pandora"):
                dend, _ = pandora(mst.u, mst.v, mst.w, n, plan=plan)
            with tracer.span("extract"):
                condensed = condense_tree(dend, MIN_CLUSTER_SIZE)
                flat = extract_labels(condensed, select_clusters(condensed))
        return sp, mst, flat.labels

    def count_pass(self, model: CostModel, start: int):
        with tracking(model):
            _, mst, _ = self._call(self.first, Tracer(), 0)
        rounds: list[int] = []
        for r in model.records:
            if r.name == "emst.seed":
                rounds.append(0)
            elif r.name == "emst.leaf_pairs":
                rounds[-1] += r.work
        candidates = sum(r.work for r in model.records if r.name == "emst.resolve_sort")
        out = {
            **kernel_counts(model),
            "emst.rounds": mst.n_rounds,
            "emst.pair_visits": mst.n_pair_visits,
            "emst.leaf_pair_work": sum(rounds),
            "emst.candidates": candidates,
            "emst.candidate_yield": (self.n - 1) / candidates if candidates else 0.0,
        }
        for r in range(1, EMST_ROUNDS_REPORTED + 1):
            out[f"emst.round.{r}.leaf_pair_work"] = rounds[r - 1] if r <= len(rounds) else 0
        return out, start

    def traced_op(self, i: int, tracer: Tracer) -> Op:
        pts = self.first if i == 0 else self.points(i)
        sp, _, labels = self._call(pts, tracer, i)
        return Op(i, sp["end"] - sp["start"], labels.shape == (self.n,),
                  start=sp["start"], end=sp["end"])

    def layers(self, tracer: Tracer) -> dict[str, float]:
        return {
            **phase_metrics(tracer),
            "kdtree.build_s": tracer.median("kdtree.build"),
            "knn.s": tracer.median("knn"),
            "emst.s": tracer.median("emst"),
            "extract.s": tracer.median("extract"),
            "hdbscan.dendrogram_s": tracer.median("pandora"),
        }


# Cloud sizes give 10 or more calls per run: host noise moves in phases of
# a few seconds, and a median over three or four multi-second calls
# followed it.
class HDBSCANGPS(_HDBSCAN):
    n_full = 5_000
    cloud = staticmethod(gen.gps_cloud)


class HDBSCANUniform(_HDBSCAN):
    n_full = 20_000
    cloud = staticmethod(gen.uniform_cloud)


# ---------------------------------------------------------------------------
# serve_thread / serve_process
# ---------------------------------------------------------------------------


class _Serve:
    """Two closed-loop clients share one engine; one request per call."""

    clients = 2

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.n_fresh = _sized(250_000, scale, 64)
        self.policy = ServePolicy()
        self.engine = None
        self.kept: dict[tuple, tuple] = {}  # (kind, k) -> (problem, parent)
        self._lock = threading.Lock()
        self.extra: list[dict] = []        # traced re-measurements per request

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
            self.engine = None

    def request(self, i: int):
        """``(kind, k, problem)`` of operation ``i``: hot entry or fresh
        request ``k``."""
        raise NotImplementedError

    def wanted(self, kind: str, k: int) -> bool:
        """Whether the gate re-checks the output for this request key."""
        raise NotImplementedError

    def serve(self, problem):
        return self.engine.fit_many([problem], policy=self.policy)[0]

    def op(self, i: int) -> Op:
        kind, k, problem = self.request(i)
        t0 = time.perf_counter()
        res = self.serve(problem)
        t1 = time.perf_counter()
        if res.ok and self.wanted(kind, k):
            with self._lock:
                self.kept.setdefault((kind, k), (problem, res.value.parent))
        return Op(i, t1 - t0, res.ok, kind, start=t0, end=t1)

    def gate(self) -> int:
        return sum(
            not np.array_equal(pandora(*problem)[0].parent, parent)
            for problem, parent in self.kept.values()
        )

    def _compute(self, problem, tracer: Tracer, i: int) -> float:
        """In-process pandora() on the same input, with phase spans."""
        with tracer.span("serve.compute", request=i) as sp:
            pandora(*problem, plan=traced_plan(tracer))
        return sp["end"] - sp["start"]

    def template_counts(self, model: CostModel) -> dict[str, float]:
        """Kernel and contraction counts of one fresh-request template."""
        with tracking(model):
            _, stats = pandora(*self.fresh.template(0))
        return {**kernel_counts(model), **contraction_counts([stats])}

    def health_counts(self) -> dict[str, float]:
        total = self.engine.health()["total"]
        return {"serve.retries": total["retries"], "serve.failed": total["failed"]}


class ServeThread(_Serve):
    """``Engine(cache_entries=16)``: 3 in 4 requests read a hot set of four
    large MSTs, the fourth is a fresh smaller MST (compute, put, evict)."""

    HOT = 4
    CACHE = 16

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.n_hot = _sized(1_000_000, scale, 256)

    def setup(self) -> None:
        self.teardown()
        self.hot = None   # free the previous set-up's hot set first
        self.hot = gen.hot_trees(self.seed, self.n_hot, self.HOT)
        self.fresh = gen.FreshTrees(self.seed, self.n_fresh)
        self.engine = Engine(cache_entries=self.CACHE)
        # Fill the cache: small trees first, then the hot set, so the
        # least recently used entries are the fillers and every miss of
        # the run evicts one entry.
        for batch in (gen.fill_trees(self.seed, 1000, self.CACHE - self.HOT), self.hot):
            for res in self.engine.fit_many(batch, policy=self.policy):
                res.unwrap()

    @staticmethod
    def schedule(i: int) -> tuple[str, int]:
        """Operation ``i`` is a miss when ``i % 4 == 3``; hits cycle the
        hot set in order, so no hot entry is ever least recently used."""
        if i % 4 == 3:
            return "miss", i // 4
        return "hit", (3 * (i // 4) + i % 4) % ServeThread.HOT

    def request(self, i: int):
        kind, k = self.schedule(i)
        return kind, k, (self.hot[k] if kind == "hit" else self.fresh(k))

    def wanted(self, kind: str, k: int) -> bool:
        return kind == "hit" or k < 2   # every hot entry, two fresh requests

    def count_pass(self, model: CostModel, start: int):
        """16 requests from a schedule index aligned to 4 (12 hits, 4
        misses), served serially; cache deltas are exact."""
        start += -start % 4
        before = self.engine.cache_stats()
        for i in range(start, start + 16):
            self.serve(self.request(i)[2]).unwrap()
        after = self.engine.cache_stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        return {
            **self.template_counts(model),
            "cache.hit_ratio": hits / (hits + misses),
            "cache.evictions": after["evictions"] - before["evictions"],
        }, start + 16

    def traced_op(self, i: int, tracer: Tracer) -> Op:
        kind, _, problem = self.request(i)
        with tracer.span("request", request=i, kind=kind) as sp:
            res = self.serve(problem)
        lat = sp["end"] - sp["start"]
        with tracer.span("cache.hash", request=i) as hs:
            content_key(*problem)
        compute = self._compute(problem, tracer, i) if kind == "miss" else 0.0
        with self._lock:
            self.extra.append({
                "kind": kind, "latency": lat, "compute": compute,
                "hash": hs["end"] - hs["start"],
            })
        return Op(i, lat, res.ok, kind, start=sp["start"], end=sp["end"])

    def layers(self, tracer: Tracer) -> dict[str, float]:
        ex = self.extra
        return {
            **phase_metrics(tracer),
            **self.health_counts(),
            "cache.hash_ms": _median((e["hash"] for e in ex), 1e3),
            "serve.hit_ms": _median((e["latency"] for e in ex if e["kind"] == "hit"), 1e3),
            "serve.miss_ms": _median((e["latency"] for e in ex if e["kind"] == "miss"), 1e3),
            "serve.compute_ms": tracer.median("serve.compute", 1e3),
            "serve.overhead_ms": _median(
                (e["latency"] - e["hash"] - e["compute"] for e in ex), 1e3
            ),
        }

    def unattributed(self) -> tuple[float, float]:
        total = sum(e["latency"] for e in self.extra)
        covered = sum(e["hash"] + e["compute"] for e in self.extra)
        return total - covered, total


class ServeProcess(_Serve):
    """``Engine(executor="process", shards=2)``; every request is fresh."""

    SHARDS = 2

    def setup(self) -> None:
        self.teardown()
        self.fresh = gen.FreshTrees(self.seed, self.n_fresh)
        self.engine = Engine(executor="process", shards=self.SHARDS)
        # Boot the pool and warm both shards on the unshifted templates,
        # which no timed request repeats.
        for res in self.engine.fit_many(
            self.fresh.templates[: 2 * self.SHARDS], policy=self.policy
        ):
            res.unwrap()

    def request(self, i: int):
        return "miss", i, self.fresh(i)

    def wanted(self, kind: str, k: int) -> bool:
        return k < 4

    def count_pass(self, model: CostModel, start: int):
        """Kernel counts of template 0 and the IPC sizes of one request for
        it (from a schedule index aligned to the template count)."""
        start += -start % len(self.fresh.templates)
        problem = self.fresh(start)
        handle = self.serve(problem).unwrap()
        return {
            **self.template_counts(model),
            "ipc.payload_bytes": len(_dumps(("fit", (*problem, None)))),
            "ipc.result_bytes": len(_dumps(handle)),
        }, start + 1

    def traced_op(self, i: int, tracer: Tracer) -> Op:
        _, _, problem = self.request(i)
        with tracer.span("request", request=i) as sp:
            res = self.serve(problem)
        lat = sp["end"] - sp["start"]
        with tracer.span("ipc.pickle", request=i):
            pickle.loads(_dumps(("fit", (*problem, None))))
            if res.ok:
                pickle.loads(_dumps(res.value))
        compute = self._compute(problem, tracer, i)
        with self._lock:
            self.extra.append({"latency": lat, "compute": compute})
        return Op(i, lat, res.ok, "miss", start=sp["start"], end=sp["end"])

    def layers(self, tracer: Tracer) -> dict[str, float]:
        pool = self.engine.health()["pool"] or {}
        return {
            **phase_metrics(tracer),
            **self.health_counts(),
            "serve.compute_ms": tracer.median("serve.compute", 1e3),
            "ipc.pickle_ms": tracer.median("ipc.pickle", 1e3),
            "pool.overhead_ms": _median(
                (e["latency"] - e["compute"] for e in self.extra), 1e3
            ),
            "pool.respawns": pool.get("respawns", 0),
            "pool.retries": pool.get("retries", 0),
            "pool.shed": pool.get("shed", 0),
        }

    def unattributed(self) -> tuple[float, float]:
        total = sum(e["latency"] for e in self.extra)
        return total - sum(e["compute"] for e in self.extra), total


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


WORKLOADS = {
    "dendrogram_1m": Dendrogram1M,
    "hdbscan_gps": HDBSCANGPS,
    "hdbscan_uniform": HDBSCANUniform,
    "serve_thread": ServeThread,
    "serve_process": ServeProcess,
}
