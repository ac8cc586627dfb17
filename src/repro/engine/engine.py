"""The Engine facade: artifact-reusing, concurrency-safe query serving.

cuSLINK (Nolet et al.) packages single-linkage as a reusable end-to-end
system rather than a bare kernel; :class:`Engine` is that layer for this
reproduction.  It owns a content-keyed :class:`~repro.engine.cache.
ArtifactCache` and exposes batched query APIs on top of the phase-plan
pipeline:

* :meth:`Engine.fit` -- build (or fetch) a dendrogram for an MST, returned
  as a reusable :class:`DendrogramHandle` supporting single and batched
  multi-cut flat-clustering queries;
* :meth:`Engine.hdbscan` / :meth:`Engine.hdbscan_batch` -- HDBSCAN* over a
  point cloud; the batch form runs one kd-tree build + one kNN self-query
  for *all* ``mpts`` values (the per-``mpts`` mutual-reachability EMSTs
  slice the shared table to exactly the columns an unshared run would use,
  so results match the naive per-``mpts`` loop) and caches every kNN and
  EMST artifact for later queries (dendrograms are cached on the
  :meth:`Engine.fit` path; the HDBSCAN extraction stages always run);
* :meth:`Engine.map` / :meth:`Engine.fit_many` -- a thread-pool serving
  path.  Each job runs in a **snapshot of the submitting context**
  (``contextvars.copy_context``), so backend selection, hot-path flags and
  the debug-checks setting propagate to workers, while anything a job sets
  stays local to that job.  Inherited cost-model tracking is suspended per
  job (``untracked``) because CostModel instances are not thread-safe; a
  job opens its own ``tracking`` block when it wants a trace.  The default
  worker count is keyed on the active backend's
  :attr:`~repro.parallel.backend.Backend.releases_gil` capability: a
  GIL-releasing backend (``numba-parallel``) gets one worker per core --
  kernels genuinely overlap -- while a GIL-holding backend gets a small
  pool that can only overlap NumPy-internal unlocked stretches.  On the
  process executor each such job ships its work to a shard and waits for
  it, so retries, fallback, deadlines and health are the same for both
  executors (:func:`~repro.engine.resilience.run_batch`).

Everything the engine returns obeys the library-wide determinism contract:
a handle's parent array is bit-identical to a direct ``pandora()`` call on
the same input, whichever backend or index-dtype regime is active.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.pandora import PandoraStats, pandora
from ..hdbscan.pipeline import HDBSCANResult, hdbscan
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.metrics import label_scope as _label_scope
from ..obs.spans import Span as _ObsSpan
from ..obs.spans import current_span as _current_span
from ..obs.spans import recent_spans as _recent_spans
from ..obs.spans import span as _obs_span
from ..parallel.backend import Backend, get_backend, use_backend
from ..parallel.connected import compress_labels, connected_components
from ..parallel.machine import CostModel, active_model, untracked
from ..parallel.workspace import index_dtype
from ..spatial.emst import EMSTResult, KNNArtifact, emst, knn_graph
from ..structures.dendrogram import Dendrogram
from ..structures.edgelist import as_edge_arrays
from .cache import ArtifactCache, content_key
from .faults import DeadlineExceeded, active_deadline
from .plan import Plan
from .procpool import ShardPool
from .resilience import (
    BreakerBoard,
    HealthCounters,
    ServePolicy,
    run_batch,
    serving_override,
)

__all__ = ["Engine", "DendrogramHandle"]

# Observability mirror (see docs/observability.md).
_M_CALLS = _REGISTRY.counter(
    "repro_engine_calls_total",
    "Engine API entry calls by method (serving-path jobs included).",
    ("method",),
)


def _check_executor(executor: str) -> str:
    if executor not in ("thread", "process"):
        raise ValueError(
            f"executor must be 'thread' or 'process', got {executor!r}"
        )
    return executor


@dataclass(frozen=True)
class DendrogramHandle:
    """A reusable fitted dendrogram plus its run statistics.

    Handles are immutable and safe to share across threads; all query
    methods are read-only.
    """

    dendrogram: Dendrogram
    stats: PandoraStats

    @property
    def parent(self) -> np.ndarray:
        return self.dendrogram.parent

    @property
    def n_vertices(self) -> int:
        return self.dendrogram.n_vertices

    def cut(self, threshold: float) -> np.ndarray:
        """Flat clusters at one merge-height threshold (labels ``0..k-1``)."""
        return self.dendrogram.cut(threshold)

    def cut_many(self, thresholds: Sequence[float]) -> np.ndarray:
        """Flat clusterings at many thresholds in one incremental pass.

        Returns a ``(len(thresholds), n_vertices)`` label matrix; row ``i``
        equals ``cut(thresholds[i])`` exactly.  Thresholds are processed in
        ascending order and the connected-components state is carried
        between them, so each additional cut costs only the *newly* merged
        edges plus one relabeling -- the naive loop rescans every edge
        below each threshold.
        """
        dend = self.dendrogram
        nv = dend.n_vertices
        thresholds = np.asarray(list(thresholds), dtype=np.float64)
        out = np.empty((thresholds.size, nv), dtype=np.int64)
        if thresholds.size == 0:
            return out
        # Canonical order is weight-descending; reverse for an ascending
        # sweep (ties within equal weights are order-independent: unions
        # commute and labels stay min-vertex-id representatives).
        w_asc = dend.edges.w[::-1]
        u_asc = dend.edges.u[::-1]
        v_asc = dend.edges.v[::-1]
        labels = np.arange(nv, dtype=np.int64)
        pos = 0
        for t in np.argsort(thresholds, kind="stable"):
            hi = int(np.searchsorted(w_asc, thresholds[t], side="right"))
            if hi > pos:
                eu = labels[u_asc[pos:hi]]
                ev = labels[v_asc[pos:hi]]
                merged = connected_components(nv, np.stack([eu, ev], axis=1))
                labels = merged[labels]
                pos = hi
            out[t] = compress_labels(labels)[0]
        return out


def _fit_problem(problem: Sequence[Any]) -> tuple:
    if len(problem) == 3:
        u, v, w = problem
        return u, v, w, None
    u, v, w, nv = problem
    return u, v, w, nv


class Engine:
    """Facade over the pipeline with artifact reuse and a serving path.

    Parameters
    ----------
    backend:
        Optional backend (registry name or instance) every engine call is
        pinned to; ``None`` uses whatever is active in the calling context.
    cache_entries:
        Capacity of the content-keyed artifact cache (LRU).
    executor:
        Default serving executor for :meth:`map` / :meth:`fit_many` /
        :meth:`hdbscan_many`: ``"thread"`` (in-process pool, the
        historical behaviour) or ``"process"`` (the supervised
        :class:`~repro.engine.procpool.ShardPool` -- crash isolation,
        heartbeats, re-dispatch, poison quarantine, load shedding).
    shards:
        Worker-process count for the process executor (``None`` = pool
        default).
    pool_options:
        Extra :class:`~repro.engine.procpool.ShardPool` keyword
        arguments (heartbeat cadence, respawn budget, injected
        ``worker_faults``, ...).
    """

    def __init__(
        self,
        backend: str | Backend | None = None,
        cache_entries: int = 64,
        executor: str = "thread",
        shards: int | None = None,
        pool_options: dict[str, Any] | None = None,
    ) -> None:
        self._executor = _check_executor(executor)
        self._backend = backend
        self.cache = ArtifactCache(max_entries=cache_entries)
        # Resilience state (persists across batches): circuit breakers per
        # (backend, site) and the per-backend health counters.
        self.breakers = BreakerBoard()
        self._health = HealthCounters()
        # Process fault domain (lazy: no worker is spawned until the
        # first process-executor batch).
        self._shards = shards
        self._pool_options = dict(pool_options or {})
        self._pool: ShardPool | None = None
        self._pool_lock = threading.Lock()
        self._pool_degraded = 0

    # -- context -----------------------------------------------------------
    @contextmanager
    def _scope(self) -> Iterator[Backend]:
        # The serving-path degradation override outranks the engine pin:
        # a fallback re-run must actually execute on the fallback backend
        # even when this engine is pinned (see ``resilience``).
        target = serving_override()
        if target is None:
            target = self._backend
        if target is None:
            yield get_backend()
        else:
            with use_backend(target) as b:
                yield b

    # -- dendrogram construction -------------------------------------------
    def fit(
        self,
        u,
        v,
        w,
        n_vertices: int | None = None,
        cost_model: CostModel | None = None,
        plan: Plan | None = None,
    ) -> DendrogramHandle:
        """Build (or fetch from cache) the dendrogram of an MST.

        Semantics are identical to :func:`repro.core.pandora.pandora`; the
        result is cached by input *content*.  Calls that request a kernel
        trace (an explicit ``cost_model`` or an enclosing ``tracking``
        context) bypass the cache, since a cache hit runs no kernels and
        would otherwise silently record an empty trace.

        Parameters
        ----------
        u, v, w:
            MST edge arrays (endpoints and weights), any array-likes
            accepted by :func:`~repro.structures.edgelist.as_edge_arrays`.
        n_vertices:
            Vertex count; ``None`` infers ``max(u, v) + 1``.
        cost_model:
            Optional :class:`~repro.parallel.machine.CostModel` sink for
            the run's kernel records (forces a cache bypass).
        plan:
            Optional custom :class:`~repro.engine.plan.Plan` replacing the
            default PANDORA pipeline (forces a cache bypass).

        Returns
        -------
        DendrogramHandle
            Immutable handle over the dendrogram and its run statistics.

        Raises
        ------
        repro.structures.edgelist.InvalidGraphError
            If the edge list fails validation (mismatched lengths,
            negative endpoints, non-finite weights, ...).
        """
        _M_CALLS.inc(method="fit")
        with self._scope() as backend, \
                _obs_span("fit", backend=backend.name) as sp:
            if plan is not None or cost_model is not None or active_model() is not None:
                sp.annotate(cache="bypass")
                dend, stats = pandora(
                    u, v, w, n_vertices, cost_model=cost_model, plan=plan
                )
                return DendrogramHandle(dend, stats)
            ua, va, wa = as_edge_arrays(u, v, w)
            if n_vertices is None:
                n_vertices = int(
                    max(ua.max(initial=-1), va.max(initial=-1)) + 1
                )
            sp.annotate(n_edges=ua.size, n_vertices=int(n_vertices))
            key = content_key(
                "fit", ua, va, wa, int(n_vertices),
                str(index_dtype(ua.size + int(n_vertices))),
            )
            cached = self.cache.get(key)
            if cached is not None:
                sp.annotate(cache="hit")
                return cached
            sp.annotate(cache="miss")
            dend, stats = pandora(ua, va, wa, n_vertices)
            return self.cache.put(key, DendrogramHandle(dend, stats))

    # -- spatial artifacts -------------------------------------------------
    def _cached_artifact(self, key: tuple, compute):
        """Cache lookup honoring the trace-bypass rule: when a kernel trace
        is being recorded, a cache hit would silently record nothing, so
        tracked calls always compute live (and do not publish the result,
        which under weight ties could diverge from the cached one)."""
        if active_model() is not None:
            return compute()
        return self.cache.get_or_compute(key, compute)

    def knn(
        self,
        points: np.ndarray,
        k: int,
        leaf_size: int = 96,
        points_token: tuple | None = None,
    ) -> KNNArtifact:
        """Cached kd-tree + ``k``-column kNN self-query artifact.

        ``points_token`` optionally supplies a precomputed
        ``content_key(points)`` so batch callers hash the point array once.
        """
        _M_CALLS.inc(method="knn")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        token = points_token if points_token is not None else content_key(pts)
        key = content_key("knn", token, int(k), int(leaf_size))
        with self._scope():
            return self._cached_artifact(
                key, lambda: knn_graph(pts, k, leaf_size=leaf_size)
            )

    def emst(
        self,
        points: np.ndarray,
        mpts: int = 1,
        leaf_size: int = 96,
        seed_k: int = 8,
        knn: KNNArtifact | None = None,
        points_token: tuple | None = None,
    ) -> EMSTResult:
        """Cached mutual-reachability (or Euclidean) EMST of a point cloud.

        ``knn`` optionally supplies a shared spatial artifact with at least
        ``max(mpts, min(seed_k, n))`` columns (the batch path builds one at
        the batch-wide maximum); without it the engine fetches or builds a
        cached artifact of exactly that width.  ``points_token`` is as in
        :meth:`knn`.
        """
        _M_CALLS.inc(method="emst")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        n = int(pts.shape[0])
        token = points_token if points_token is not None else content_key(pts)
        key = content_key("emst", token, int(mpts), int(leaf_size), int(seed_k))

        def compute() -> EMSTResult:
            shared = knn
            if shared is None and n > 1:
                k_use = min(max(mpts, min(seed_k, n)), n)
                shared = self.knn(pts, k_use, leaf_size=leaf_size,
                                  points_token=token)
            return emst(pts, mpts=mpts, leaf_size=leaf_size,
                        seed_k=seed_k, knn=shared)

        with self._scope():
            return self._cached_artifact(key, compute)

    # -- HDBSCAN* ----------------------------------------------------------
    def hdbscan(self, points: np.ndarray, mpts: int = 2, **kwargs) -> HDBSCANResult:
        """HDBSCAN* through the engine (single ``mpts``); caches the
        spatial artifacts so repeated or multi-parameter queries reuse
        them.  Accepts the keyword arguments of
        :func:`repro.hdbscan.pipeline.hdbscan`."""
        return self.hdbscan_batch(points, [mpts], **kwargs)[0]

    def hdbscan_batch(
        self,
        points: np.ndarray,
        mpts_values: Sequence[int],
        min_cluster_size: int = 5,
        dendrogram_algorithm: str = "pandora",
        allow_single_cluster: bool = False,
        leaf_size: int = 96,
        cost_model: CostModel | None = None,
    ) -> list[HDBSCANResult]:
        """HDBSCAN* at several ``mpts`` values with shared spatial work.

        The kd-tree build and the kNN self-query -- identical across the
        batch -- run once at the batch-wide maximum column count (the
        paper's Figure 15 sweeps ``mpts`` exactly this way); every
        per-``mpts`` EMST is cached for later queries (the dendrogram and
        extraction stages run per call -- use :meth:`fit` for cached
        dendrogram handles).  Each result's ``phase_seconds["mst"]``
        records what *this batch* actually paid for that EMST (near zero
        when it came from cache).
        """
        if not mpts_values:
            raise ValueError("mpts_values must be non-empty")
        if any(m < 1 for m in mpts_values):
            raise ValueError(f"every mpts must be >= 1, got {list(mpts_values)}")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {pts.shape}")
        n = int(pts.shape[0])
        _M_CALLS.inc(method="hdbscan_batch")

        with self._scope() as backend, _obs_span(
            "hdbscan_batch", backend=backend.name, n=n,
            batch=len(mpts_values),
        ):
            # Hash the point array once for the whole batch (the digest,
            # not the hashing, is what the per-mpts keys need).
            token = content_key(pts)
            shared = None
            if n > 1:
                k_max = min(max(max(m, min(8, n)) for m in mpts_values), n)
                shared = self.knn(pts, k_max, leaf_size=leaf_size,
                                  points_token=token)
            results: list[HDBSCANResult] = []
            for m in mpts_values:
                with _obs_span("hdbscan", mpts=m) as sp:
                    t0 = time.perf_counter()
                    mst = self.emst(pts, mpts=m, leaf_size=leaf_size,
                                    knn=shared, points_token=token)
                    t_mst = time.perf_counter() - t0
                    res = hdbscan(
                        pts,
                        mpts=m,
                        min_cluster_size=min_cluster_size,
                        dendrogram_algorithm=dendrogram_algorithm,
                        allow_single_cluster=allow_single_cluster,
                        leaf_size=leaf_size,
                        cost_model=cost_model,
                        mst=mst,
                    )
                    res.phase_seconds["mst"] = t_mst
                    sp.annotate(n_clusters=res.n_clusters,
                                n_rounds=mst.n_rounds,
                                n_pair_visits=mst.n_pair_visits,
                                n_probed=mst.n_probed, **{
                        f"{name}_s": round(seconds, 6)
                        for name, seconds in res.phase_seconds.items()
                    })
                    results.append(res)
            return results

    # -- serving path ------------------------------------------------------
    @staticmethod
    def default_workers(backend: Backend) -> int:
        """Default serving-pool width for ``backend`` (the
        ``releases_gil`` heuristic).

        A GIL-releasing backend scales to one worker per core because its
        kernels execute concurrently; a GIL-holding backend is capped at a
        few workers -- beyond that, threads only contend for the
        interpreter while overlapping the stretches NumPy itself unlocks.
        """
        cpus = os.cpu_count() or 1
        if backend.releases_gil:
            return max(1, min(32, cpus))
        return max(1, min(4, cpus))

    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        max_workers: int | None = None,
        policy: ServePolicy | None = None,
        executor: str | None = None,
    ) -> list[Any]:
        """Run ``fn(item)`` for every item on the serving executor.

        On the thread executor (the default) each job executes in a
        snapshot of the submitting context (backend selection, hot-path
        flags and debug-checks propagate; workspace pools remain
        per-thread by construction), with inherited cost-model tracking
        suspended -- see the module docstring.  Results are returned in
        submission order.  ``max_workers=None`` applies
        :meth:`default_workers` to the engine's (or context's) active
        backend.

        With ``policy=None`` (the default) the batch is raise-first: no
        retries, no fallback, and the first job exception propagates --
        after cancelling every job not yet started, so the pool never
        silently runs the rest of the batch and drops their exceptions.
        With a :class:`~repro.engine.resilience.ServePolicy`, every item
        instead yields a :class:`~repro.engine.resilience.JobResult`
        envelope and the batch survives bad jobs: transient failures retry
        with backoff, tripped backends degrade down the fallback chain,
        deadlines cancel or time out jobs.  Either way every outcome lands
        in :meth:`health`.

        ``executor="process"`` (or constructing the engine with it) runs
        each job on the supervised :class:`~repro.engine.procpool.
        ShardPool` instead, one job thread per shard (``max_workers`` does
        not apply): jobs are crash-isolated in worker processes, dead and
        hung workers are respawned and their jobs re-dispatched, a job
        that keeps killing workers is quarantined
        (:class:`~repro.engine.procpool.PoisonedJobError`), and admission
        control sheds load (:class:`~repro.engine.procpool.
        RejectedError`).  The policy semantics are the same as on the
        thread executor; a fallback to a backend other than the pool's
        runs in-process.
        ``fn`` must then be picklable (module-level); :meth:`fit_many` /
        :meth:`hdbscan_many` ship picklable job descriptors instead and
        have no such restriction.  If the pool is (or goes) unhealthy,
        affected jobs run in-process -- legal because backends and
        processes are bit-identical on every input.
        """
        _M_CALLS.inc(method="map")
        items = list(items)
        jobs = [("call", (fn, item)) for item in items]
        return self._serve(fn, items, jobs, max_workers, policy, executor)

    def _serve(
        self,
        local_fn: Callable[..., Any],
        items: list[Any],
        jobs: list[tuple[str, Any]],
        max_workers: int | None,
        policy: ServePolicy | None,
        executor: str | None,
    ) -> list[Any]:
        """Build one batch's job bodies for its executor and run them
        through :func:`~repro.engine.resilience.run_batch`.

        ``jobs`` holds picklable ``(kind, payload)`` descriptors for the
        shard pool; ``local_fn(item)`` is the equivalent in-process body.
        """
        executor = _check_executor(
            self._executor if executor is None else executor
        )
        if not items:
            return []
        with self._scope() as backend:
            backend_name = backend.name
            if max_workers is None:
                max_workers = self.default_workers(backend)
        calls = [functools.partial(self._shielded, local_fn, item)
                 for item in items]
        pool = self._ensure_pool(backend_name) if executor == "process" else None
        if pool is not None and pool.healthy:
            stats = pool.stats()
            backend_name = stats["backend"] or backend_name
            # A process job blocks on its ticket: one job thread per shard
            # keeps the jobs not yet started equal to those not dispatched.
            max_workers = stats["shards"]
            submitted = [threading.Event() for _ in items]
            calls = [
                functools.partial(self._process_job, pool, backend_name,
                                  kind, payload, call, submitted, i)
                for i, ((kind, payload), call) in enumerate(zip(jobs, calls))
            ]
        elif executor == "process":
            # Pool unavailable or unhealthy: the batch runs in-process
            # (bit-identical by contract).
            self._count_degraded(len(items))
            executor = "thread"
        with _label_scope(executor=executor, backend=backend_name):
            return run_batch(calls, policy, self.breakers, self._health,
                             backend_name, max_workers)

    @staticmethod
    def _shielded(fn: Callable[..., Any], item: Any) -> Any:
        with untracked():
            return fn(item)

    # -- process executor --------------------------------------------------
    def _ensure_pool(self, backend_name: str) -> ShardPool | None:
        """The lazily created shard pool (``None`` if spawning failed);
        its workers default to ``backend_name``."""
        with self._pool_lock:
            if self._pool is None:
                options = dict(self._pool_options)
                options.setdefault("backend", backend_name)
                try:
                    self._pool = ShardPool(self._shards, **options)
                except Exception:
                    return None
            return self._pool

    def _count_degraded(self, n: int) -> None:
        with self._pool_lock:
            self._pool_degraded += n

    def _process_job(
        self,
        pool: ShardPool,
        pool_backend: str,
        kind: str,
        payload: Any,
        local_call: Callable[[], Any],
        submitted: list[threading.Event],
        index: int,
    ) -> Any:
        """The body of one process-executor job: ship one ticket to a
        shard and wait for it.

        The ticket carries the remaining cooperative deadline and the
        request span's ids; the worker's ``shard:<kind>`` subtree and the
        pool queue wait come back under the ``request`` span.  A ticket
        that ends ``timeout`` or ``cancelled`` raises
        :class:`~repro.engine.faults.DeadlineExceeded`.  ``local_call``
        runs in-process instead when the ticket comes back ``lost`` (the
        pool died under it) or when a fallback attempt targets a backend
        other than the pool's -- both legal by bit-identity.
        """
        sp = _current_span()
        if index:
            # Tickets enter the pool in batch order, so pool job ids (which
            # ``WorkerFaults.poison_job_ids`` keys on) follow it.  The jobs
            # ahead of this one have started: ``run_batch`` never cancels a
            # job ahead of a started one.
            submitted[index - 1].wait()
        ticket = None
        try:
            if serving_override() == pool_backend:
                deadline = active_deadline()
                ticket = pool.submit(
                    kind, payload,
                    deadline_s=None if deadline is None
                    else max(0.001, deadline - time.perf_counter()),
                    trace=None if sp is None else (sp.trace_id, sp.span_id),
                )
        finally:
            submitted[index].set()
        if ticket is None:
            return local_call()
        job = pool.result(ticket)
        if job.status == "lost":
            self._count_degraded(1)
            return local_call()
        if sp is not None:
            sp.annotate(kind=kind)
            if job.worker is not None:
                sp.annotate(worker=job.worker)
            sp.add_child(_ObsSpan(
                "pool_queue", start_unix=job.created_unix,
                duration_s=job.queue_wait_s,
            ))
            if job.remote_span is not None:
                sp.add_child(_ObsSpan.from_dict(job.remote_span))
            if job.kills:
                sp.event("worker_kills", count=job.kills)
        if job.ok:
            return job.value
        if job.status == "failed":
            raise job.error
        raise DeadlineExceeded("shard")

    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully drain the process pool (if one was ever created):
        finish in-flight jobs, reject new submissions, join every worker.
        ``True`` iff everything completed in time (trivially so without a
        pool)."""
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return True
        return pool.drain(timeout)

    def shutdown(self) -> None:
        """Tear down the process pool (if any); thread-path serving keeps
        working, and the next process batch starts a fresh pool."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def fit_many(
        self,
        problems: Iterable[Sequence[Any]],
        max_workers: int | None = None,
        policy: ServePolicy | None = None,
        executor: str | None = None,
    ) -> list[DendrogramHandle]:
        """Fit many MSTs concurrently: ``problems`` holds ``(u, v, w)`` or
        ``(u, v, w, n_vertices)`` tuples; returns handles in order (or
        :class:`~repro.engine.resilience.JobResult` envelopes under a
        ``policy`` -- see :meth:`map`).  On the process executor each
        problem ships to a shard as a plain ``fit`` descriptor (no
        closures cross the process boundary)."""
        _M_CALLS.inc(method="fit_many")
        problems = list(problems)
        jobs = [("fit", _fit_problem(p)) for p in problems]
        return self._serve(
            lambda p: self.fit(*_fit_problem(p)), problems, jobs,
            max_workers, policy, executor,
        )

    def hdbscan_many(
        self,
        point_sets: Iterable[np.ndarray],
        mpts: int = 2,
        max_workers: int | None = None,
        policy: ServePolicy | None = None,
        executor: str | None = None,
        **kwargs: Any,
    ) -> list[HDBSCANResult]:
        """Serve HDBSCAN* over many point clouds concurrently.

        The point-cloud analogue of :meth:`fit_many`: jobs overlap across
        the pool because the spatial front-end (kd-tree build, kNN, EMST
        leaf interactions) runs through the backend's ``nogil`` kernel
        realizations on the numba backends.  Under a ``policy``, ``knn``
        -site faults and spatial validation errors flow through the same
        retry/fallback taxonomy as edge-list jobs, and each item yields a
        :class:`~repro.engine.resilience.JobResult` envelope (see
        :meth:`map`).  ``kwargs`` are forwarded to :meth:`hdbscan`.
        """
        _M_CALLS.inc(method="hdbscan_many")
        point_sets = list(point_sets)
        jobs = [
            (
                "hdbscan",
                (
                    np.ascontiguousarray(pts, dtype=np.float64),
                    int(mpts),
                    tuple(sorted(kwargs.items())),
                ),
            )
            for pts in point_sets
        ]
        return self._serve(
            lambda pts: self.hdbscan(pts, mpts=mpts, **kwargs),
            point_sets, jobs, max_workers, policy, executor,
        )

    # -- introspection -----------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """Artifact-cache counters: ``entries``, ``hits``, ``misses``,
        ``evictions``, ``put_faults``."""
        return self.cache.stats()

    def health(self) -> dict[str, Any]:
        """Serving-path health: per-backend outcome counters, breaker
        state, and the process fault domain, one introspection shape with
        :meth:`cache_stats`::

            {"total": {...}, "backends": {name: {...}}, "breakers": {...},
             "queue_depth": 0, "workers_alive": 0, "respawns": 0,
             "shed": 0, "degraded": 0, "pool": {...} | None}

        Counter keys are ``ok / failed / timeout / cancelled / retries /
        fallbacks / breaker_trips``; breakers are keyed ``backend/site``.
        The pool fields are zero (and ``pool`` is ``None``) until a
        process-executor batch first runs; ``degraded`` counts
        process-executor jobs this engine ran in-process because the pool
        was unavailable or unhealthy.
        """
        snap = self._health.snapshot()
        snap["breakers"] = self.breakers.snapshot()
        with self._pool_lock:
            pool = self._pool
            degraded = self._pool_degraded
        stats = pool.stats() if pool is not None else None
        snap["queue_depth"] = stats["queue_depth"] if stats else 0
        snap["workers_alive"] = stats["workers_alive"] if stats else 0
        snap["respawns"] = stats["respawns"] if stats else 0
        snap["shed"] = stats["shed"] if stats else 0
        snap["degraded"] = degraded
        snap["pool"] = stats
        return snap

    def metrics(self, spans: int = 8) -> dict[str, Any]:
        """One structured observability snapshot (see docs/observability.md).

        Parameters
        ----------
        spans:
            How many of the most recent finished request span trees to
            include (the in-process ring buffer holds the last
            ``REPRO_OBS_SPANS``, default 64).

        Returns
        -------
        dict
            ``{"metrics": <registry snapshot>, "spans": [<span tree
            dict>, ...], "cache": <cache stats>, "health": <health
            snapshot>}``.  ``metrics`` is the process-wide
            :data:`repro.obs.REGISTRY` snapshot (counters, gauges,
            histogram buckets); ``spans`` are ``Span.to_dict()`` trees,
            oldest first -- render one with
            :func:`repro.obs.render_span_tree`.  ``cache`` and
            ``health`` are this engine's authoritative dicts, included so
            one call suffices to reconcile mirror against source.
        """
        return {
            "metrics": _REGISTRY.snapshot(),
            "spans": [s.to_dict() for s in _recent_spans(spans)],
            "cache": self.cache_stats(),
            "health": self.health(),
        }
