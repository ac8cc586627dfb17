"""Supervised multi-process shard pool: the process fault domain.

PR 6 made serving resilient *inside* one process (classified errors,
retries, breakers, fallback).  This module supplies the layer above it:
a pool of worker **processes** (shards) where worker death -- segfault,
OOM kill, wedged kernel -- is a first-class classified failure instead of
a hung batch.  ``Engine(executor="process")`` routes ``map`` /
``fit_many`` / ``hdbscan_many`` through a :class:`ShardPool`.

Supervision model
-----------------
One daemon supervisor thread owns all pool state.  Each worker sends
heartbeats, results, and classified errors over its own one-way result
pipe (see :mod:`repro.engine.worker` for the wire protocol); the
supervisor multiplexes those pipes with a periodic scan.  The parent
closes its copy of each write end right after the fork, so a worker's
exit -- even a SIGKILL half-way through a message -- reads as EOF on its
pipe alone and cannot block any other worker's sends:

* **Dead worker** -- ``Process.exitcode`` is set without a clean stop:
  counted as a crash (``CRASH_EXITCODE`` marks *injected* kills), the
  worker is respawned (bounded by ``respawn_budget``), and its in-flight
  job is re-dispatched to another shard with bounded attempts
  (``max_dispatch``).
* **Hung worker** -- heartbeats stop for longer than ``hang_after_s``
  (or bootstrap exceeds ``boot_timeout_s``): the worker is killed and
  handled exactly like a crash.  Heartbeats come from a dedicated thread
  in the worker, so a long-running kernel never looks hung.
* **Poisoned job** -- a job that kills ``poison_threshold`` *consecutive*
  workers is quarantined: it fails permanently with
  :class:`PoisonedJobError`, its content fingerprint is remembered, and
  resubmitting the same content is rejected at the front door.  One bad
  input can never grind the pool through its respawn budget.
* **Admission control** -- at most ``max_pending`` jobs may be queued or
  in flight; beyond that :meth:`ShardPool.submit` sheds load with
  :class:`RejectedError` (permanent -- the *caller* chooses whether to
  re-offer).  :meth:`ShardPool.drain` completes in-flight work while
  rejecting new submissions, then joins every worker.

When the respawn budget is exhausted and the last worker dies, the pool
marks itself unhealthy and fails outstanding jobs -- and every later
submission -- as *lost* (transient); the
:class:`~repro.engine.engine.Engine` reacts by running those jobs
in-process, which is legal because backends and processes are
bit-identical on every input (the cross-backend contract).

An error raised inside a job finishes its ticket: retrying it is the
caller's policy (:func:`repro.engine.resilience.run_job`).  The pool
re-dispatches only jobs whose worker died, because a worker death is a
different fault from a job error.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import socket
import threading
import time
import weakref
from collections import deque
from multiprocessing.connection import wait as _wait_readable
from typing import Any

from ..obs.metrics import REGISTRY as _REGISTRY
from .cache import content_key
from .worker import (
    CRASH_EXITCODE,
    MSG_DONE,
    MSG_ERR,
    MSG_HB,
    MSG_READY,
    JOB_KINDS,
    WorkerConfig,
    worker_main,
)

__all__ = [
    "ShardPool",
    "ShardJob",
    "RejectedError",
    "PoisonedJobError",
    "WorkerCrashError",
    "RemoteJobError",
]

# ---------------------------------------------------------------------------
# Observability mirrors (see docs/observability.md).  Counters mirror the
# pool's authoritative ints at the same call sites; gauges are published
# by the supervisor loop each tick (with several pools in one process the
# gauges reflect the most recently scanned pool).
# ---------------------------------------------------------------------------
_M_POOL_EVENTS = _REGISTRY.counter(
    "repro_pool_events_total",
    "Shard-pool lifecycle events (mirrors ShardPool.stats() counters).",
    ("event",),
)
_M_POOL_JOBS = _REGISTRY.counter(
    "repro_pool_jobs_total",
    "Shard-pool jobs by terminal status.",
    ("status",),
)
_M_QUEUE_DEPTH = _REGISTRY.gauge(
    "repro_pool_queue_depth", "Jobs queued in the shard pool."
)
_M_INFLIGHT = _REGISTRY.gauge(
    "repro_pool_inflight", "Jobs currently executing on shard workers."
)
_M_WORKERS_ALIVE = _REGISTRY.gauge(
    "repro_pool_workers_alive", "Live shard-worker processes."
)
_M_HB_AGE = _REGISTRY.gauge(
    "repro_pool_heartbeat_age_seconds",
    "Age of the stalest worker heartbeat (ready workers only).",
)
_M_UNHEALTHY = _REGISTRY.gauge(
    "repro_pool_unhealthy", "1 while the shard pool cannot make progress."
)


class RejectedError(RuntimeError):
    """Submission shed by admission control (queue full / pool closing).

    Permanent by classification: the serving tier must not burn retry
    budget re-offering work to a saturated pool -- backpressure is the
    caller's decision.
    """

    transient = False
    site = "admission"


class PoisonedJobError(RuntimeError):
    """A job killed ``poison_threshold`` consecutive workers; quarantined.

    Permanent: the job's content fingerprint is blocked at submission, so
    it can never be retried into the pool again.
    """

    transient = False
    site = "shard"

    def __init__(self, message: str, kills: int = 0) -> None:
        super().__init__(message)
        self.kills = kills


class WorkerCrashError(RuntimeError):
    """A worker died (or hung) while running the job.

    Transient: the job itself is not known to be at fault (that is what
    the poison counter decides), so a retry on a fresh shard may absorb
    it.
    """

    transient = True
    site = "shard"


class RemoteJobError(RuntimeError):
    """Parent-side stand-in for a child exception that did not survive
    pickling (or whose payload failed to unpickle).

    Carries the child-side :func:`~repro.engine.resilience.classify`
    bucket so the duck-typed ``transient`` attribute keeps the taxonomy
    intact across the process boundary.
    """

    site = "shard"

    def __init__(self, exc_type: str, message: str,
                 kind: str = "permanent") -> None:
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.kind = kind
        self.transient = kind == "transient"


class ShardJob:
    """Mutable ticket for one submitted job; returned by :meth:`submit`.

    ``status`` is ``None`` while queued or in flight, then one of
    ``"ok" | "failed" | "timeout" | "cancelled" | "lost"`` (``lost`` =
    the pool died under it, or was already dead at submission; the
    engine runs lost jobs in-process).  Wait on it with
    :meth:`ShardPool.result`.
    """

    __slots__ = (
        "id", "kind", "payload", "deadline_at", "created_at", "attempts",
        "kills", "status", "value", "error", "error_kind", "worker",
        "event", "trace", "enqueued_at", "queue_wait_s", "remote_span",
        "created_unix",
    )

    def __init__(self, job_id: int, kind: str, payload: Any,
                 deadline_at: float | None, created_at: float,
                 trace: tuple[str, str] | None = None) -> None:
        self.id = job_id
        self.kind = kind
        self.payload = payload
        self.deadline_at = deadline_at
        self.created_at = created_at
        self.attempts = 0
        self.kills = 0
        self.status: str | None = None
        self.value: Any = None
        self.error: BaseException | None = None
        self.error_kind: str | None = None
        self.worker: int | None = None
        self.event = threading.Event()
        # Observability: the request's (trace_id, parent_span_id) pair
        # shipped inside the job envelope, accumulated queue wait across
        # (re-)dispatches, and the worker-side span tree shipped back
        # with the result.
        self.trace = trace
        self.enqueued_at = created_at
        self.queue_wait_s = 0.0
        self.remote_span: dict | None = None
        self.created_unix = time.time()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Worker:
    """Supervisor-side record of one shard process."""

    __slots__ = ("wid", "proc", "job_q", "conn", "ready", "stopping",
                 "spawned_at", "last_hb", "current")

    def __init__(self, wid: int, proc, job_q, conn, now: float) -> None:
        self.wid = wid
        self.proc = proc
        self.job_q = job_q
        self.conn = conn  # read end of the worker's result pipe
        self.ready = False
        self.stopping = False
        self.spawned_at = now
        self.last_hb = now
        self.current: ShardJob | None = None


def _freeze(obj: Any) -> Any:
    """Make ``obj`` content-hashable for quarantine fingerprints."""
    if isinstance(obj, dict):
        return tuple((k, _freeze(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (tuple, list)):
        return tuple(_freeze(x) for x in obj)
    if callable(obj):
        return (
            f"{getattr(obj, '__module__', '?')}."
            f"{getattr(obj, '__qualname__', repr(obj))}"
        )
    return obj


def _fingerprint(kind: str, payload: Any) -> tuple | None:
    """Content key of a job for quarantine (``None``: unhashable content,
    not quarantinable)."""
    try:
        return content_key("shard-job", kind, _freeze(payload))
    except TypeError:
        return None


def _reap(procs: list) -> None:
    """Finalizer / shutdown backstop: no shard outlives the pool."""
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:
            pass


class ShardPool:
    """Supervised process-shard pool (see the module docstring).

    Parameters
    ----------
    shards:
        Worker-process count; ``None`` = one per core, capped at 8.
    backend:
        Backend registry name pinned inside every worker (``None`` lets
        workers resolve ``REPRO_BACKEND`` / the library default).
    max_pending:
        Admission bound: queued + in-flight jobs beyond this shed with
        :class:`RejectedError`.
    heartbeat_s, hang_after_s:
        Worker heartbeat cadence, and how long heartbeats may be missing
        before the worker is declared hung (default ``20 * heartbeat_s``).
    boot_timeout_s:
        Bootstrap budget before an unready worker is declared hung
        (separate knob: cold JIT warmup legitimately dwarfs a heartbeat).
    respawn_budget:
        Total replacement workers the pool may ever spawn; exhausted +
        last worker dead = unhealthy (outstanding jobs fail as lost).
    poison_threshold:
        Consecutive worker kills by one job before it is quarantined.
    max_dispatch:
        Dispatch attempts per job (first try + crash re-dispatches).
    worker_faults:
        Optional :class:`~repro.engine.faults.WorkerFaults` schedule
        shipped to every worker (chaos testing).
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available (numba's tbb/workqueue threading layers are fork-safe;
        kernel caches make ``spawn`` workers cheap elsewhere).
    warm:
        Run the backend's ``warmup()`` in each worker before it reports
        ready.
    """

    def __init__(
        self,
        shards: int | None = None,
        backend: str | None = None,
        *,
        max_pending: int = 256,
        heartbeat_s: float = 0.25,
        hang_after_s: float | None = None,
        boot_timeout_s: float = 120.0,
        respawn_budget: int = 8,
        poison_threshold: int = 2,
        max_dispatch: int = 4,
        worker_faults: Any = None,
        start_method: str | None = None,
        warm: bool = False,
        cache_entries: int = 32,
    ) -> None:
        if shards is None:
            shards = max(1, min(8, os.cpu_count() or 1))
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if heartbeat_s <= 0 or boot_timeout_s <= 0:
            raise ValueError("heartbeat_s and boot_timeout_s must be positive")
        if poison_threshold < 1 or max_dispatch < 1:
            raise ValueError("poison_threshold and max_dispatch must be >= 1")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._shards = shards
        self._backend_name = backend
        self._max_pending = max_pending
        self._heartbeat_s = heartbeat_s
        self._hang_after_s = (
            20.0 * heartbeat_s if hang_after_s is None else hang_after_s
        )
        self._boot_timeout_s = boot_timeout_s
        self._respawn_budget = respawn_budget
        self._poison_threshold = poison_threshold
        self._max_dispatch = max_dispatch
        self._worker_faults = worker_faults
        self._start_method = start_method
        self._warm = warm
        self._cache_entries = cache_entries

        self._ctx = mp.get_context(start_method)
        # Self-pipe that wakes the supervisor when work is submitted.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._tick = max(0.01, min(0.25, heartbeat_s / 2.0))

        self._cond = threading.Condition()
        self._workers: list[_Worker] = []
        self._by_wid: dict[int, _Worker] = {}
        self._pending: deque[ShardJob] = deque()
        self._jobs: dict[int, ShardJob] = {}
        self._quarantine: set[tuple] = set()
        self._next_wid = 0
        self._next_job_id = 0
        self._closed = False
        self._draining = False
        self._unhealthy = False

        # Counters (read under the lock via stats()).
        self._submitted = 0
        self._completed = 0
        self._shed = 0
        self._respawns = 0
        self._crashes = 0
        self._hangs = 0
        self._injected_kills = 0
        self._quarantined = 0

        self._all_procs: list = []
        self._all_job_qs: list = []
        self._finalizer = weakref.finalize(self, _reap, self._all_procs)

        now = time.monotonic()
        with self._cond:
            for _ in range(shards):
                self._spawn(now)
        self._supervisor = threading.Thread(
            target=self._supervise, name="shard-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- front door --------------------------------------------------------
    def submit(
        self,
        kind: str,
        payload: Any,
        *,
        deadline_s: float | None = None,
        trace: tuple[str, str] | None = None,
    ) -> ShardJob:
        """Enqueue one job; returns its ticket (wait via :meth:`result`).

        ``trace`` optionally carries the caller's ``(trace_id,
        parent_span_id)`` pair into the job envelope, so the worker's span
        subtree stitches under the caller's request span (see
        ``repro.obs``).  Raises :class:`RejectedError` when the pool is
        closing, draining, or at ``max_pending``; :class:`PoisonedJobError`
        when the job's content fingerprint is quarantined.  An unhealthy
        pool returns the ticket already ``lost``: no worker would ever
        take it.
        """
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}")
        # Hashing a large payload takes milliseconds on the dispatch path,
        # so it is paid only while something is quarantined; a poisoned
        # job is fingerprinted when it is quarantined.
        fingerprint = _fingerprint(kind, payload) if self._quarantine else None
        now = time.monotonic()
        with self._cond:
            if self._closed or self._draining:
                self._shed += 1
                _M_POOL_EVENTS.inc(event="shed")
                raise RejectedError("shard pool is not accepting submissions")
            if fingerprint is not None and fingerprint in self._quarantine:
                raise PoisonedJobError(
                    "job content is quarantined (previously killed "
                    f"{self._poison_threshold} consecutive workers)",
                    kills=self._poison_threshold,
                )
            if len(self._jobs) >= self._max_pending:
                self._shed += 1
                _M_POOL_EVENTS.inc(event="shed")
                raise RejectedError(
                    f"admission queue full ({self._max_pending} jobs pending)"
                )
            job = ShardJob(
                self._next_job_id, kind, payload,
                None if deadline_s is None else now + deadline_s,
                now, trace,
            )
            self._next_job_id += 1
            self._submitted += 1
            _M_POOL_EVENTS.inc(event="submitted")
            if self._unhealthy:
                self._finish(job, "lost", error=WorkerCrashError(
                    "shard pool has no workers (respawn budget exhausted)",
                ), error_kind="transient")
                return job
            self._jobs[job.id] = job
            self._pending.append(job)
        self._kick()
        return job

    def result(self, job: ShardJob, timeout: float | None = None) -> ShardJob:
        """Block until ``job`` reaches a terminal status; returns it."""
        if not job.event.wait(timeout):
            raise TimeoutError(f"job {job.id} still running after {timeout}s")
        return job

    def cancel(self, job: ShardJob) -> bool:
        """Cancel ``job`` if it has not been dispatched yet."""
        with self._cond:
            if job.status is None and job in self._pending:
                self._pending.remove(job)
                self._finish(job, "cancelled")
                return True
            return False

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish all queued/in-flight jobs, then shut
        down (joining every worker).  Returns ``True`` iff everything
        completed within ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._draining = True
            while self._jobs:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(
                    0.2 if remaining is None else min(0.2, remaining)
                )
            drained = not self._jobs
        self.shutdown()
        return drained

    def shutdown(self) -> None:
        """Cancel queued jobs, let in-flight ones finish (hang detection
        still applies), stop and join every worker.  Idempotent."""
        with self._cond:
            already = self._closed
            self._closed = True
            if not already:
                for job in list(self._pending):
                    self._finish(job, "cancelled")
                self._pending.clear()
            supervisor = self._supervisor
        self._kick()
        if supervisor is not None and supervisor is not threading.current_thread():
            supervisor.join(timeout=30.0)
            if supervisor.is_alive():
                _reap(self._all_procs)
                supervisor.join(timeout=5.0)
        _reap(self._all_procs)
        for q in self._all_job_qs:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        for w in self._workers:
            if w.conn is not None:
                w.conn.close()
        self._wake_r.close()
        self._wake_w.close()
        self._finalizer.detach()

    # -- introspection -----------------------------------------------------
    @property
    def healthy(self) -> bool:
        """Whether the pool can currently make progress (the engine
        runs jobs in-process when this is ``False``)."""
        with self._cond:
            return not self._unhealthy and not self._closed

    def stats(self) -> dict[str, Any]:
        """Counter snapshot (shape consumed by ``Engine.health()``)."""
        with self._cond:
            return {
                "shards": self._shards,
                "workers_alive": sum(
                    1 for w in self._workers if w.proc.is_alive()
                ),
                "queue_depth": len(self._pending),
                "inflight": sum(
                    1 for w in self._workers if w.current is not None
                ),
                "submitted": self._submitted,
                "completed": self._completed,
                "shed": self._shed,
                "respawns": self._respawns,
                "crashes": self._crashes,
                "hangs": self._hangs,
                "injected_kills": self._injected_kills,
                "quarantined": self._quarantined,
                "unhealthy": self._unhealthy,
                "closed": self._closed,
                "backend": self._backend_name,
                "start_method": self._start_method,
                "respawn_budget": self._respawn_budget,
            }

    # -- supervisor --------------------------------------------------------
    def _kick(self) -> None:
        """Wake the supervisor immediately (new work / state change)."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # buffer full or closed: the periodic tick covers it

    def _supervise(self) -> None:
        while True:
            with self._cond:
                conns = [w.conn for w in self._workers if w.conn is not None]
            try:
                ready = _wait_readable([self._wake_r, *conns], self._tick)
            except (OSError, ValueError):
                ready = []
            with self._cond:
                if self._wake_r in ready:
                    try:
                        self._wake_r.recv(4096)
                    except OSError:
                        pass
                # Drain every pipe, not only the ones ``ready`` named: the
                # lock may have been contended long enough for heartbeats
                # to pile up, and the scan below must see them.
                for w in list(self._workers):
                    if w.conn is not None:
                        self._read(w)
                now = time.monotonic()
                self._scan(now)
                self._dispatch(now)
                self._publish_gauges(now)
                if self._closed:
                    for w in self._workers:
                        if w.current is None and not w.stopping:
                            try:
                                w.job_q.put_nowait(("stop",))
                            except Exception:
                                pass
                            w.stopping = True
                    if not self._workers:
                        return

    def _read(self, w: _Worker) -> None:
        """Handle every message waiting on ``w``'s result pipe.  EOF means
        the worker exited (possibly mid-message): the pipe is closed and
        the scan handles the death."""
        try:
            while w.conn.poll():
                self._handle(w.conn.recv())
        except (EOFError, OSError):
            w.conn.close()
            w.conn = None

    def _handle(self, msg: tuple) -> None:
        tag = msg[0]
        now = time.monotonic()
        if tag == MSG_HB:
            w = self._by_wid.get(msg[1])
            if w is not None:
                w.last_hb = now
            return
        if tag == MSG_READY:
            w = self._by_wid.get(msg[1])
            if w is not None:
                w.ready = True
                w.last_hb = now
            return
        if tag == MSG_DONE:
            _tag, wid, job_id, blob = msg
            self._job_returned(wid, job_id, now)
            job = self._jobs.get(job_id)
            if job is None or job.status is not None:
                return  # stale duplicate from a presumed-dead worker
            try:
                value, remote_span = pickle.loads(blob)
            except Exception as exc:
                self._finish(job, "failed", error=RemoteJobError(
                    type(exc).__name__,
                    f"result of job {job_id} failed to unpickle: {exc}",
                ), error_kind="permanent")
            else:
                job.remote_span = remote_span
                self._finish(job, "ok", value=value)
            return
        if tag == MSG_ERR:
            _tag, wid, job_id, kind, enc = msg
            self._job_returned(wid, job_id, now)
            job = self._jobs.get(job_id)
            if job is None or job.status is not None:
                return
            error = self._decode_error(enc, kind)
            self._finish(
                job, "timeout" if kind == "timeout" else "failed",
                error=error, error_kind=kind,
            )

    def _job_returned(self, wid: int, job_id: int, now: float) -> None:
        """Bookkeeping common to done/err: the worker is idle again."""
        w = self._by_wid.get(wid)
        if w is not None:
            w.last_hb = now
            if w.current is not None and w.current.id == job_id:
                w.current = None

    @staticmethod
    def _decode_error(enc: tuple, kind: str) -> BaseException:
        scheme, data = enc
        if scheme == "pickle":
            try:
                return pickle.loads(data)
            except Exception:
                pass
        if scheme == "repr" or scheme == "pickle":
            try:
                type_name, message = data if scheme == "repr" else ("?", "?")
            except Exception:
                type_name, message = "?", "?"
            return RemoteJobError(type_name, message, kind)
        return RemoteJobError("?", "undecodable worker error", kind)

    def _scan(self, now: float) -> None:
        for w in list(self._workers):
            exitcode = w.proc.exitcode
            if exitcode is not None:
                if w.conn is not None:
                    self._read(w)  # what it sent before exiting still counts
                self._remove(w)
                if w.stopping and exitcode == 0:
                    continue
                self._on_death(
                    w, "crash", injected=exitcode == CRASH_EXITCODE, now=now
                )
            elif not w.ready:
                if now - w.spawned_at > self._boot_timeout_s:
                    self._kill(w)
                    self._remove(w)
                    self._on_death(w, "hang", injected=False, now=now)
            elif now - w.last_hb > self._hang_after_s:
                self._kill(w)
                self._remove(w)
                self._on_death(w, "hang", injected=False, now=now)

    def _remove(self, w: _Worker) -> None:
        if w.conn is not None:
            w.conn.close()
            w.conn = None
        if w in self._workers:
            self._workers.remove(w)
        self._by_wid.pop(w.wid, None)

    @staticmethod
    def _kill(w: _Worker) -> None:
        try:
            w.proc.kill()
            w.proc.join(1.0)
        except Exception:
            pass

    def _on_death(self, w: _Worker, reason: str, injected: bool,
                  now: float) -> None:
        if reason == "crash":
            self._crashes += 1
            _M_POOL_EVENTS.inc(event="crash")
        else:
            self._hangs += 1
            _M_POOL_EVENTS.inc(event="hang")
        if injected:
            self._injected_kills += 1
            _M_POOL_EVENTS.inc(event="injected_kill")
        job = w.current
        w.current = None
        if job is not None and job.status is None:
            if self._closed:
                self._finish(job, "cancelled")
            else:
                job.kills += 1
                if job.kills >= self._poison_threshold:
                    fingerprint = _fingerprint(job.kind, job.payload)
                    if fingerprint is not None:
                        self._quarantine.add(fingerprint)
                    self._quarantined += 1
                    _M_POOL_EVENTS.inc(event="quarantined")
                    self._finish(job, "failed", error=PoisonedJobError(
                        f"job {job.id} killed {job.kills} consecutive "
                        "workers; quarantined", kills=job.kills,
                    ), error_kind="permanent")
                elif job.attempts >= self._max_dispatch:
                    self._finish(job, "failed", error=WorkerCrashError(
                        f"job {job.id} lost its worker ({reason}) on all "
                        f"{job.attempts} dispatch attempts",
                    ), error_kind="transient")
                else:
                    job.enqueued_at = now
                    _M_POOL_EVENTS.inc(event="redispatch")
                    self._pending.appendleft(job)
        if self._closed:
            return
        if self._respawns < self._respawn_budget:
            self._respawns += 1
            _M_POOL_EVENTS.inc(event="respawn")
            self._spawn(now)
        elif not self._workers:
            # Budget exhausted and nobody left: fail everything as lost
            # (transient) so the engine can run it in-process.
            self._unhealthy = True
            for j in list(self._jobs.values()):
                if j.status is None:
                    try:
                        self._pending.remove(j)
                    except ValueError:
                        pass
                    self._finish(j, "lost", error=WorkerCrashError(
                        "shard pool lost all workers "
                        "(respawn budget exhausted)",
                    ), error_kind="transient")

    def _dispatch(self, now: float) -> None:
        # Expire queued jobs whose deadline passed, idle workers or not.
        if self._pending:
            alive: deque[ShardJob] = deque()
            for job in self._pending:
                if job.deadline_at is not None and now >= job.deadline_at:
                    self._finish(job, "cancelled", error_kind="timeout")
                else:
                    alive.append(job)
            self._pending = alive
        if self._closed:
            return
        for w in self._workers:
            if not self._pending:
                break
            if not w.ready or w.current is not None or w.stopping:
                continue
            job = self._pending.popleft()
            remaining = (
                None if job.deadline_at is None
                else max(0.001, job.deadline_at - now)
            )
            job.attempts += 1
            job.worker = w.wid
            w.current = job
            try:
                w.job_q.put_nowait(
                    ("job", job.id, job.kind, job.payload, remaining,
                     job.trace)
                )
            except Exception:
                # Broken pipe to a dying worker: undo; the scan reaps it.
                w.current = None
                job.attempts -= 1
                self._pending.appendleft(job)
            else:
                job.queue_wait_s += max(0.0, now - job.enqueued_at)

    def _publish_gauges(self, now: float) -> None:
        """Refresh the pool gauges (one supervisor tick's snapshot)."""
        _M_QUEUE_DEPTH.set(len(self._pending))
        _M_INFLIGHT.set(
            sum(1 for w in self._workers if w.current is not None)
        )
        _M_WORKERS_ALIVE.set(
            sum(1 for w in self._workers if w.proc.is_alive())
        )
        ages = [now - w.last_hb for w in self._workers if w.ready]
        _M_HB_AGE.set(max(ages) if ages else 0.0)
        _M_UNHEALTHY.set(1.0 if self._unhealthy else 0.0)

    def _spawn(self, now: float) -> None:
        wid = self._next_wid
        self._next_wid += 1
        job_q = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        config = WorkerConfig(
            backend=self._backend_name,
            heartbeat_s=self._heartbeat_s,
            warm=self._warm,
            cache_entries=self._cache_entries,
            faults=self._worker_faults,
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, job_q, writer, config),
            name=f"repro-shard-{wid}",
            daemon=True,
        )
        try:
            proc.start()
        except Exception:
            reader.close()
            self._unhealthy = True
            return
        finally:
            writer.close()  # the worker now holds the only write end
        worker = _Worker(wid, proc, job_q, reader, now)
        self._workers.append(worker)
        self._by_wid[wid] = worker
        self._all_procs.append(proc)
        self._all_job_qs.append(job_q)

    def _finish(self, job: ShardJob, status: str, value: Any = None,
                error: BaseException | None = None,
                error_kind: str | None = None) -> None:
        job.status = status
        job.value = value
        job.error = error
        job.error_kind = error_kind
        self._jobs.pop(job.id, None)
        self._completed += 1
        _M_POOL_EVENTS.inc(event="completed")
        _M_POOL_JOBS.inc(status=status)
        job.event.set()
        self._cond.notify_all()
