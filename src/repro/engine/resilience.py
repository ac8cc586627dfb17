"""Resilient serving: policies, retries, breakers, and degradation.

The serving tier's job (ROADMAP north star: survive heavy traffic) is to
keep a batch alive when individual jobs misbehave.  This module supplies
the job lifecycle that :meth:`Engine.map` / :meth:`Engine.fit_many` run
every job under, on either executor, given a :class:`ServePolicy`:

* **Classified errors** -- :func:`classify` buckets every failure as
  ``transient`` (a retry may absorb it: injected transient faults,
  :class:`~repro.parallel.workspace.ResourceError`, any ``MemoryError``,
  and the IPC seam errors ``BrokenPipeError`` / ``ConnectionResetError``
  / ``EOFError`` -- a severed pipe means a dead peer process, and the
  shard supervisor replaces dead peers), ``permanent`` (retrying can
  never help: :class:`~repro.structures.edgelist.InvalidGraphError`,
  load shedding (:class:`~repro.engine.procpool.RejectedError`),
  quarantined jobs (:class:`~repro.engine.procpool.PoisonedJobError`),
  unknown exceptions), or ``timeout`` (any ``TimeoutError``, including
  the cooperative :class:`~repro.engine.faults.DeadlineExceeded`).
  Classification is duck-typed on a boolean ``transient`` attribute, so
  a future device backend -- or the process fault domain's
  :class:`~repro.engine.procpool.WorkerCrashError` /
  :class:`~repro.engine.procpool.RemoteJobError` -- can classify its own
  exceptions without importing this module.

* **Bounded retries with backoff** -- transient failures retry up to
  ``max_retries`` times per backend with exponential backoff plus jitter;
  permanent failures never retry (failure isolation: a bad job fails
  exactly once and cannot poison the batch or the breakers).

* **Deadlines** -- a per-job deadline and a batch deadline, both enforced
  *cooperatively* through the fault hook
  (:func:`~repro.engine.faults.deadline_scope`): a running job raises
  :class:`~repro.engine.faults.DeadlineExceeded` at its next kernel
  poke, which is what makes thread-pool jobs cancellable mid-pipeline.
  Jobs the batch deadline catches before they start are cancelled
  outright.

* **Circuit breakers + graceful degradation** -- a breaker per
  ``(backend, site)`` trips after ``breaker_threshold`` *consecutive*
  transient failures and stays open for ``breaker_cooldown_s``; a job
  whose retries are exhausted (or whose breaker is open) degrades down
  the registered backend chain
  (:func:`~repro.parallel.backend.fallback_chain`, e.g.
  ``numba-parallel -> numba -> numpy``) and re-runs there.  Degradation
  is *safe* because the cross-backend contract guarantees bit-identical
  results on every backend -- it trades throughput, never correctness.

* **Health accounting** -- every outcome, retry, fallback, and breaker
  trip is counted per backend in :class:`HealthCounters`, surfaced by
  ``Engine.health()`` and the ``serve`` CLI subcommand.

Results come back as per-job :class:`JobResult` envelopes in submission
order -- the batch never dies on the first bad job.  :func:`run_job` is
the only place either engine executor runs a job: a batch without a
policy runs under a no-retry, no-fallback policy and re-raises its first
failure (raise-first).
"""

from __future__ import annotations

import contextvars
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.metrics import current_labels as _obs_labels
from ..obs.spans import Span as _ObsSpan
from ..obs.spans import span as _obs_span
from ..parallel.backend import fallback_chain, use_backend
from .faults import deadline_scope

__all__ = [
    "ServePolicy",
    "JobResult",
    "classify",
    "BreakerBoard",
    "HealthCounters",
    "serving_override",
    "serving_backend",
    "run_job",
    "run_batch",
]

#: Health-counter keys, in reporting order.
HEALTH_KEYS: tuple[str, ...] = (
    "ok", "failed", "timeout", "cancelled",
    "retries", "fallbacks", "breaker_trips",
)

# ---------------------------------------------------------------------------
# Observability mirrors (see docs/observability.md).  ``repro_health_total``
# is incremented exclusively inside ``HealthCounters.record`` so the
# registry reconciles *exactly* with ``Engine.health()`` -- both serving
# paths route every outcome through that one method.
# ---------------------------------------------------------------------------
_M_HEALTH = _REGISTRY.counter(
    "repro_health_total",
    "Serving outcomes per backend; mirrors HealthCounters / Engine.health().",
    ("backend", "outcome"),
)
_M_BREAKER_TRIPS = _REGISTRY.counter(
    "repro_breaker_trips_total",
    "Circuit-breaker trips per (backend, site).",
    ("backend", "site"),
)
_M_BACKOFF = _REGISTRY.counter(
    "repro_retry_backoff_seconds_total",
    "Total seconds slept in retry backoff, per backend.",
    ("backend",),
)
_M_REQUEST = _REGISTRY.histogram(
    "repro_request_seconds",
    "End-to-end serving-request latency (retries and fallbacks included).",
    ("executor", "status"),
)
_M_QUEUE_WAIT = _REGISTRY.histogram(
    "repro_queue_wait_seconds",
    "Time a serving job waited between submission and execution start.",
    ("executor",),
)


def classify(exc: BaseException) -> str:
    """Bucket an exception: ``"transient"`` | ``"permanent"`` | ``"timeout"``.

    See the module docstring for the rules.  Unknown exceptions classify
    permanent -- retrying an unclassified failure is how retry storms
    start, so opting *in* to retries requires carrying the ``transient``
    attribute.
    """
    if isinstance(exc, TimeoutError):
        return "timeout"
    transient = getattr(exc, "transient", None)
    if transient is not None:
        return "transient" if transient else "permanent"
    if isinstance(exc, MemoryError):
        return "transient"
    if isinstance(exc, (BrokenPipeError, ConnectionResetError, EOFError)):
        # IPC seams: a pipe or queue severed mid-operation means the peer
        # process died, and the process supervisor replaces dead peers --
        # a retry lands on a fresh shard, so these must not fall into the
        # unknown->permanent default.
        return "transient"
    return "permanent"


@dataclass(frozen=True)
class ServePolicy:
    """Knobs for the resilient serving path (immutable, shareable).

    Attributes
    ----------
    max_retries:
        Retry budget for *transient* failures, per job per backend.
    backoff_base_s, backoff_factor, backoff_max_s, jitter:
        Retry ``k`` (1-based) sleeps
        ``min(backoff_max_s, backoff_base_s * backoff_factor**(k-1))``
        scaled by a uniform factor in ``[1 - jitter, 1 + jitter]``
        (jitter decorrelates retry bursts across concurrent jobs).
    job_deadline_s:
        Wall-clock budget per job attempt *sequence* (all retries and
        fallbacks included), enforced cooperatively; ``None`` disables.
    batch_deadline_s:
        Wall-clock budget for the whole batch: jobs not yet started when
        it expires are cancelled, running jobs time out cooperatively;
        ``None`` disables.
    fallback:
        Degrade down the registered backend chain once retries are
        exhausted or the breaker is open (``False`` pins the job to its
        submitting backend).
    breaker_threshold:
        Consecutive transient failures on one ``(backend, site)`` that
        trip its breaker.
    breaker_cooldown_s:
        How long a tripped breaker stays open before a probe is allowed
        (half-open).
    """

    max_retries: int = 3
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    jitter: float = 0.25
    job_deadline_s: float | None = None
    batch_deadline_s: float | None = None
    fallback: bool = True
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        for name in ("job_deadline_s", "batch_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")

    def backoff_s(self, retry: int) -> float:
        """Sleep before retry ``retry`` (1-based), jitter included."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (retry - 1),
        )
        if self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * random.random() - 1.0))


@dataclass(frozen=True)
class JobResult:
    """Per-job outcome envelope returned by the policy serving path.

    ``status`` is one of ``"ok"``, ``"failed"``, ``"timeout"``,
    ``"cancelled"``; exactly the ok results carry a ``value``.
    ``attempts`` counts every execution start (first try included),
    ``retries`` the transient-failure re-runs, ``fallbacks`` how many
    non-primary backends were entered; ``backend`` is the backend that
    produced the final outcome (``None`` for cancelled jobs).
    """

    index: int
    status: str
    value: Any = None
    error: BaseException | None = None
    error_kind: str | None = None
    attempts: int = 0
    retries: int = 0
    fallbacks: int = 0
    latency_s: float = 0.0
    backend: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def unwrap(self) -> Any:
        """The value, or re-raise the classified error (timeouts and
        cancellations raise ``TimeoutError``)."""
        if self.status == "ok":
            return self.value
        if self.error is not None:
            raise self.error
        raise TimeoutError(f"job {self.index} was {self.status}")


class BreakerBoard:
    """Circuit breakers per ``(backend, site)``; thread-safe, parameter-free.

    The board stores only state (consecutive transient failures and the
    open-until instant); thresholds and cooldowns come from the policy at
    record time, so one board -- owned by the :class:`Engine` so state
    persists across batches -- serves calls under different policies.
    A job-level success resets every breaker of the backend that served
    it (the pipeline exercised all its sites).  After the cooldown a
    breaker is *half-open*: probes are allowed, and a failing probe
    re-trips immediately.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (backend, site) -> [consecutive transient failures, open-until]
        self._state: dict[tuple[str, str], list[float]] = {}
        self.trips = 0

    def record_failure(
        self, backend: str, site: str, threshold: int, cooldown_s: float
    ) -> bool:
        """Count one transient failure; ``True`` iff this call tripped
        (or re-tripped a half-open) breaker."""
        now = time.monotonic()
        with self._lock:
            st = self._state.setdefault((backend, site), [0, 0.0])
            st[0] += 1
            if st[0] >= threshold and now >= st[1]:
                st[1] = now + cooldown_s
                self.trips += 1
                return True
            return False

    def record_success(self, backend: str) -> None:
        """A job completed on ``backend``: close all its breakers."""
        with self._lock:
            for (b, _site), st in self._state.items():
                if b == backend:
                    st[0] = 0
                    st[1] = 0.0

    def is_open(self, backend: str, site: str) -> bool:
        with self._lock:
            st = self._state.get((backend, site))
            return st is not None and time.monotonic() < st[1]

    def backend_open(self, backend: str) -> bool:
        """Whether any site breaker of ``backend`` is currently open."""
        now = time.monotonic()
        with self._lock:
            return any(
                now < st[1]
                for (b, _site), st in self._state.items()
                if b == backend
            )

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``"backend/site" -> {consecutive_failures, open}`` plus trips."""
        now = time.monotonic()
        with self._lock:
            return {
                f"{b}/{site}": {
                    "consecutive_failures": int(st[0]),
                    "open": now < st[1],
                }
                for (b, site), st in self._state.items()
            }


class HealthCounters:
    """Per-backend outcome counters (see :data:`HEALTH_KEYS`); thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, dict[str, int]] = {}

    def record(self, backend: str, key: str, n: int = 1) -> None:
        with self._lock:
            per = self._counts.setdefault(backend, dict.fromkeys(HEALTH_KEYS, 0))
            per[key] += n
        # Mirror into the metrics registry at the single authoritative
        # call site, so ``repro_health_total`` reconciles exactly with
        # ``Engine.health()`` (no double counting across serving paths).
        _M_HEALTH.inc(n, backend=backend, outcome=key)

    def snapshot(self) -> dict[str, Any]:
        """``{"total": {...}, "backends": {name: {...}}}``, all keys present."""
        with self._lock:
            backends = {b: dict(per) for b, per in self._counts.items()}
        total = dict.fromkeys(HEALTH_KEYS, 0)
        for per in backends.values():
            for key, n in per.items():
                total[key] += n
        return {"total": total, "backends": backends}


# ---------------------------------------------------------------------------
# Serving backend override.
#
# A fallback re-run must actually run on the fallback backend, but an
# Engine pinned to a backend re-enters ``use_backend(pinned)`` inside every
# call (innermost wins).  The override ContextVar sits *above* the pin:
# ``Engine._scope`` consults it first, so the resilience runner can force
# any job -- pinned engine or not -- onto a chain backend.
# ---------------------------------------------------------------------------

_OVERRIDE: ContextVar[str | None] = ContextVar(
    "repro_serving_override", default=None
)


def serving_override() -> str | None:
    """The serving-path backend override active in this context, if any."""
    return _OVERRIDE.get()


@contextmanager
def serving_backend(name: str) -> Iterator[None]:
    """Force ``name`` as the execution backend for the block, overriding
    any engine pin (see above).  Context-local, like every selection."""
    token = _OVERRIDE.set(name)
    try:
        with use_backend(name):
            yield
    finally:
        _OVERRIDE.reset(token)


def run_job(
    call: Callable[[], Any],
    index: int,
    policy: ServePolicy,
    board: BreakerBoard,
    health: HealthCounters,
    backend_name: str,
    batch_deadline: float | None = None,
    submitted_at: float | None = None,
) -> JobResult:
    """Execute one serving job under ``policy``; never raises (envelopes).

    ``call`` is the zero-argument job body; ``backend_name`` the backend
    the batch was submitted under; ``batch_deadline`` an optional
    ``time.perf_counter`` instant shared by the whole batch; and
    ``submitted_at`` an optional ``time.perf_counter`` submission instant
    used to account queue wait (observed as ``repro_queue_wait_seconds``
    and a ``queue`` child span).  Runs in the caller's context (the
    engine invokes it inside each job's context snapshot).

    Observability: the whole attempt sequence runs under a ``request``
    span -- retries, backoff sleeps, fallbacks, and breaker trips are
    recorded as span events and mirrored into the metrics registry (see
    ``docs/observability.md``); the final status annotates the span and
    lands in the ``repro_request_seconds`` histogram.
    """
    executor = _obs_labels().get("executor", "thread")
    with _obs_span("request", job=index, backend=backend_name,
                   executor=executor) as sp:
        if submitted_at is not None:
            queue_wait = max(0.0, time.perf_counter() - submitted_at)
            _M_QUEUE_WAIT.observe(queue_wait, executor=executor)
            if sp:
                queue = _ObsSpan("queue", duration_s=queue_wait)
                queue.start_unix -= queue_wait
                sp.add_child(queue)
        result = _run_job_attempts(
            call, index, policy, board, health, backend_name,
            batch_deadline, sp,
        )
        sp.annotate(
            status=result.status, attempts=result.attempts,
            retries=result.retries, fallbacks=result.fallbacks,
            backend=result.backend if result.backend else backend_name,
        )
        _M_REQUEST.observe(
            result.latency_s, executor=executor, status=result.status
        )
        return result


def _run_job_attempts(
    call: Callable[[], Any],
    index: int,
    policy: ServePolicy,
    board: BreakerBoard,
    health: HealthCounters,
    backend_name: str,
    batch_deadline: float | None,
    sp,
) -> JobResult:
    """The retry/fallback chain walk behind :func:`run_job` (``sp`` is the
    enclosing request span, or the null span when obs is disabled)."""
    t0 = time.perf_counter()
    deadline = None if policy.job_deadline_s is None else t0 + policy.job_deadline_s
    if batch_deadline is not None:
        deadline = batch_deadline if deadline is None else min(deadline, batch_deadline)

    chain = [backend_name]
    if policy.fallback:
        chain.extend(fallback_chain(backend_name))
    last_error: BaseException | None = None
    last_kind: str | None = None
    last_backend = backend_name
    attempts = retries = fallbacks = 0

    for depth, bname in enumerate(chain):
        if depth + 1 < len(chain) and board.backend_open(bname):
            # A breaker of this backend is open and a deeper fallback
            # exists: skip straight down the chain (the last link always
            # gets an attempt -- degraded beats never-tried).
            continue
        if depth > 0:
            fallbacks += 1
            health.record(bname, "fallbacks")
            sp.event("fallback", to=bname, depth=depth)
        retries_here = 0
        while True:
            attempts += 1
            try:
                with serving_backend(bname), deadline_scope(deadline):
                    value = call()
            except TimeoutError as exc:
                health.record(bname, "timeout")
                return JobResult(
                    index=index, status="timeout", error=exc,
                    error_kind="timeout", attempts=attempts, retries=retries,
                    fallbacks=fallbacks,
                    latency_s=time.perf_counter() - t0, backend=bname,
                )
            except Exception as exc:
                kind = classify(exc)
                last_error, last_kind, last_backend = exc, kind, bname
                if kind == "permanent":
                    # Failure isolation: permanent errors neither retry
                    # nor degrade nor touch the breakers.
                    health.record(bname, "failed")
                    return JobResult(
                        index=index, status="failed", error=exc,
                        error_kind=kind, attempts=attempts, retries=retries,
                        fallbacks=fallbacks,
                        latency_s=time.perf_counter() - t0, backend=bname,
                    )
                site = getattr(exc, "site", "job")
                if board.record_failure(
                    bname, site, policy.breaker_threshold,
                    policy.breaker_cooldown_s,
                ):
                    health.record(bname, "breaker_trips")
                    _M_BREAKER_TRIPS.inc(backend=bname, site=site)
                    sp.event("breaker_trip", backend=bname, site=site)
                if retries_here < policy.max_retries and not board.is_open(
                    bname, site
                ):
                    retries_here += 1
                    retries += 1
                    health.record(bname, "retries")
                    delay = policy.backoff_s(retries_here)
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline - time.perf_counter()))
                    sp.event(
                        "retry", backend=bname, site=site,
                        attempt=retries_here,
                        backoff_ms=round(delay * 1e3, 3),
                    )
                    if delay > 0:
                        _M_BACKOFF.inc(delay, backend=bname)
                        time.sleep(delay)
                    continue
                break  # retries exhausted or breaker open: next backend
            else:
                board.record_success(bname)
                health.record(bname, "ok")
                return JobResult(
                    index=index, status="ok", value=value,
                    attempts=attempts, retries=retries, fallbacks=fallbacks,
                    latency_s=time.perf_counter() - t0, backend=bname,
                )

    health.record(last_backend, "failed")
    return JobResult(
        index=index, status="failed", error=last_error, error_kind=last_kind,
        attempts=attempts, retries=retries, fallbacks=fallbacks,
        latency_s=time.perf_counter() - t0, backend=last_backend,
    )


#: The policy of a batch served without one: raise-first.
_RAISE_FIRST = ServePolicy(max_retries=0, fallback=False)


def run_batch(
    calls: list[Callable[[], Any]],
    policy: ServePolicy | None,
    board: BreakerBoard,
    health: HealthCounters,
    backend_name: str,
    max_workers: int,
) -> list[Any]:
    """Run one serving batch on a thread pool, every job through
    :func:`run_job` in a snapshot of the caller's context.

    With a ``policy`` the result is one :class:`JobResult` per call, in
    submission order; when the batch deadline expires, the jobs not yet
    started are cancelled.  Without one the batch is raise-first: it runs
    under a no-retry, no-fallback policy, the first non-ok envelope in
    submission order cancels every job not yet started and its error is
    re-raised, and otherwise the values come back.  Cancelled jobs count
    in ``health`` like every other outcome.
    """
    serve = _RAISE_FIRST if policy is None else policy
    batch_deadline = (
        None if serve.batch_deadline_s is None
        else time.perf_counter() + serve.batch_deadline_s
    )
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(
                contextvars.copy_context().run, run_job, call, i, serve,
                board, health, backend_name, batch_deadline,
                time.perf_counter(),
            )
            for i, call in enumerate(calls)
        ]
        for i, f in enumerate(futures):
            try:
                result = f.result(
                    None if batch_deadline is None
                    else max(0.0, batch_deadline - time.perf_counter())
                )
            except FuturesTimeout:
                # Jobs already running time out cooperatively through
                # their in-job deadline.
                _cancel_unstarted(futures[i:])
                break
            except BaseException:
                _cancel_unstarted(futures)
                raise
            if policy is None and not result.ok:
                _cancel_unstarted(futures[i + 1:])
                break
    # Leaving the pool waited for every started job.
    results: list[JobResult] = []
    for i, f in enumerate(futures):
        if f.cancelled():
            health.record(backend_name, "cancelled")
            results.append(JobResult(
                index=i, status="cancelled", error_kind="timeout",
            ))
        else:
            results.append(f.result())
    if policy is None:
        return [r.unwrap() for r in results]
    return results


def _cancel_unstarted(futures: list[Future]) -> None:
    """Cancel the jobs no pool thread has taken yet.

    The pool hands out jobs in submission order, so walk back to front
    and stop at the first job already taken: no job is then cancelled
    ahead of a started one.
    """
    for f in reversed(futures):
        if not f.cancel():
            break
