"""Resilience layer: fault injection, classification, policies, breakers.

Every failure path the serving tier claims to handle is driven here by the
deterministic :mod:`repro.engine.faults` schedules -- no monkeypatching of
pipeline internals, the injected failures travel the same seams real ones
would.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import Engine, InvalidGraphError, pandora
from repro.engine.cache import ArtifactCache
from repro.engine.faults import (
    DeadlineExceeded,
    FaultPlan,
    PermanentFault,
    SiteFaults,
    TransientFault,
    deadline_scope,
)
from repro.engine.resilience import (
    BreakerBoard,
    HealthCounters,
    JobResult,
    ServePolicy,
    classify,
    serving_backend,
)
from repro.parallel.backend import fallback_chain
from repro.parallel.workspace import (
    ResourceError,
    Workspace,
    workspace_cap,
    workspace_cap_set,
)

from repro.structures.tree import random_spanning_tree


def random_tree(rng, n_vertices, skew=0.0):
    return random_spanning_tree(n_vertices, rng, skew=skew)


def _problems(rng, n_jobs=6, n=300):
    return [random_tree(rng, n + i, skew=0.4) for i in range(n_jobs)]


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_deterministic_schedule(self):
        def fire_pattern(plan, n=200):
            hits = []
            for k in range(n):
                try:
                    plan.fire("kernel")
                    hits.append(0)
                except TransientFault:
                    hits.append(1)
            return hits

        make = lambda: FaultPlan(
            {"kernel": SiteFaults(p_transient=0.1)}, seed=42
        )
        assert fire_pattern(make()) == fire_pattern(make())

    def test_seed_changes_schedule(self):
        def raised(seed):
            plan = FaultPlan({"kernel": SiteFaults(p_transient=0.1)}, seed=seed)
            count = 0
            for _ in range(300):
                try:
                    plan.fire("kernel")
                except TransientFault:
                    count += 1
            return (count, plan.stats()["raised_total"])

        a, b = raised(0), raised(99)
        assert a[0] == a[1] > 0
        # Same probability, different draw positions (astronomically
        # unlikely to tie on every one of 300 draws AND the same count).
        plan_a = FaultPlan({"kernel": SiteFaults(p_transient=0.1)}, seed=0)
        plan_b = FaultPlan({"kernel": SiteFaults(p_transient=0.1)}, seed=99)
        pattern = []
        for plan in (plan_a, plan_b):
            bits = []
            for _ in range(300):
                try:
                    plan.fire("kernel")
                    bits.append(0)
                except TransientFault:
                    bits.append(1)
            pattern.append(bits)
        assert pattern[0] != pattern[1]

    def test_budget_caps_total_raised(self):
        plan = FaultPlan({"kernel": SiteFaults(p_transient=1.0)}, budget=3)
        raised = 0
        for _ in range(50):
            try:
                plan.fire("kernel")
            except TransientFault:
                raised += 1
        assert raised == 3
        assert plan.stats()["raised_total"] == 3

    def test_max_fires_caps_per_site(self):
        plan = FaultPlan({
            "kernel": SiteFaults(p_transient=1.0, max_fires=2),
            "sort": SiteFaults(p_transient=1.0),
        })
        for site, expect in (("kernel", 2), ("sort", 5)):
            raised = 0
            for _ in range(5):
                try:
                    plan.fire(site)
                except TransientFault:
                    raised += 1
            assert raised == expect

    def test_permanent_kind(self):
        plan = FaultPlan({"sort": SiteFaults(p_permanent=1.0)})
        with pytest.raises(PermanentFault) as ei:
            plan.fire("sort")
        assert ei.value.site == "sort"
        assert ei.value.transient is False

    def test_latency_counts_but_does_not_raise(self):
        plan = FaultPlan({
            "kernel": SiteFaults(p_latency=1.0, latency_s=0.0)
        })
        for _ in range(4):
            plan.fire("kernel")
        assert plan.stats()["latency_fires"] == 4

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault sites"):
            FaultPlan({"gpu": SiteFaults(p_transient=0.5)})

    def test_probability_sum_validated(self):
        with pytest.raises(ValueError, match="sum into"):
            SiteFaults(p_transient=0.8, p_permanent=0.4)

    def test_inactive_plan_is_inert(self, rng):
        """Hooks installed but no plan active: the pipeline is untouched."""
        u, v, w = random_tree(rng, 200)
        d, _ = pandora(u, v, w)
        d.validate()

    def test_active_plan_injects_into_pipeline(self, rng):
        u, v, w = random_tree(rng, 200)
        plan = FaultPlan({"sort": SiteFaults(p_transient=1.0)})
        with plan.active():
            with pytest.raises(TransientFault):
                pandora(u, v, w)
        assert plan.stats()["raised"] == {"sort": 1}


class TestDeadline:
    def test_expired_deadline_raises_in_pipeline(self, rng):
        u, v, w = random_tree(rng, 200)
        with deadline_scope(time.perf_counter() - 1.0):
            with pytest.raises(DeadlineExceeded):
                pandora(u, v, w)

    def test_deadline_exceeded_is_timeout(self):
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_generous_deadline_is_inert(self, rng):
        u, v, w = random_tree(rng, 200)
        with deadline_scope(time.perf_counter() + 60.0):
            d, _ = pandora(u, v, w)
        d.validate()


# ---------------------------------------------------------------------------
# Classification / policy / breaker units
# ---------------------------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize("exc,kind", [
        (TransientFault("kernel"), "transient"),
        (PermanentFault("kernel"), "permanent"),
        (InvalidGraphError("bad"), "permanent"),
        (ResourceError("slot", 8, 0, 4), "transient"),
        (MemoryError("oom"), "transient"),
        (DeadlineExceeded("kernel"), "timeout"),
        (TimeoutError("late"), "timeout"),
        (RuntimeError("unknown"), "permanent"),
        (ValueError("unknown"), "permanent"),
        # IPC seams: a severed pipe/queue means a dead peer process, and
        # the shard supervisor replaces dead peers -- transient, not the
        # unknown->permanent default.
        (BrokenPipeError("pipe severed"), "transient"),
        (ConnectionResetError("peer reset"), "transient"),
        (EOFError("queue closed"), "transient"),
    ])
    def test_buckets(self, exc, kind):
        assert classify(exc) == kind

    def test_ipc_transient_still_yields_to_explicit_attribute(self):
        # Duck typing outranks the isinstance rules: an IPC-shaped error
        # that *declares* itself permanent stays permanent.
        exc = BrokenPipeError("handshake rejected")
        exc.transient = False
        assert classify(exc) == "permanent"


class TestServePolicy:
    def test_defaults_valid(self):
        ServePolicy()

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
        {"breaker_threshold": 0},
        {"job_deadline_s": 0.0},
        {"batch_deadline_s": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServePolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        p = ServePolicy(backoff_base_s=0.01, backoff_factor=2.0,
                        backoff_max_s=0.05, jitter=0.0)
        delays = [p.backoff_s(k) for k in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_bounded(self):
        p = ServePolicy(backoff_base_s=0.01, jitter=0.5)
        for _ in range(50):
            assert 0.005 <= p.backoff_s(1) <= 0.015


class TestBreakerBoard:
    def test_trips_after_consecutive_failures(self):
        board = BreakerBoard()
        assert not board.record_failure("numpy", "kernel", 3, 60.0)
        assert not board.record_failure("numpy", "kernel", 3, 60.0)
        assert board.record_failure("numpy", "kernel", 3, 60.0)
        assert board.is_open("numpy", "kernel")
        assert board.backend_open("numpy")
        assert not board.backend_open("numba")
        assert board.trips == 1

    def test_success_resets(self):
        board = BreakerBoard()
        board.record_failure("numpy", "kernel", 2, 60.0)
        board.record_success("numpy")
        assert not board.record_failure("numpy", "kernel", 2, 60.0)

    def test_half_open_probe(self):
        board = BreakerBoard()
        for _ in range(2):
            board.record_failure("numpy", "sort", 2, 0.01)
        assert board.is_open("numpy", "sort")
        time.sleep(0.02)
        assert not board.is_open("numpy", "sort")  # half-open: probe allowed
        # A failing probe re-trips immediately.
        assert board.record_failure("numpy", "sort", 2, 60.0)
        assert board.is_open("numpy", "sort")

    def test_snapshot_shape(self):
        board = BreakerBoard()
        board.record_failure("numpy", "kernel", 5, 60.0)
        snap = board.snapshot()
        assert snap["numpy/kernel"] == {
            "consecutive_failures": 1, "open": False,
        }


class TestHealthCounters:
    def test_totals_aggregate_backends(self):
        h = HealthCounters()
        h.record("numpy", "ok")
        h.record("numpy", "retries", 3)
        h.record("numba", "ok")
        snap = h.snapshot()
        assert snap["total"]["ok"] == 2
        assert snap["total"]["retries"] == 3
        assert snap["backends"]["numpy"]["retries"] == 3
        # Every key present even when untouched.
        assert snap["backends"]["numba"]["failed"] == 0


class TestFallbackChain:
    def test_chains_end_at_numpy(self):
        assert fallback_chain("numpy") == ()
        assert fallback_chain("numba-python") == ("numpy",)
        # Availability-filtered: with numba missing the JIT links drop out.
        chain = fallback_chain("numba-parallel")
        assert chain[-1] == "numpy"
        assert all(b != "numba-parallel" for b in chain)

    def test_unknown_backend_has_empty_chain(self):
        assert fallback_chain("not-a-backend") == ()


# ---------------------------------------------------------------------------
# Workspace memory-pressure guard
# ---------------------------------------------------------------------------


class TestWorkspaceCap:
    def test_cap_refuses_oversized_take(self):
        ws = Workspace()
        with workspace_cap_set(1024):
            ws.take("a", 64, np.int64)  # 512 bytes: fits
            with pytest.raises(ResourceError) as ei:
                ws.take("b", 1024, np.int64)
        err = ei.value
        assert err.cap == 1024 and err.held == 512
        assert classify(err) == "transient"

    def test_replacement_frees_old_bytes(self):
        ws = Workspace()
        with workspace_cap_set(2048):
            ws.take("a", 128, np.int64)   # 1024 bytes held
            ws.take("a", 256, np.int64)   # replaces: 2048 held, not 3072
            assert ws.bytes_held == 2048

    def test_no_cap_no_guard(self):
        assert workspace_cap() is None
        ws = Workspace()
        ws.take("a", 1 << 16, np.int64)
        assert ws.bytes_held == (1 << 16) * 8

    def test_clear_resets_held(self):
        ws = Workspace()
        ws.take("a", 64, np.int64)
        ws.clear()
        assert ws.bytes_held == 0
        assert ws.stats()["bytes_held"] == 0

    def test_capped_fit_degrades_not_aborts(self, rng):
        """A starved workspace surfaces a classified ResourceError that the
        policy path envelopes instead of killing the batch."""
        u, v, w = random_tree(rng, 500)
        eng = Engine()
        with workspace_cap_set(64):
            results = eng.fit_many(
                [(u, v, w)],
                policy=ServePolicy(max_retries=1, backoff_base_s=0.0,
                                   fallback=False),
            )
        assert results[0].status == "failed"
        assert isinstance(results[0].error, ResourceError)
        assert results[0].retries == 1  # transient: it was retried


# ---------------------------------------------------------------------------
# Cache graceful degradation + stats shape
# ---------------------------------------------------------------------------


class TestCacheDegradation:
    def test_put_fault_serves_uncached(self):
        cache = ArtifactCache(max_entries=4)
        plan = FaultPlan({"cache.put": SiteFaults(p_transient=1.0)})
        with plan.active():
            assert cache.put(("k",), "value") == "value"
        assert len(cache) == 0
        assert cache.stats()["put_faults"] == 1

    def test_evictions_counted(self):
        cache = ArtifactCache(max_entries=2)
        for i in range(5):
            cache.put((i,), i)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 3

    def test_stats_keys(self):
        assert set(ArtifactCache().stats()) == {
            "entries", "hits", "misses", "evictions", "put_faults",
        }

    def test_engine_fit_survives_cache_faults(self, rng):
        """Cache failures are absorbed even on the raise-first path."""
        u, v, w = random_tree(rng, 200)
        eng = Engine()
        plan = FaultPlan({"cache.put": SiteFaults(p_transient=1.0)})
        with plan.active():
            h = eng.fit(u, v, w)
        h.dendrogram.validate()
        assert eng.cache_stats()["put_faults"] == 1
        assert eng.cache_stats()["entries"] == 0


# ---------------------------------------------------------------------------
# Engine serving path
# ---------------------------------------------------------------------------


class TestMapNoPolicy:
    def test_first_failure_cancels_pending(self):
        eng = Engine()
        executed = []

        def job(i):
            executed.append(i)
            if i == 0:
                raise RuntimeError("boom")
            time.sleep(0.002)
            return i

        with pytest.raises(RuntimeError, match="boom"):
            eng.map(job, range(50), max_workers=1)
        # Without cancellation all 50 run to completion; with it the pool
        # stops almost immediately (a started job may slip through).
        assert len(executed) <= 5
        # Every submitted job is accounted exactly once.
        total = eng.health()["total"]
        assert total["failed"] == 1
        assert total["ok"] == len(executed) - 1
        assert total["timeout"] == 0
        assert total["ok"] + total["failed"] + total["cancelled"] == 50

    def test_raise_first_semantics_unchanged(self, rng):
        eng = Engine()
        probs = _problems(rng, 3)
        handles = eng.fit_many(probs, max_workers=2)
        assert all(h.parent is not None for h in handles)


@contextmanager
def _serving_engine(executor):
    """A fresh engine on ``executor``; the process pool is torn down after."""
    eng = Engine(executor=executor, shards=2,
                 pool_options=dict(heartbeat_s=0.02))
    try:
        yield eng
    finally:
        eng.shutdown()


def _totals(**counts):
    return {key: counts.get(key, 0) for key in (
        "ok", "failed", "timeout", "cancelled",
        "retries", "fallbacks", "breaker_trips",
    )}


class TestServing:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_ok_envelopes_match_plain_run(self, rng, executor):
        probs = _problems(rng)
        baseline = Engine().fit_many(probs)
        with _serving_engine(executor) as eng:
            results = eng.fit_many(probs, policy=ServePolicy())
            health = eng.health()
        assert [r.status for r in results] == ["ok"] * len(probs)
        assert [r.index for r in results] == list(range(len(probs)))
        for b, r in zip(baseline, results):
            assert np.array_equal(b.parent, r.value.parent)
            assert r.error is None and r.error_kind is None
            assert r.attempts == 1 and r.retries == 0 and r.fallbacks == 0
            assert r.latency_s > 0
        assert health["total"] == _totals(ok=len(probs))

    def test_acceptance_schedule(self, rng):
        """ISSUE acceptance: p=0.05 transient at kernel/sort/workspace,
        default policy -> every job ok and bit-identical, health accounts
        every retry."""
        probs = _problems(rng, n_jobs=8)
        baseline = Engine().fit_many(probs)
        plan = FaultPlan.transient_everywhere(0.05, seed=7, budget=3)
        eng = Engine()
        with plan.active():
            results = eng.fit_many(probs, max_workers=8,
                                   policy=ServePolicy())
        assert all(r.ok for r in results)
        for b, r in zip(baseline, results):
            assert np.array_equal(b.parent, r.value.parent)
        injected = plan.stats()
        assert injected["raised_total"] > 0, "schedule must actually fire"
        health = eng.health()
        assert health["total"]["ok"] == len(probs)
        assert health["total"]["retries"] == injected["raised_total"]
        assert health["total"]["failed"] == 0

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_permanent_failure_isolated(self, rng, executor):
        probs = _problems(rng, 4)
        u, _v, w = probs[1]
        probs[1] = (u, u, w)  # self-loops: InvalidGraphError
        with _serving_engine(executor) as eng:
            results = eng.fit_many(probs, policy=ServePolicy())
            health = eng.health()
        assert [r.status for r in results] == ["ok", "failed", "ok", "ok"]
        bad = results[1]
        assert type(bad.error) is InvalidGraphError
        assert bad.error_kind == "permanent"
        # Never retried, never degraded.
        assert bad.attempts == 1 and bad.retries == 0 and bad.fallbacks == 0
        with pytest.raises(InvalidGraphError):
            bad.unwrap()
        # Permanent failures never trip a breaker.
        assert health["total"] == _totals(ok=3, failed=1)

    def test_job_deadline_times_out(self, rng):
        probs = _problems(rng, 2)
        plan = FaultPlan({
            "kernel": SiteFaults(p_latency=1.0, latency_s=0.005)
        })
        eng = Engine()
        with plan.active():
            results = eng.fit_many(
                probs, policy=ServePolicy(job_deadline_s=0.02)
            )
        assert [r.status for r in results] == ["timeout", "timeout"]
        assert all(isinstance(r.error, DeadlineExceeded) for r in results)
        assert eng.health()["total"]["timeout"] == 2

    def test_batch_deadline_cancels_pending(self, rng):
        probs = _problems(rng, 8)
        plan = FaultPlan({
            "kernel": SiteFaults(p_latency=1.0, latency_s=0.01)
        })
        eng = Engine()
        with plan.active():
            results = eng.fit_many(
                probs, max_workers=1,
                policy=ServePolicy(batch_deadline_s=0.05),
            )
        statuses = [r.status for r in results]
        assert set(statuses) <= {"timeout", "cancelled"}
        assert "cancelled" in statuses
        assert [r.index for r in results] == list(range(len(probs)))
        health = eng.health()["total"]
        assert health["cancelled"] == statuses.count("cancelled")

    def test_fallback_recovers_job(self, rng):
        """Retries exhausted on the pinned backend -> the job re-runs and
        succeeds on the fallback chain."""
        probs = _problems(rng, 1)
        baseline = Engine().fit_many(probs)
        # Exactly two faults: initial attempt + single retry both fail on
        # numba-python; the numpy re-run sees an exhausted schedule.
        plan = FaultPlan({
            "kernel": SiteFaults(p_transient=1.0, max_fires=2)
        })
        eng = Engine(backend="numba-python")
        with plan.active():
            results = eng.fit_many(
                probs, max_workers=1,
                policy=ServePolicy(max_retries=1, backoff_base_s=0.0,
                                   breaker_threshold=10),
            )
        r = results[0]
        assert r.ok and r.backend == "numpy"
        assert r.fallbacks == 1 and r.attempts == 3
        assert np.array_equal(baseline[0].parent, r.value.parent)
        health = eng.health()
        assert health["backends"]["numpy"]["fallbacks"] == 1
        assert health["backends"]["numba-python"]["retries"] == 1

    def test_open_breaker_skips_backend(self, rng):
        """Once the breaker trips, later jobs go straight to the fallback
        without re-attempting the sick backend."""
        probs = _problems(rng, 3)
        plan = FaultPlan({
            "kernel": SiteFaults(p_transient=1.0, max_fires=2)
        })
        eng = Engine(backend="numba-python")
        policy = ServePolicy(max_retries=1, backoff_base_s=0.0,
                             breaker_threshold=2, breaker_cooldown_s=60.0)
        with plan.active():
            results = eng.fit_many(probs, max_workers=1, policy=policy)
        assert all(r.ok for r in results)
        # Job 0 tripped numba-python/kernel; jobs 1..2 skipped it.
        assert results[0].attempts == 3 and results[0].fallbacks == 1
        for r in results[1:]:
            assert r.backend == "numpy"
            assert r.attempts == 1 and r.fallbacks == 1
        health = eng.health()
        assert health["total"]["breaker_trips"] == 1
        assert health["breakers"]["numba-python/kernel"]["open"]

    def test_serving_override_beats_engine_pin(self):
        eng = Engine(backend="numpy")
        with serving_backend("numba-python"):
            with eng._scope() as b:
                assert b.name == "numba-python"
        with eng._scope() as b:
            assert b.name == "numpy"

    def test_map_policy_with_plain_function(self):
        eng = Engine()
        results = eng.map(lambda x: x * 2, [1, 2, 3], max_workers=2,
                          policy=ServePolicy())
        assert [r.value for r in results] == [2, 4, 6]
        assert all(isinstance(r, JobResult) for r in results)

    def test_empty_batch(self):
        assert Engine().map(lambda x: x, [], policy=ServePolicy()) == []

    def test_unwrap_semantics(self):
        ok = JobResult(index=0, status="ok", value=7)
        assert ok.unwrap() == 7 and ok.ok
        cancelled = JobResult(index=1, status="cancelled")
        with pytest.raises(TimeoutError):
            cancelled.unwrap()

    def test_health_shape(self):
        snap = Engine().health()
        # PR 8 extended the snapshot with process-pool telemetry.
        assert set(snap) == {
            "total", "backends", "breakers", "queue_depth",
            "workers_alive", "respawns", "shed", "degraded", "pool",
        }
        assert snap["total"] == {
            "ok": 0, "failed": 0, "timeout": 0, "cancelled": 0,
            "retries": 0, "fallbacks": 0, "breaker_trips": 0,
        }
        assert snap["pool"] is None and snap["workers_alive"] == 0
