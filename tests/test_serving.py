"""Serving parallelism: the ``releases_gil`` capability and its payoff.

The serving-parallelism contract (ROADMAP "Serving parallelism"): a backend
declares ``releases_gil`` when its kernels drop the GIL, the engine keys
its default pool width on the flag, and -- the point of the contract -- the
``numba-parallel`` backend's ``fit_many`` throughput actually scales with
workers on a multi-core machine.  The scaling gate is a smoke-scale version
of ``benchmarks/bench_serving.py``'s full-size acceptance bar, wired into
the engine CI job (numba + 4 cores there); it skips gracefully where numba
or the cores are missing.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import Engine, pandora
from repro.engine.engine import DendrogramHandle
from repro.parallel import get_backend, use_backend
from repro.parallel.backend import NumpyBackend
from repro.parallel.backend_numba import NumbaBackend, numba_available
from repro.parallel.backend_numba_parallel import NumbaParallelBackend
from repro.structures.tree import random_spanning_tree

#: Smoke-scale gate: 4 workers must beat 1 by this much on numba-parallel
#: (the full-size bench gates >= 2x; smoke stays modest because per-job JIT
#: kernels are short at this size).
SMOKE_GATE = 1.3
SMOKE_EDGES = 60_000
SMOKE_JOBS = 8


def _problems(n_jobs: int, n_edges: int) -> list[tuple]:
    out = []
    for i in range(n_jobs):
        rng = np.random.default_rng(7000 + i)
        out.append(random_spanning_tree(n_edges + 1, rng, skew=0.3))
    return out


# ---------------------------------------------------------------------------
# Capability flag
# ---------------------------------------------------------------------------


class TestReleasesGil:
    def test_gil_holding_backends(self):
        assert NumpyBackend.releases_gil is False
        assert NumbaBackend(jit=False).releases_gil is False
        assert NumbaParallelBackend(jit=False).releases_gil is False

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    def test_numba_parallel_releases_gil(self):
        with use_backend("numba-parallel") as b:
            assert b.releases_gil is True
        # the plain JIT backend's kernels are compiled without nogil
        with use_backend("numba") as b:
            assert b.releases_gil is False

    def test_devices_cli_reports_gil_capability(self, capsys):
        from repro.__main__ import main

        assert main(["devices", "--n", "10000"]) == 0
        out = capsys.readouterr().out
        assert "gil" in out
        assert "holds" in out
        assert "numba-parallel" in out


# ---------------------------------------------------------------------------
# Engine default-worker heuristic
# ---------------------------------------------------------------------------


class TestDefaultWorkers:
    def test_keyed_on_releases_gil(self, monkeypatch):
        import repro.engine.engine as mod

        gil_free = NumpyBackend()
        gil_free.releases_gil = True
        holding = NumpyBackend()

        monkeypatch.setattr(mod.os, "cpu_count", lambda: 16)
        assert Engine.default_workers(gil_free) == 16
        assert Engine.default_workers(holding) == 4
        monkeypatch.setattr(mod.os, "cpu_count", lambda: 2)
        assert Engine.default_workers(gil_free) == 2
        assert Engine.default_workers(holding) == 2
        monkeypatch.setattr(mod.os, "cpu_count", lambda: None)
        assert Engine.default_workers(gil_free) == 1
        assert Engine.default_workers(holding) == 1
        monkeypatch.setattr(mod.os, "cpu_count", lambda: 64)
        assert Engine.default_workers(gil_free) == 32  # capped

    def test_map_applies_heuristic_to_engine_backend(self, monkeypatch):
        import repro.engine.engine as mod
        import repro.engine.resilience as batch_mod

        seen = {}
        real_pool = batch_mod.ThreadPoolExecutor

        class SpyPool(real_pool):
            def __init__(self, max_workers=None):
                seen["workers"] = max_workers
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(batch_mod, "ThreadPoolExecutor", SpyPool)
        monkeypatch.setattr(mod.os, "cpu_count", lambda: 8)
        Engine().map(lambda x: x, range(3))
        assert seen["workers"] == 4  # numpy holds the GIL: small pool
        Engine().map(lambda x: x, range(3), max_workers=2)
        assert seen["workers"] == 2  # explicit always wins


# ---------------------------------------------------------------------------
# Serving correctness on the new backend (interpreted parity twin: always on)
# ---------------------------------------------------------------------------


class TestServingParity:
    def test_fit_many_on_parallel_python_matches_serial(self):
        problems = _problems(4, 300)
        serial = [pandora(u, v, w)[0].parent for u, v, w in problems]
        with use_backend("numba-parallel-python"):
            handles = Engine().fit_many(problems, max_workers=4)
        for i, (ref, handle) in enumerate(zip(serial, handles)):
            assert isinstance(handle, DendrogramHandle)
            assert np.array_equal(handle.parent, ref), f"job {i}"

    def test_engine_pinned_to_parallel_python(self):
        u, v, w = _problems(1, 400)[0]
        ref, _ = pandora(u, v, w)
        handle = Engine(backend="numba-parallel-python").fit(u, v, w)
        assert np.array_equal(handle.parent, ref.parent)
        assert get_backend().name == "numpy"  # pin did not leak


# ---------------------------------------------------------------------------
# The scaling gate (smoke-scale bench_serving acceptance bar)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="scaling gate needs >= 4 cores")
def test_fit_many_scaling_on_numba_parallel():
    problems = _problems(SMOKE_JOBS, SMOKE_EDGES)
    with use_backend("numba-parallel") as backend:
        backend.warmup()
        serial = [pandora(u, v, w)[0].parent for u, v, w in problems]

        def throughput(workers: int) -> float:
            best = 0.0
            for _ in range(3):
                # Fresh engine per run: time the fits, not the content cache.
                engine = Engine(cache_entries=2 * SMOKE_JOBS)
                t0 = time.perf_counter()
                handles = engine.fit_many(problems, max_workers=workers)
                best = max(best, SMOKE_JOBS / (time.perf_counter() - t0))
                for i, (ref, handle) in enumerate(zip(serial, handles)):
                    assert np.array_equal(handle.parent, ref), f"job {i}"
            return best

        throughput(4)  # warm every pool thread's JIT/workspace state
        t1 = throughput(1)
        t4 = throughput(4)
    ratio = t4 / t1
    assert ratio >= SMOKE_GATE, (
        f"fit_many at 4 workers only {ratio:.2f}x the 1-worker rate "
        f"(gate {SMOKE_GATE}x; jobs={SMOKE_JOBS}, edges={SMOKE_EDGES})"
    )
