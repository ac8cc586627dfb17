"""Cross-backend spatial parity: bit-identical artifacts and traces.

The spatial vocabulary extends the backend contract to the point-cloud
front-end: whatever backend realizes the kernels (NumPy blocks, fused
sequential numba, prange numba-parallel, or their interpreted twins), the
kd-tree arrays, the :class:`~repro.spatial.emst.KNNArtifact`, the EMST edge
list and the downstream HDBSCAN dendrogram parents must be bit-identical to
the numpy reference -- in both index-dtype regimes -- and the emitted
:class:`~repro.parallel.machine.KernelRecord` traces must match record for
record (fusion is backend-internal).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from backend_fixtures import backend_params, dtype_regime, dtype_regime_params
from repro import pandora
from repro.data import hacc_like, ngsim_like
from repro.hdbscan import hdbscan
from repro.parallel import use_backend
from repro.parallel.machine import CostModel, tracking
from repro.spatial import KDTree, emst, knn_graph
from repro.spatial import kernels as spk


def _cloud(rng, n: int = 400) -> np.ndarray:
    """Adversarial mix: duplicates, collinear runs, two dense blobs."""
    pts = rng.random((n, 2))
    pts[: n // 8] = pts[0]                      # duplicate block
    pts[n // 8: n // 4, 1] = 0.25               # collinear run
    pts[n // 4: n // 2] = pts[n // 4: n // 2] * 0.05 + 2.0   # far blob
    return pts


def _trace(model: CostModel) -> list[tuple]:
    return [(r.name, r.category, r.work, r.phase) for r in model.records]


def _run_spatial(pts: np.ndarray, mpts: int):
    model = CostModel()
    with tracking(model):
        art = knn_graph(pts, 8, leaf_size=32)
        result = emst(pts, mpts=mpts, knn=art)
    return art, result, _trace(model)


@pytest.mark.parametrize("regime", dtype_regime_params())
@pytest.mark.parametrize("backend", backend_params())
class TestSpatialParity:
    def test_tree_arrays_identical(self, backend, regime, rng):
        pts = _cloud(rng)
        with dtype_regime(regime), use_backend("numpy"):
            ref = KDTree.build(pts, leaf_size=16)
        with dtype_regime(regime), use_backend(backend):
            got = KDTree.build(pts, leaf_size=16)
        for field in ("indices", "split_dim", "split_val", "left", "right",
                      "start", "end", "box_lo", "box_hi"):
            r, g = getattr(ref, field), getattr(got, field)
            assert g.dtype == r.dtype, field
            assert np.array_equal(g, r), field

    @pytest.mark.parametrize("mpts", [1, 4])
    def test_knn_artifact_and_emst_identical(self, backend, regime, mpts, rng):
        """Three inputs: the adversarial mixed cloud, a GPS road cloud
        whose well-separated components leave the kNN seed without a
        foreign point, so the finite-bound probe runs, and a 3-D cosmology
        cloud.  kNN arrays, EMST edges, dendrogram parents and kernel
        traces match the reference record for record."""
        for pts, probes in ((_cloud(rng), False),
                            (ngsim_like(500, seed=0), True),
                            (hacc_like(400, seed=0), False)):
            with dtype_regime(regime), use_backend("numpy"):
                ref_art, ref_mst, ref_trace = _run_spatial(pts, mpts)
                ref_dend, _ = pandora(ref_mst.u, ref_mst.v, ref_mst.w,
                                      len(pts))
            if probes:
                assert ref_mst.n_probed > 0
                assert any(r[0] == "emst.probe" for r in ref_trace)
            with dtype_regime(regime), use_backend(backend):
                art, mst, trace = _run_spatial(pts, mpts)
                dend, _ = pandora(mst.u, mst.v, mst.w, len(pts))
            assert art.ids.dtype == ref_art.ids.dtype
            assert np.array_equal(art.dists, ref_art.dists)
            assert np.array_equal(art.ids, ref_art.ids)
            for field in ("u", "v", "w", "core"):
                assert np.array_equal(getattr(mst, field),
                                      getattr(ref_mst, field)), field
            assert mst.n_rounds == ref_mst.n_rounds
            assert mst.n_pair_visits == ref_mst.n_pair_visits
            assert mst.n_probed == ref_mst.n_probed
            assert trace == ref_trace
            assert np.array_equal(dend.parent, ref_dend.parent)

    def test_hdbscan_parents_and_weight_identical(self, backend, regime, rng):
        """The PR acceptance bar: identical dendrogram parents and MST
        total weight across every registered backend."""
        pts = _cloud(rng, n=300)
        with dtype_regime(regime), use_backend("numpy"):
            ref = hdbscan(pts, mpts=4, min_cluster_size=5)
        with dtype_regime(regime), use_backend(backend):
            got = hdbscan(pts, mpts=4, min_cluster_size=5)
        assert np.array_equal(got.dendrogram.parent, ref.dendrogram.parent)
        assert got.mst.w.sum() == ref.mst.w.sum()
        assert np.array_equal(got.labels, ref.labels)


def _leaf_pairs_oracle(tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
                       mutual, bound_d2, offsets,
                       out_comp, out_d2, out_p, out_q) -> None:
    """One ``cdist`` block per pair: the straightforward per-pair loop the
    batched NumPy ``leaf_pairs`` must reproduce slot for slot."""
    pts_perm = tree.points_perm
    indices = tree.indices
    start, end = tree.start, tree.end

    def side(base, s_mine, e_mine, s_opp, e_opp, d2, lb):
        nm = e_mine - s_mine
        comp = labels_perm[s_mine:e_mine]
        bnd = bound_d2[comp]
        cols = np.argmin(d2, axis=1)
        rd2 = d2[np.arange(nm), cols]
        ok = (bnd > lb) & (rd2 < bnd)
        sl = slice(base, base + nm)
        out_d2[sl] = np.inf
        out_d2[sl][ok] = rd2[ok]
        out_comp[sl][ok] = comp[ok]
        out_p[sl][ok] = indices[s_mine:e_mine][ok]
        out_q[sl][ok] = indices[s_opp:e_opp][cols[ok]]

    for t in range(int(leaf_a.size)):
        a, b = int(leaf_a[t]), int(leaf_b[t])
        sa, ea = int(start[a]), int(end[a])
        sb, eb = int(start[b]), int(end[b])
        d2 = cdist(pts_perm[sa:ea], pts_perm[sb:eb], "sqeuclidean")
        if mutual:
            np.maximum(d2, core2_perm[sa:ea, None], out=d2)
            np.maximum(d2, core2_perm[None, sb:eb], out=d2)
        d2[labels_perm[sa:ea, None] == labels_perm[None, sb:eb]] = np.inf
        base = int(offsets[t])
        side(base, sa, ea, sb, eb, d2, pair_lb[t])
        side(base + (ea - sa), sb, eb, sa, ea, d2.T, pair_lb[t])


def _kernel_inputs(rng) -> list:
    return [_cloud(rng), ngsim_like(500, seed=0), hacc_like(400, seed=0)]


class TestNumpyKernels:
    """The batched NumPy realizations against a per-pair oracle, and
    against themselves at the smallest scratch budgets."""

    @pytest.mark.parametrize("mpts", [1, 4])
    def test_leaf_pairs_matches_per_pair_oracle(self, mpts, rng, monkeypatch):
        """Every traversal level of real EMST runs, replayed through the
        oracle: same finite slots, same d2 bits, same (comp, p, q)."""
        real = spk.leaf_pairs
        seen = {"levels": 0, "hits": 0}

        def checked(tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
                    mutual, bound_d2, offsets, out_comp, out_d2, out_p,
                    out_q):
            total = int(out_d2.size)
            want = (np.zeros(total, np.int64), np.zeros(total),
                    np.zeros(total, np.int64), np.zeros(total, np.int64))
            _leaf_pairs_oracle(tree, leaf_a, leaf_b, pair_lb, labels_perm,
                               core2_perm, mutual, bound_d2, offsets, *want)
            real(tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
                 mutual, bound_d2, offsets, out_comp, out_d2, out_p, out_q)
            used = np.zeros(total, dtype=bool)
            sizes = (tree.end[leaf_a] - tree.start[leaf_a]
                     + tree.end[leaf_b] - tree.start[leaf_b])
            for base, size in zip(offsets, sizes):
                used[base: base + size] = True
            w_comp, w_d2, w_p, w_q = want
            hit = np.isfinite(w_d2) & used
            assert np.array_equal(np.isfinite(out_d2) & used, hit)
            assert np.array_equal(out_d2[hit].view(np.uint64),
                                  w_d2[hit].view(np.uint64))
            assert np.array_equal(out_comp[hit], w_comp[hit])
            assert np.array_equal(out_p[hit], w_p[hit])
            assert np.array_equal(out_q[hit], w_q[hit])
            seen["levels"] += 1
            seen["hits"] += int(hit.sum())

        monkeypatch.setattr(spk, "leaf_pairs", checked)
        for pts in _kernel_inputs(rng):
            with use_backend("numpy"):
                _run_spatial(pts, mpts)
        assert seen["levels"] > 10 and seen["hits"] > 100

    def test_minimum_budgets_identical(self, rng, monkeypatch):
        """One pair or query per chunk and one row per block change
        nothing: kNN artifact, EMST edges and counters, kernel trace and
        dendrogram parents all equal a default-budget run."""
        for pts in _kernel_inputs(rng)[:2]:
            runs = []
            for budgets in ({}, {"_PAIR_CHUNK_SLOTS": 1, "_QUERY_CHUNK": 1,
                                 "_BLOCK_ENTRIES": 1}):
                with monkeypatch.context() as mp:
                    for name, value in budgets.items():
                        mp.setattr(spk, name, value)
                    with use_backend("numpy"):
                        art, mst, trace = _run_spatial(pts, 4)
                        dend, _ = pandora(mst.u, mst.v, mst.w, len(pts))
                runs.append((art, mst, trace, dend))
            (ref_art, ref_mst, ref_trace, ref_dend), (art, mst, trace, dend) = runs
            assert np.array_equal(art.dists, ref_art.dists)
            assert np.array_equal(art.ids, ref_art.ids)
            for field in ("u", "v", "w", "core"):
                assert np.array_equal(getattr(mst, field),
                                      getattr(ref_mst, field)), field
            assert mst.n_pair_visits == ref_mst.n_pair_visits
            assert trace == ref_trace
            assert np.array_equal(dend.parent, ref_dend.parent)

    @pytest.mark.parametrize("k, leaf_size", [(64, 96), (8, 8)])
    def test_knn_leaves_smaller_than_k(self, k, leaf_size, rng, monkeypatch):
        """Leaves can hold fewer than ``k`` points (a split child holds as
        few as ``ceil((leaf_size + 1) / 2)``).  Every query still starts
        its walk from a finite bound, its anchor's, so the answer is the
        brute-force one and the distance work stays a small multiple of
        ``n * k`` rather than ``n ** 2``."""
        small = rng.random((2000, 2))
        with use_backend("numpy"):
            art = knn_graph(small, k, leaf_size=leaf_size)
        d2 = cdist(small, small, "sqeuclidean")
        ids = np.broadcast_to(np.arange(small.shape[0]), d2.shape)
        order = np.lexsort((ids, d2))[:, :k]
        assert np.array_equal(art.ids, order)
        assert np.array_equal(art.dists,
                              np.sqrt(np.take_along_axis(d2, order, axis=1)))

        real = spk._row_sq_dist
        work = {"entries": 0}

        def counted(xs, seg_cols, rs, d2, tmp):
            work["entries"] += d2.size
            real(xs, seg_cols, rs, d2, tmp)

        monkeypatch.setattr(spk, "_row_sq_dist", counted)
        n = 8000
        with use_backend("numpy"):
            knn_graph(rng.random((n, 2)), k, leaf_size=leaf_size)
        assert 0 < work["entries"] <= 10 * n * k
