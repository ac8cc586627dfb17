"""Euclidean / mutual-reachability MST via dual-tree Boruvka.

This is the reproduction of the paper's EMST substrate (ArborX's
tree-accelerated Boruvka [39]): each Boruvka round finds, for every
component, its closest *foreign* point pair, using the kd-tree to prune
interactions.  Every round sub-step is a bulk kernel routed through the
spatial vocabulary of :class:`repro.parallel.backend.Backend`, so the whole
front-end JIT-fuses and releases the GIL on the numba backends.

Round structure:

1. **Seed** -- one batched scan of the precomputed kNN table
   (:func:`~repro.parallel.primitives.spatial_seed_scan`) finds each point's
   nearest neighbor outside its component; this initializes per-component
   candidate upper bounds (in early rounds the kNN list almost always
   contains the true answer, so the tree traversal only verifies).
   **Probe** -- a component whose kNN lists hold no foreign point (a
   well-separated cluster, the normal case on GPS roads) would keep an
   infinite bound, which prunes nothing.  In rounds where one exists,
   :func:`_probe` takes every label boundary of the tree order -- a real
   pair of neighbouring points in different components -- as a candidate
   for its infinite-bound sides, so every component enters the traversal
   with a finite bound.  Rounds without one skip the probe.
2. **Aggregate** -- per tree node, bottom-up
   (:func:`~repro.parallel.primitives.spatial_node_reduce`): the single
   component id beneath it (or -1 if mixed) and a pruning bound (max over
   contained components' candidate distances).
3. **Traverse** -- level-synchronous over node pairs: lower bounds,
   same-component tests and bound pruning are single vectorized passes over
   the whole frontier, and *all* surviving leaf-leaf interactions of a level
   run as one batched kernel
   (:func:`~repro.parallel.primitives.spatial_leaf_pairs`) against bounds
   frozen at the level start -- every pair is independent, which is what
   makes the kernel embarrassingly parallel yet bit-deterministic.  Inside
   the NumPy kernel a point whose squared distance to the opposite leaf's box
   (lifted by its own core distance) already reaches its component's
   frozen bound is skipped; the box distance is accumulated in the same
   coordinate order as the point distances, and IEEE subtraction,
   squaring and addition are monotone, so the skip is exact.  The
   improvements found by the batch tighten the bounds before the next level
   is filtered.
4. **Contract** -- every component's best pair becomes an MST edge.  A
   cycle guard drops redundant picks: under mutual reachability, exact
   weight ties are common (the same core distance can dominate several
   pairs), and two components may legitimately nominate *different*
   equal-weight edges between the same component pair.  The guard ranks the
   round's candidate edges by the strict total order (weight, lo, hi) and
   keeps exactly the edges sequential Kruskal would -- computed by a
   vectorized priority-Boruvka loop (:func:`_forest_guard`) instead of a
   Python union-find walk.

Exactness: pruning only discards pairs provably unable to improve any
component's candidate (frozen bounds only ever over-estimate), and candidate
resolution takes the global minimum per component, so each round adds
exactly the Boruvka edges of the full metric graph.  Seed and probe pairs
are real foreign pairs that also enter the candidate pool, so the bounds
they set are legal upper bounds; probe distances accumulate in the same
coordinate order as the leaf kernels, so a pair weighs the same whichever
step finds it.  Pruning and the leaf kernels keep only *strict*
improvements on a bound, so an exact-weight tie goes to the equal pair the
seed, the probe or an earlier traversal level found first: deterministic
and identical on every backend, but not necessarily the ``(w², lo, hi)``
minimum.  The total weight is the same either way.  Tests verify against
dense-matrix MSTs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.backend import get_backend
from ..parallel.connected import connected_components
from ..parallel.machine import emit
from ..parallel.primitives import (
    scatter_min_at,
    spatial_leaf_pairs,
    spatial_node_reduce,
    spatial_seed_scan,
)
from ..parallel.workspace import index_dtype
from .kdtree import KDTree

__all__ = ["EMSTResult", "KNNArtifact", "emst", "core_distances", "knn_graph"]


@dataclass(frozen=True)
class KNNArtifact:
    """Reusable spatial-search products: kd-tree plus a kNN table.

    The engine's batched multi-``mpts`` HDBSCAN computes this once with
    ``k = max`` over the batch and hands it to every :func:`emst` call;
    because kNN rows are sorted ascending, slicing the first ``k'`` columns
    reproduces a direct ``k'``-column query bit-for-bit (ties aside), so
    sharing the artifact leaves each per-``mpts`` result identical to an
    unshared run.  The arrays are bit-identical across all registered
    backends (``ids`` carries the tree's adaptive index dtype).  Treat all
    fields as immutable.
    """

    tree: KDTree
    dists: np.ndarray        # (n, k) distances, rows ascending
    ids: np.ndarray          # (n, k) neighbor ids, tree index dtype

    @property
    def n_points(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])


def knn_graph(
    points: np.ndarray, k: int, leaf_size: int = 96, tree: KDTree | None = None
) -> KNNArtifact:
    """Build the shared kNN artifact: kd-tree + ``k``-column self-query.

    Parameters
    ----------
    points:
        ``(n, d)`` float array.
    k:
        Neighbor columns to retain (clamped to ``n``); rows come back
        sorted ascending, so slicing the first ``k'`` columns reproduces
        a direct ``k'``-column query.
    leaf_size:
        kd-tree leaf size; ignored when ``tree`` is supplied.
    tree:
        Optional prebuilt :class:`~repro.spatial.kdtree.KDTree` over the
        same points; skips the tree build.

    Returns
    -------
    KNNArtifact
        The tree plus ``(n, k)`` neighbor distances and ids, bit-identical
        across all registered backends.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if tree is None:
        tree = KDTree.build(points, leaf_size=leaf_size)
    k = min(k, tree.n_points)
    dists, ids = tree.query_knn(points, k)
    return KNNArtifact(tree=tree, dists=dists, ids=ids)


@dataclass
class EMSTResult:
    """MST edges plus run diagnostics."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray            # metric distances (Euclidean or mutual reach.)
    core: np.ndarray         # core distances used (zeros for mpts == 1)
    n_rounds: int
    n_pair_visits: int       # node pairs examined across all rounds
    n_probed: int = 0        # component-rounds whose seed bound was infinite

    @property
    def n_edges(self) -> int:
        return int(self.u.size)


def core_distances(
    points: np.ndarray, mpts: int, tree: KDTree | None = None, k_extra: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Core distance of each point plus its kNN lists.

    ``core(p)`` is the distance to the ``mpts``-th nearest neighbor counting
    p itself (HDBSCAN* convention), i.e. column ``mpts - 1`` of a self-query.
    Returns ``(core, knn_dists, knn_ids)`` with ``mpts + k_extra`` columns
    (the extra columns improve Boruvka seeding).
    """
    if mpts < 1:
        raise ValueError(f"mpts must be >= 1, got {mpts}")
    if tree is None:
        tree = KDTree.build(points)
    k = min(mpts + k_extra, tree.n_points)
    dists, ids = tree.query_knn(points, k)
    # clamp mpts to the available neighbor count (tiny inputs): the core
    # distance degrades to the farthest available neighbor
    col = min(mpts, tree.n_points) - 1
    core = dists[:, col] if col > 0 else np.zeros(points.shape[0])
    return core, dists, ids


def emst(
    points: np.ndarray,
    mpts: int = 1,
    leaf_size: int = 96,
    seed_k: int = 8,
    knn: KNNArtifact | None = None,
) -> EMSTResult:
    """Exact MST of a point cloud under Euclidean or mutual reachability.

    Parameters
    ----------
    points:
        ``(n, d)`` float array.
    mpts:
        HDBSCAN* core-distance parameter; 1 = plain Euclidean EMST.
    leaf_size:
        kd-tree leaf size (larger favours block work over traversal).
    seed_k:
        Number of kNN columns retained for candidate seeding (at least
        ``mpts``).
    knn:
        Optional precomputed :class:`KNNArtifact` over the *same* points
        (same ``leaf_size``) with at least ``max(mpts, min(seed_k, n))``
        columns.  Skips the kd-tree build and the kNN self-query -- the
        engine's batched multi-``mpts`` path shares one artifact across the
        batch; the columns actually used are sliced to exactly what an
        unshared run would compute.

    Returns
    -------
    :class:`EMSTResult` with ``n - 1`` edges for ``n >= 1`` points.

    Raises
    ------
    ValueError
        If ``points`` is empty, or a supplied ``knn`` artifact covers a
        different point count or has fewer columns than this call needs.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    if n == 1:
        z = np.zeros(0)
        return EMSTResult(z.astype(np.int64), z.astype(np.int64), z,
                          np.zeros(1), 0, 0)

    k_seed = max(mpts, min(seed_k, n))
    if knn is None:
        tree = KDTree.build(points, leaf_size=leaf_size)
        core, knn_d, knn_i = core_distances(
            points, mpts, tree, k_extra=k_seed - mpts
        )
    else:
        if knn.n_points != n:
            raise ValueError(
                f"knn artifact covers {knn.n_points} points, need {n}"
            )
        k_use = min(k_seed, n)
        if knn.k < k_use:
            raise ValueError(
                f"knn artifact has {knn.k} columns, need >= {k_use}"
            )
        tree = knn.tree
        knn_d = knn.dists[:, :k_use]
        knn_i = knn.ids[:, :k_use]
        col = min(mpts, n) - 1
        core = knn.dists[:, col] if col > 0 else np.zeros(n)
    mutual = mpts > 1
    core2 = core * core
    knn_d2 = knn_d * knn_d

    # Tree-order views used by leaf interactions and per-node aggregates.
    core2_perm = core2[tree.indices]
    node_min_core2 = (
        spatial_node_reduce(tree, core2_perm, "min") if mutual else None
    )

    labels = np.arange(n, dtype=index_dtype(n))
    bk = get_backend()
    seed_d2 = bk.take("emst.seed_d2", n, np.float64)
    seed_q = bk.take("emst.seed_q", n, np.int64)
    rows = np.arange(n, dtype=np.int64)

    mst_u: list[np.ndarray] = []
    mst_v: list[np.ndarray] = []
    mst_w2: list[np.ndarray] = []
    n_rounds = 0
    n_pair_visits = 0
    n_probed = 0
    n_comp = n

    while n_comp > 1:
        n_rounds += 1
        best_d2 = np.full(n, np.inf)  # indexed by component representative
        cand = _Candidates()

        spatial_seed_scan(
            labels, knn_i, knn_d2, core2, mutual, seed_d2, seed_q
        )
        ok = seed_q[:n] >= 0
        if ok.any():
            p = rows[ok]
            comp = labels[p].astype(np.int64)
            cand.add(comp, seed_d2[:n][ok], p, seed_q[:n][ok])
            np.minimum.at(best_d2, comp, seed_d2[:n][ok])

        labels_perm = labels[tree.indices]
        unbounded = np.isinf(best_d2[labels_perm])
        if unbounded.any():
            n_probed += int(np.unique(labels_perm[unbounded]).size)
            _probe(tree, labels_perm, unbounded, core2_perm, mutual,
                   best_d2, cand)

        node_lo = spatial_node_reduce(tree, labels_perm, "min")
        node_hi = spatial_node_reduce(tree, labels_perm, "max")
        node_comp = np.where(node_lo == node_hi, node_lo, -1).astype(np.int64)
        node_bound2 = spatial_node_reduce(tree, best_d2[labels_perm], "max")

        n_pair_visits += _traverse(
            tree, labels_perm, core2_perm, mutual, best_d2, cand,
            node_comp, node_bound2, node_min_core2,
        )

        cu, cv, cw2 = _resolve_candidates(n, cand)
        if cu.size == 0:
            raise AssertionError(
                "Boruvka round found no edges on a multi-component input"
            )
        # Cycle guard (see module docstring): keep only merging picks, in
        # deterministic (weight, endpoints) order.
        keep = _forest_guard(
            n, labels[cu].astype(np.int64), labels[cv].astype(np.int64)
        )
        added = int(np.count_nonzero(keep))
        if added == 0:
            raise AssertionError("cycle guard rejected every candidate edge")
        mst_u.append(cu[keep])
        mst_v.append(cv[keep])
        mst_w2.append(cw2[keep])
        merged = connected_components(
            n, np.stack([labels[cu[keep]], labels[cv[keep]]], axis=1)
        )
        labels = merged[labels].astype(labels.dtype, copy=False)
        emit("emst.compose_labels", "gather", n)
        n_comp -= added

    u = np.concatenate(mst_u).astype(np.int64)
    v = np.concatenate(mst_v).astype(np.int64)
    w = np.sqrt(np.concatenate(mst_w2))
    return EMSTResult(u, v, w, core, n_rounds, n_pair_visits, n_probed)


# --------------------------------------------------------------------------
# Round sub-steps
# --------------------------------------------------------------------------


class _Candidates:
    """Per-round candidate pool: (component, d2, p, q) quadruples."""

    __slots__ = ("comps", "d2s", "ps", "qs")

    def __init__(self) -> None:
        self.comps: list[np.ndarray] = []
        self.d2s: list[np.ndarray] = []
        self.ps: list[np.ndarray] = []
        self.qs: list[np.ndarray] = []

    def add(self, comp, d2, p, q) -> None:
        self.comps.append(np.asarray(comp, dtype=np.int64))
        self.d2s.append(np.asarray(d2, dtype=np.float64))
        self.ps.append(np.asarray(p, dtype=np.int64))
        self.qs.append(np.asarray(q, dtype=np.int64))


def _probe(
    tree: KDTree,
    labels_perm: np.ndarray,
    unbounded: np.ndarray,
    core2_perm: np.ndarray,
    mutual: bool,
    best_d2: np.ndarray,
    cand: _Candidates,
) -> None:
    """Finite-bound probe: give every infinite-bound component a real pair.

    ``unbounded`` flags the tree positions whose component has an infinite
    bound.  Every position ``i`` where the tree-order labels change is a
    foreign pair ``(indices[i], indices[i + 1])`` -- usually a spatially
    close one, since tree order is a spatial order.  Each such pair with
    an unbounded side becomes a candidate for that side and tightens its
    bound.  Every component owns at least one label boundary once two
    components exist, so none enters the traversal unbounded.  Squared
    distances accumulate in coordinate order, as the leaf kernels of every
    backend do, so a pair's weight is bit-identical whichever step finds
    it.
    """
    emit("emst.probe", "map", int(labels_perm.size) - 1)
    i = np.nonzero(
        (labels_perm[:-1] != labels_perm[1:])
        & (unbounded[:-1] | unbounded[1:])
    )[0]
    j = i + 1
    diff = tree.points_perm[i] - tree.points_perm[j]
    d2 = diff[:, 0] * diff[:, 0]
    for k in range(1, diff.shape[1]):
        d2 += diff[:, k] * diff[:, k]
    if mutual:
        np.maximum(d2, core2_perm[i], out=d2)
        np.maximum(d2, core2_perm[j], out=d2)
    sa = unbounded[i]
    sb = unbounded[j]
    comp = np.concatenate([labels_perm[i][sa], labels_perm[j][sb]])
    d2 = np.concatenate([d2[sa], d2[sb]])
    p = tree.indices
    cand.add(comp, d2, np.concatenate([p[i][sa], p[j][sb]]),
             np.concatenate([p[j][sa], p[i][sb]]))
    scatter_min_at(best_d2, comp, d2, name=None)


def _traverse(
    tree: KDTree,
    labels_perm: np.ndarray,
    core2_perm: np.ndarray,
    mutual: bool,
    best_d2: np.ndarray,
    cand: _Candidates,
    node_comp: np.ndarray,
    node_bound2: np.ndarray,
    node_min_core2: np.ndarray | None,
) -> int:
    """Level-synchronous dual-tree traversal; returns the pair-visit count.

    The frontier of candidate node pairs is processed in bulk: lower bounds,
    same-component tests and bound pruning are single vectorized passes over
    the whole frontier (the GPU-natural formulation).  All surviving
    leaf-leaf pairs of a level run as ONE batched backend kernel against
    bounds frozen at the level start; their improvements tighten ``best_d2``
    before the next level is filtered.
    """
    box_lo, box_hi = tree.box_lo, tree.box_hi
    start, end, left, right = tree.start, tree.end, tree.left, tree.right
    n_pts = end - start
    n_nodes = tree.n_nodes
    bk = get_backend()

    def lower_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        delta = np.maximum(box_lo[a] - box_hi[b], 0.0)
        delta += np.maximum(box_lo[b] - box_hi[a], 0.0)
        lb = np.einsum("ij,ij->i", delta, delta)
        if mutual:
            np.maximum(lb, node_min_core2[a], out=lb)
            np.maximum(lb, node_min_core2[b], out=lb)
        emit("emst.pair_bounds", "map", int(a.size))
        return lb

    def prune(
        a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drop same-component and bound-hopeless pairs (vectorized)."""
        ca = node_comp[a]
        cb = node_comp[b]
        alive = (ca < 0) | (ca != cb)
        if alive.any():
            lb = lower_bounds(a[alive], b[alive])
            bound_a = np.where(
                ca[alive] >= 0, best_d2[ca[alive]], node_bound2[a[alive]]
            )
            bound_b = np.where(
                cb[alive] >= 0, best_d2[cb[alive]], node_bound2[b[alive]]
            )
            ok = lb < np.maximum(bound_a, bound_b)
            sel = np.nonzero(alive)[0][ok]
            emit("emst.pair_prune", "map", int(a.size))
            return a[sel], b[sel], lb[ok]
        return a[:0], b[:0], np.zeros(0)

    visits = 0
    fa = np.zeros(1, dtype=np.int64)
    fb = np.zeros(1, dtype=np.int64)
    while fa.size:
        visits += int(fa.size)
        fa, fb, flb = prune(fa, fb)
        if fa.size == 0:
            break
        a_leaf = left[fa] == -1
        b_leaf = left[fb] == -1
        both_leaf = a_leaf & b_leaf

        # Batched leaf-leaf interactions: one kernel over the whole level,
        # per-point / per-pair slots compacted into the candidate pool.
        la = fa[both_leaf]
        lb_ = fb[both_leaf]
        if la.size:
            sizes = (n_pts[la] + n_pts[lb_]).astype(np.int64)
            offsets = np.cumsum(sizes) - sizes
            total = int(sizes.sum())
            out_comp = bk.take("emst.cand_comp", total, np.int64)
            out_d2 = bk.take("emst.cand_d2", total, np.float64)
            out_p = bk.take("emst.cand_p", total, np.int64)
            out_q = bk.take("emst.cand_q", total, np.int64)
            spatial_leaf_pairs(
                tree, la, lb_, flb[both_leaf], labels_perm, core2_perm,
                mutual, best_d2, offsets, out_comp, out_d2, out_p, out_q,
            )
            hit = np.isfinite(out_d2[:total])
            if hit.any():
                cand.add(out_comp[:total][hit], out_d2[:total][hit],
                         out_p[:total][hit], out_q[:total][hit])
                scatter_min_at(
                    best_d2, out_comp[:total][hit], out_d2[:total][hit],
                    name=None,
                )

        # Expand the remaining pairs: split the side with more points.
        ra = fa[~both_leaf]
        rb = fb[~both_leaf]
        if ra.size == 0:
            break
        expand_a = (left[ra] != -1) & (
            (left[rb] == -1) | (n_pts[ra] >= n_pts[rb])
        )
        ea, eb = ra[expand_a], rb[expand_a]
        sa, sb = ra[~expand_a], rb[~expand_a]
        fa_next = np.concatenate([left[ea], right[ea], sa, sa]).astype(np.int64)
        fb_next = np.concatenate([eb, eb, left[sb], right[sb]]).astype(np.int64)
        # Canonical order + dedup (symmetric interaction).
        lo = np.minimum(fa_next, fb_next)
        hi = np.maximum(fa_next, fb_next)
        key = lo * np.int64(n_nodes) + hi
        uniq = np.unique(key)
        emit("emst.frontier_dedup", "sort", int(key.size))
        fa = (uniq // n_nodes).astype(np.int64)
        fb = (uniq % n_nodes).astype(np.int64)
    return visits


def _forest_guard(n: int, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Vectorized Kruskal-equivalent cycle guard over component edges.

    ``(cu, cv)`` are the candidate edges' component labels, already in the
    round's strict total order (weight, lo, hi) -- so array position is a
    distinct priority and the minimum spanning forest over components is
    *unique*.  Priority-Boruvka therefore keeps exactly the edges a
    sequential union-find walk in that order would: each iteration picks,
    for every current component, its minimum-priority alive edge (an
    ``atomicMin`` scatter), contracts, and repeats until no alive
    cross-component edge remains.
    """
    m = int(cu.size)
    keep = np.zeros(m, dtype=bool)
    prio = np.arange(m, dtype=np.int64)
    a = cu.copy()
    b = cv.copy()
    while True:
        alive = a != b
        if not alive.any():
            break
        best = np.full(n, m, dtype=np.int64)
        np.minimum.at(best, a[alive], prio[alive])
        np.minimum.at(best, b[alive], prio[alive])
        pick = alive & ((best[a] == prio) | (best[b] == prio))
        keep |= pick
        emit("emst.guard", "scatter", int(np.count_nonzero(alive)))
        merged = connected_components(
            n, np.stack([a[pick], b[pick]], axis=1)
        )
        a = merged[a]
        b = merged[b]
    return keep


def _resolve_candidates(
    n: int, cand: _Candidates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global per-component minimum over the round's candidate pool,
    deduplicated into undirected edges, in deterministic order."""
    if not cand.comps:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    comp = np.concatenate(cand.comps)
    d2 = np.concatenate(cand.d2s)
    p = np.concatenate(cand.ps)
    q = np.concatenate(cand.qs)
    # Canonical undirected endpoints so equal-weight ties resolve identically
    # from both sides whenever the same pair is seen by both components.
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    order = np.lexsort((hi, lo, d2, comp))
    emit("emst.resolve_sort", "sort", comp.size)
    comp_s = comp[order]
    head = np.ones(comp_s.size, dtype=bool)
    head[1:] = comp_s[1:] != comp_s[:-1]
    sel = order[head]
    elo, ehi, ew2 = lo[sel], hi[sel], d2[sel]
    # Undirected dedup (two components may choose the same pair), keeping
    # deterministic (weight, endpoints) order for the cycle guard.
    key = elo * np.int64(n) + ehi
    _, first = np.unique(key, return_index=True)
    emit("emst.dedup", "sort", int(key.size))
    keep = np.sort(first)
    eorder = np.lexsort((ehi[keep], elo[keep], ew2[keep]))
    keep = keep[eorder]
    return elo[keep], ehi[keep], ew2[keep]
