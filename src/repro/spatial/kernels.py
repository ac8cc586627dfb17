"""NumPy reference realizations of the spatial kernel vocabulary.

These are the bulk-vectorized bodies behind the ``spatial_*`` methods of
:class:`repro.parallel.backend.NumpyBackend` -- extracted from the
pre-backend kd-tree/Boruvka code so the JIT backends have a bit-exact
reference to match.  Nothing here emits kernel records (the backend method
accounts the one logical kernel) and nothing here imports the backend layer
(this module sits above it; the backend loads it lazily).

Determinism conventions shared with the fused realizations:

* kNN answers are the ``k`` smallest ``(squared distance, point id)`` pairs
  per query -- a unique set, so any exact traversal agrees bit for bit.
* Node pruning visits on *equality* (``lower_bound <= bound``): an
  equal-distance smaller-id candidate is never pruned away.
* All nearest-foreign ties keep the first point in tree order (NumPy's
  ``argmin`` first-occurrence rule == the fused kernels' strict ``<``).
* Squared distances accumulate the squared coordinate differences in
  coordinate order, one padded-block pass per coordinate.  SciPy's
  ``cdist`` ``sqeuclidean`` kernel and the fused loops use the same order,
  so all of them produce the same bits.
* The kNN merges each query's *anchor* -- the deepest ancestor of its
  home leaf holding at least ``k`` points -- before its traversal and
  skips the anchor's leaves during the traversal, so every query starts
  from a finite bound, every leaf reaches a query at most once and the
  ids in a row are unique.
* Point-to-box distances (kNN node pruning, the leaf-pair skip) are
  accumulated in the same coordinate order.  IEEE subtraction, squaring
  and addition are monotone, so such a distance never exceeds a real
  squared distance to a point inside the box: pruning on it is exact.
  A leaf-pair slot whose point lies at least its component's frozen bound
  from the opposite leaf's box (lifted by the point's own core distance
  under mutual reachability) is skipped.
* Distance blocks hold at most the private budgets below (or one row of
  the widest leaf or kNN anchor, if larger); the padded coordinate
  columns are built once per tree and cached on it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["knn_blockwise", "node_reduce", "seed_scan", "leaf_pairs"]

#: Scratch budgets.  ``leaf_pairs`` expands about this many output slots
#: per chunk of pairs (at least one pair) ...
_PAIR_CHUNK_SLOTS = 1 << 13
#: ... ``knn_blockwise`` traverses this many queries together ...
_QUERY_CHUNK = 1 << 11
#: ... and both compute padded distance blocks of at most this many
#: entries (at least one row).  About a megabyte of scratch in all.
_BLOCK_ENTRIES = 1 << 15


def _gather_segments(tree, cols, nodes, width):
    """Tree-order positions of each node's points, padded with ``n``.

    ``cols`` are the tree's padded coordinate columns
    (:meth:`~repro.spatial.kdtree.KDTree.padded_columns`), so padded block
    columns read an ``inf`` distance.  Returns the ``(nodes, width)``
    positions and the per-coordinate gathered rows.
    """
    start = tree.start[nodes].astype(np.int64)
    size = tree.end[nodes].astype(np.int64) - start
    col = np.arange(width)
    cpos = start[:, None] + col
    cpos[col >= size[:, None]] = tree.indices.size
    return cpos, [cc[cpos] for cc in cols]


def _point_box_d2(xs, los, his) -> np.ndarray:
    """Squared distance from each point to its box, in coordinate order.

    ``xs`` are the points' coordinate columns and ``los``/``his`` the
    matching per-point box bounds, one column per coordinate.  IEEE
    subtraction, squaring and addition are monotone, so the result never
    exceeds a real squared distance from the point to any point inside
    the box accumulated in the same order.
    """
    lb = np.zeros(xs[0].size)
    for x, lo, hi in zip(xs, los, his):
        t = np.maximum(lo - x, 0.0)
        t += np.maximum(x - hi, 0.0)
        t *= t
        lb += t
    return lb


def _row_sq_dist(xs, seg_cols, rs, d2, tmp) -> None:
    """Fill ``d2[i, j]``: row ``i``'s point against column ``j`` of padded
    segment ``rs[i]``, accumulated in coordinate order like ``cdist``.

    ``xs`` are the rows' coordinate columns, ``seg_cols`` the segments'
    padded coordinate rows; ``tmp`` is scratch of ``d2``'s shape.
    """
    for c, (x, sc) in enumerate(zip(xs, seg_cols)):
        dst = d2 if c == 0 else tmp
        np.take(sc, rs, axis=0, out=dst, mode="clip")
        np.subtract(x[:, None], dst, out=dst)
        np.multiply(dst, dst, out=dst)
        if c:
            d2 += tmp


def knn_blockwise(tree, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact batched kNN, level-batched over chunks of queries.

    Every query is routed to its home leaf simultaneously; its *anchor* is
    the deepest ancestor of that leaf holding at least ``k`` points (the
    home leaf itself unless leaves are smaller than ``k``).  Queries are then taken in chunks of ``_QUERY_CHUNK`` in
    tree order: the chunk first merges its anchors' points, which gives
    every query a finite bound (its current k-th squared distance), then
    walks the tree level by level as one frontier of ``(query, node)``
    pairs.  A pair survives while its point-to-box distance is at most the
    bound (visiting on equality); surviving leaves outside the query's
    anchor become ``(query, leaf)`` rows, merged after the walk.  A merge
    computes padded ``(rows, leaf)`` distance blocks of at most
    ``_BLOCK_ENTRIES`` entries and keeps only rows with an entry
    strictly before their query's current k-th ``(d2, id)`` pair; those
    entries join the running k-best rows through one ``(d2, id)``
    lexsort.  Returns ``(d2, ids)`` with ``ids`` int64 (the backend
    narrows to the tree's index dtype).
    """
    n = int(tree.indices.size)
    m = int(queries.shape[0])
    dims = int(queries.shape[1])
    left, right = tree.left, tree.right
    start = tree.start.astype(np.int64)
    end = tree.end.astype(np.int64)
    size = end - start
    box_lo, box_hi = tree.box_lo, tree.box_hi
    coord = tree.padded_columns()
    ids_pad = np.append(tree.indices.astype(np.int64), n)
    qcol = [np.ascontiguousarray(queries[:, c]) for c in range(dims)]

    # Route every query to its home leaf, and every node to its anchor
    # (top-down: a child smaller than k inherits its parent's).
    home = np.zeros(m, dtype=np.int64)
    while True:
        internal = left[home] >= 0
        if not internal.any():
            break
        sel = np.nonzero(internal)[0]
        nd = home[sel]
        dim = tree.split_dim[nd]
        go_left = queries[sel, dim] < tree.split_val[nd]
        home[sel] = np.where(go_left, left[nd], right[nd])
    anchor = np.arange(tree.n_nodes, dtype=np.int64)
    for ids in tree.internal_levels():
        for child in (left[ids], right[ids]):
            anchor[child] = np.where(size[child] >= k, child, anchor[ids])
    q_anchor = anchor[home]
    a_start, a_end = start[q_anchor], end[q_anchor]
    by_pos = np.argsort(start[home], kind="stable")

    best_d2 = np.full((m, k), np.inf)
    best_id = np.full((m, k), n, dtype=np.int64)  # sentinel: sorts last
    widest = max(int(size[left == -1].max()),
                 int(size[q_anchor].max(initial=0)))
    cap = max(_BLOCK_ENTRIES, widest)
    buf_d2 = np.empty(cap)
    buf_t = np.empty(cap)

    def merge(rq: np.ndarray, rl: np.ndarray) -> None:
        # Widest nodes first, each node's rows adjacent: a block's first
        # row fixes its width.
        sz = size[rl]
        order = np.lexsort((rl, -sz))
        rq, rl, sz = rq[order], rl[order], sz[order]
        r0 = 0
        while r0 < rq.size:
            width = int(sz[r0])
            r1 = min(rq.size, r0 + max(1, _BLOCK_ENTRIES // width))
            q, lf = rq[r0:r1], rl[r0:r1]
            r0 = r1
            head = np.ones(lf.size, dtype=bool)
            head[1:] = lf[1:] != lf[:-1]
            rs = np.cumsum(head) - 1
            cpos, seg_cols = _gather_segments(tree, coord, lf[head], width)
            seg_ids = ids_pad[cpos]
            d2 = buf_d2[: q.size * width].reshape(q.size, width)
            tmp = buf_t[: d2.size].reshape(d2.shape)
            _row_sq_dist([qc[q] for qc in qcol], seg_cols, rs, d2, tmp)
            kd = best_d2[q, -1:]
            better = d2 < kd
            tr, tc = np.nonzero(d2 == kd)
            if tr.size:
                better[tr, tc] = seg_ids[rs[tr], tc] < best_id[q[tr], -1]
            if width > k:
                # Only a row's k smallest d2 (with every tie of the k-th)
                # can reach its query's k-best.
                tmp.fill(np.inf)
                np.copyto(tmp, d2, where=better)
                tmp.partition(k - 1, axis=1)
                better &= d2 <= tmp[:, k - 1:k]
            r, c = np.nonzero(better)
            if r.size == 0:
                continue
            # Compact the surviving entries per query behind its k-best and
            # keep the first k of one (d2, id) lexsort.  Anchors and walked
            # leaves are disjoint and each reaches a query once, so ids in
            # a row are unique and the order is total up to the (inf, n)
            # sentinel pads.
            uq, inv = np.unique(q[r], return_inverse=True)
            g = np.argsort(inv, kind="stable")
            r, c, inv = r[g], c[g], inv[g]
            cnt = np.bincount(inv, minlength=uq.size)
            col = k + np.arange(r.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            width_m = k + int(cnt.max())
            md = np.full((uq.size, width_m), np.inf)
            mi = np.full((uq.size, width_m), n, dtype=np.int64)
            md[:, :k] = best_d2[uq]
            mi[:, :k] = best_id[uq]
            md[inv, col] = d2[r, c]
            mi[inv, col] = seg_ids[rs[r], c]
            keep = np.lexsort((mi, md))[:, :k]
            best_d2[uq] = np.take_along_axis(md, keep, axis=1)
            best_id[uq] = np.take_along_axis(mi, keep, axis=1)

    for q0 in range(0, m, _QUERY_CHUNK):
        qs = by_pos[q0: q0 + _QUERY_CHUNK]
        merge(qs, q_anchor[qs])
        # Level-synchronous walk; leaves inside the anchor are merged.
        fq = qs
        fn = np.zeros(qs.size, dtype=np.int64)
        rows_q: list[np.ndarray] = []
        rows_l: list[np.ndarray] = []
        while fq.size:
            lb = _point_box_d2([qc[fq] for qc in qcol],
                               [box_lo[fn, c] for c in range(dims)],
                               [box_hi[fn, c] for c in range(dims)])
            # Visit on equality: under the (d2, id) contract an
            # equal-distance smaller-id candidate must never be pruned.
            keep = lb <= best_d2[fq, -1]
            fq, fn = fq[keep], fn[keep]
            leaf = left[fn] == -1
            lq, ln = fq[leaf], fn[leaf]
            # A leaf is either inside the anchor or disjoint from it.
            out = (start[ln] < a_start[lq]) | (start[ln] >= a_end[lq])
            rows_q.append(lq[out])
            rows_l.append(ln[out])
            fq = np.tile(fq[~leaf], 2)
            inner = fn[~leaf]
            fn = np.concatenate([left[inner], right[inner]]).astype(np.int64)
        merge(np.concatenate(rows_q), np.concatenate(rows_l))

    return best_d2, best_id


def node_reduce(tree, values_perm: np.ndarray, kind: str) -> np.ndarray:
    """Bottom-up per-node min/max: leaf ``reduceat`` + per-level combine."""
    op = np.minimum if kind == "min" else np.maximum
    out = np.empty(tree.n_nodes, dtype=values_perm.dtype)
    leaves = tree.leaves_by_start()
    out[leaves] = op.reduceat(values_perm, tree.start[leaves])
    left, right = tree.left, tree.right
    for ids in reversed(tree.internal_levels()):
        out[ids] = op(out[left[ids]], out[right[ids]])
    return out


def seed_scan(labels, knn_i, knn_d2, core2, mutual: bool,
              out_d2, out_q) -> None:
    """Per-point best foreign kNN entry (Boruvka seeding), one bulk pass."""
    n = labels.size
    foreign = labels[knn_i] != labels[:, None]
    d2 = np.where(foreign, knn_d2, np.inf)
    if mutual:
        np.maximum(d2, core2[:, None], out=d2)
        np.maximum(d2, core2[knn_i], out=d2)
        d2[~foreign] = np.inf
    j = np.argmin(d2, axis=1)
    rows = np.arange(n)
    out_d2[:n] = d2[rows, j]
    out_q[:n] = knn_i[rows, j]
    out_q[:n][~np.isfinite(out_d2[:n])] = -1


def leaf_pairs(tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
               mutual: bool, bound_d2, offsets,
               out_comp, out_d2, out_p, out_q) -> None:
    """Frontier-level leaf-leaf interactions; see the backend docstring.

    Reference realization, batched over the level: pairs are taken in
    chunks of about ``_PAIR_CHUNK_SLOTS`` output slots, and every
    ``(pair, side, point)`` slot of a chunk is expanded at once.  A slot is
    *active* only when its component's frozen bound ``bnd`` exceeds the
    pair's lower bound and the point's squared distance to the opposite
    leaf's box (lifted by its own core distance under mutual reachability)
    is below ``bnd``; every other slot is ``inf`` without a distance block.
    Active rows run as padded ``(rows, L)`` blocks of at most
    ``_BLOCK_ENTRIES`` entries against the opposite leaf's points in tree
    order, padded with ``inf``.  Slot layout, bound predicate and
    first-occurrence tie rule match the fused kernels exactly.
    """
    n_pairs = int(leaf_a.size)
    if n_pairs == 0:
        return
    dims = tree.points.shape[1]
    start = tree.start.astype(np.int64)
    size = tree.end.astype(np.int64) - start
    indices = tree.indices

    # One segment per (pair, side), A side first: the points of leaf
    # ``mine`` against the opposite leaf ``opp``.
    a = leaf_a.astype(np.int64)
    b = leaf_b.astype(np.int64)
    seg_mine = np.stack([a, b], axis=1).ravel()
    seg_opp = np.stack([b, a], axis=1).ravel()
    seg_len = size[seg_mine]
    seg_base = np.stack([offsets, offsets + size[a]], axis=1).ravel()
    seg_lb = np.repeat(np.asarray(pair_lb, dtype=np.float64), 2)

    coord = tree.padded_columns()
    cap = max(_BLOCK_ENTRIES, int(seg_len.max()))
    buf_d2 = np.empty(cap)
    buf_t = np.empty(cap)
    buf_same = np.empty(cap, dtype=bool)

    pair_end = np.cumsum(size[a] + size[b])
    t0 = 0
    while t0 < n_pairs:
        done = int(pair_end[t0 - 1]) if t0 else 0
        t1 = int(np.searchsorted(pair_end, done + _PAIR_CHUNK_SLOTS, "right"))
        t1 = max(t1, t0 + 1)
        segs = np.arange(2 * t0, 2 * t1)
        t0 = t1

        # Expand the chunk's slots.
        opp = seg_opp[segs]
        lens = seg_len[segs]
        row_seg = np.repeat(np.arange(segs.size), lens)
        within = np.arange(row_seg.size) - np.repeat(np.cumsum(lens) - lens,
                                                     lens)
        pos = start[seg_mine[segs]][row_seg] + within
        slot = seg_base[segs][row_seg] + within
        out_d2[slot] = np.inf
        comp = labels_perm[pos]
        bnd = bound_d2[comp]

        # The exact point-to-box skip.
        xs = [cc[pos] for cc in coord]
        plb = _point_box_d2(
            xs,
            [tree.box_lo[opp, c][row_seg] for c in range(dims)],
            [tree.box_hi[opp, c][row_seg] for c in range(dims)],
        )
        if mutual:
            np.maximum(plb, core2_perm[pos], out=plb)
        act = np.nonzero((bnd > seg_lb[segs][row_seg]) & (plb < bnd))[0]
        if act.size == 0:
            continue

        # Opposite-leaf columns per segment, padded to the chunk's widest
        # opposite leaf.
        width = int(size[opp].max())
        cpos, seg_cols = _gather_segments(tree, coord, opp, width)
        # A pad position reads the last point's label and core distance;
        # its d2 is inf whatever they are.
        seg_label = labels_perm.take(cpos, mode="clip")
        seg_core = core2_perm.take(cpos, mode="clip") if mutual else None

        step = max(1, _BLOCK_ENTRIES // width)
        for r0 in range(0, act.size, step):
            rows = act[r0: r0 + step]
            rs = row_seg[rows]
            rpos = pos[rows]
            shape = (rows.size, width)
            d2 = buf_d2[: rows.size * width].reshape(shape)
            t = buf_t[: d2.size].reshape(shape)
            _row_sq_dist([x[rows] for x in xs], seg_cols, rs, d2, t)
            if mutual:
                np.maximum(d2, core2_perm[rpos][:, None], out=d2)
                np.take(seg_core, rs, axis=0, out=t, mode="clip")
                np.maximum(d2, t, out=d2)
            rcomp = comp[rows]
            same = buf_same[: d2.size].reshape(shape)
            np.equal(np.take(seg_label, rs, axis=0), rcomp[:, None], out=same)
            np.copyto(d2, np.inf, where=same)
            j = np.argmin(d2, axis=1)
            rd2 = d2[np.arange(rows.size), j]
            ok = rd2 < bnd[rows]
            if not ok.any():
                continue
            sl = slot[rows][ok]
            out_d2[sl] = rd2[ok]
            out_comp[sl] = rcomp[ok]
            out_p[sl] = indices[rpos[ok]]
            out_q[sl] = indices[cpos[rs[ok], j[ok]]]
