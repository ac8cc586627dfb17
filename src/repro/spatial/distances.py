"""Distance kernels: Euclidean blocks, core distance, mutual reachability.

HDBSCAN* (Section 6.5) runs single-linkage under the *mutual reachability*
metric

    d_mreach(p, q) = max(core(p), core(q), d(p, q))

where ``core(p)`` is the distance from p to its ``mpts``-th nearest neighbor
(p itself counted, so ``mpts = 1`` gives core 0 and plain Euclidean
single linkage).  All kernels are block-vectorized.  The squared-distance
block is SciPy's ``cdist`` difference form, accumulated in coordinate
order, not the |a|^2 + |b|^2 - 2ab expansion: the expansion leaks rounding
noise into coincident points (see :func:`sq_dist_block`).
"""

from __future__ import annotations

import numpy as np

from ..parallel.machine import emit

__all__ = [
    "sq_dist_block",
    "dist_block",
    "mutual_reachability_block",
    "pairwise_mutual_reachability",
]


def sq_dist_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between row blocks: ``(|a|, |b|)``.

    Dispatches to SciPy's C ``cdist`` kernel, which computes the explicit
    difference form: exact zeros for coincident points (a GEMM-style
    |a|^2+|b|^2-2ab expansion leaks ~1e-16 noise that surfaces as 1e-8
    distances) and no Python-level temporaries on the hot leaf-block path.
    """
    from scipy.spatial.distance import cdist

    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    d2 = cdist(a, b, "sqeuclidean")
    emit("dist.block", "map", a.shape[0] * b.shape[0])
    return d2


def dist_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between row blocks."""
    return np.sqrt(sq_dist_block(a, b))


def mutual_reachability_block(
    d: np.ndarray, core_a: np.ndarray, core_b: np.ndarray
) -> np.ndarray:
    """Lift a Euclidean distance block to mutual reachability in place-free
    form: ``max(d, core_a[:, None], core_b[None, :])``."""
    out = np.maximum(d, core_a[:, None])
    np.maximum(out, core_b[None, :], out=out)
    emit("dist.mreach_block", "map", d.size)
    return out


def pairwise_mutual_reachability(
    points: np.ndarray, core: np.ndarray
) -> np.ndarray:
    """Dense mutual reachability matrix (small inputs / tests only)."""
    d = dist_block(points, points)
    np.fill_diagonal(d, 0.0)
    out = mutual_reachability_block(d, core, core)
    np.fill_diagonal(out, 0.0)
    return out
