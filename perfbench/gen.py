"""Seeded input generators for the repo benchmark.

Every input is a pure function of ``(seed, index)``: the same seed gives
the same arrays on every machine, and the program only ever receives the
generated arrays.  Streams for different purposes draw from distinct
``SeedSequence`` spawn keys so that, say, adding a hot-set tree never
shifts the fresh-request inputs.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.data import ngsim_like, uniform

#: Cloud index reserved for set-up warm-up calls; no timed call reaches it.
WARMUP = 2**40

# Spawn-key tags, one per input stream.
_RANDOM_TREE, _CATERPILLAR, _HOT, _TEMPLATE, _GPS, _UNIFORM, _FILL = range(7)


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _shuffle(rng, u, v, w, n_vertices):
    """Relabel vertices and shuffle edge order so no input arrives sorted."""
    perm = rng.permutation(n_vertices)
    order = rng.permutation(u.size)
    return perm[u][order], perm[v][order], w[order]


def random_tree(rng: np.random.Generator, n_edges: int):
    """Random-attachment tree: vertex ``i`` hangs off a uniform earlier one.

    Its dendrogram is shallow and bushy; at 1M edges PANDORA contracts it
    through eight levels.
    """
    child = np.arange(1, n_edges + 1, dtype=np.int64)
    parent = (rng.random(n_edges) * child).astype(np.int64)
    return _shuffle(rng, child, parent, rng.random(n_edges), n_edges + 1)


def caterpillar(rng: np.random.Generator, n_edges: int):
    """A spine of half the vertices with rising weights, plus random leaves.

    Single linkage merges the spine one vertex at a time, so the
    dendrogram height is about ``0.75 * n_edges``: the skewed case.
    """
    n = n_edges + 1
    spine = n // 2
    su = np.arange(spine - 1, dtype=np.int64)
    leaves = np.arange(spine, n, dtype=np.int64)
    u = np.concatenate([su, leaves])
    v = np.concatenate([su + 1, rng.integers(0, spine, size=leaves.size)])
    w = np.concatenate([np.sort(rng.random(spine - 1)), rng.random(leaves.size)])
    return _shuffle(rng, u, v, w, n)


def dendrogram_trees(seed: int, n_edges: int):
    """The two MSTs of the ``dendrogram_1m`` step."""
    return (
        random_tree(_rng(seed, _RANDOM_TREE), n_edges),
        caterpillar(_rng(seed, _CATERPILLAR), n_edges),
    )


def hot_trees(seed: int, n_edges: int, count: int):
    """The serving hot set: ``count`` random trees of ``n_edges`` edges."""
    return [random_tree(_rng(seed, _HOT, i), n_edges) for i in range(count)]


def fill_trees(seed: int, n_edges: int, count: int):
    """Small distinct trees that fill the serving cache during set-up."""
    return [random_tree(_rng(seed, _FILL, i), n_edges) for i in range(count)]


class FreshTrees:
    """Distinct serving requests that never repeat.

    Request ``k`` is template ``k % templates`` with every weight shifted
    by ``k // templates + 1``.  The shift keeps the weight order, so the
    work per request stays that of its template, while the content (and
    so the cache key) is new.  Templates are built once; a request costs
    one array add.
    """

    def __init__(self, seed: int, n_edges: int, templates: int = 8) -> None:
        self.templates = [
            random_tree(_rng(seed, _TEMPLATE, i), n_edges) for i in range(templates)
        ]

    def template(self, k: int):
        return self.templates[k % len(self.templates)]

    def __call__(self, k: int):
        u, v, w = self.template(k)
        return u, v, w + float(k // len(self.templates) + 1)


@functools.cache
def _gps_layout(n_points: int) -> np.ndarray:
    return ngsim_like(n_points, seed=0)


def gps_cloud(seed: int, index: int, n_points: int) -> np.ndarray:
    """GPS cloud number ``index``: one fixed ``ngsim_like`` road layout,
    shuffled and shifted by a seeded offset.

    The cost of a GPS clustering call follows the road layout: across
    ``ngsim_like`` seeds it varies by +-25%, so a few calls on fresh
    layouts per run would give a median that moves with the seed.  One
    layout, moved rigidly, keeps the work per call fixed while every call
    still gets new arrays (order and coordinates).
    """
    base = _gps_layout(n_points)
    rng = _rng(seed, _GPS, index)
    return base[rng.permutation(n_points)] + rng.uniform(0.0, 1000.0, size=2)


def uniform_cloud(seed: int, index: int, n_points: int) -> np.ndarray:
    """Fresh uniform 2-D cloud number ``index``."""
    sub = int(_rng(seed, _UNIFORM, index).integers(2**31))
    return uniform(n_points, 2, seed=sub)
