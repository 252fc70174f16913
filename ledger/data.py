"""Seeded inputs and the brute-force oracle.

The benchmark owns the seed: the program under test only ever sees the
points generated here, never the seed or a generator of its own.
"""

from __future__ import annotations

import numpy as np


def uniform_points(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    """``count`` points uniform in the unit cube (the paper's uniform set)."""
    return rng.random((count, dims))


class ClusterModel:
    """Spherical clusters: uniform centres, radii uniform in [0, 0.25).

    The paper's cluster set; kept as a model so a write workload can keep
    drawing new points from the same distribution.
    """

    def __init__(self, rng: np.random.Generator, clusters: int, dims: int) -> None:
        self.centers = rng.random((clusters, dims))
        self.radii = rng.uniform(0.0, 0.25, clusters)
        self.dims = dims

    def draw(self, rng: np.random.Generator, cluster_ids: np.ndarray) -> np.ndarray:
        """One point per entry of ``cluster_ids``, uniform inside its ball."""
        count = cluster_ids.shape[0]
        directions = rng.normal(size=(count, self.dims))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        reach = self.radii[cluster_ids] * rng.random(count) ** (1.0 / self.dims)
        return self.centers[cluster_ids] + directions * reach[:, None]

    def dataset(self, rng: np.random.Generator, per_cluster: int) -> np.ndarray:
        """``per_cluster`` points of each cluster, a cluster's rows consecutive."""
        ids = np.repeat(np.arange(self.centers.shape[0]), per_cluster)
        return self.draw(rng, ids)

    def spread_ids(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` cluster ids, every cluster equally often, in random order.

        A query's cost depends on its cluster's radius; drawing clusters at
        random would make a run's cost depend on the luck of that draw.
        """
        return rng.permutation(np.arange(count) % self.centers.shape[0])


def queries_near(rng: np.random.Generator, points: np.ndarray, rows: np.ndarray,
                 jitter: float = 0.01) -> np.ndarray:
    """Query points beside the stored ``rows``, as the paper samples its queries."""
    return points[rows] + rng.normal(scale=jitter, size=(rows.shape[0], points.shape[1]))


def distances_to(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``query`` to every row, the index's own formula."""
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def knn_distances(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """``(Q, k)`` sorted distances of each query's k nearest rows, by brute force."""
    out = np.empty((queries.shape[0], min(k, points.shape[0])))
    for row, query in enumerate(queries):
        dists = distances_to(points, query)
        out[row] = np.sort(np.partition(dists, out.shape[1] - 1)[: out.shape[1]])
    return out


def same_distances(got, want: np.ndarray) -> bool:
    """Whether an answer's distance multiset is exactly the oracle's."""
    got = np.asarray(got, dtype=np.float64)
    return got.shape == want.shape and bool(np.array_equal(np.sort(got), want))
