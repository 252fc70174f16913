"""Beyond k-NN: the full query repertoire of the index structures.

The paper evaluates one query type (k = 21 nearest neighbors); the
library supports the full toolbox a production index needs, all driven
by the same per-family region bounds:

* k-nearest-neighbor, depth-first (the paper's algorithm),
* incremental ranking — neighbors streamed in distance order with no k
  fixed up front; its first k are the best-first (I/O-optimal) k-NN,
* range (ball) queries,
* window (box) queries.

Run with:  python examples/spatial_queries.py
"""

from itertools import islice

from repro import SRTree, cluster_dataset


def main() -> None:
    dims = 8
    data = cluster_dataset(n_clusters=25, points_per_cluster=200, dims=dims,
                           seed=13)
    tree = SRTree(dims)
    tree.load(data)
    query = data[777]
    print(f"SR-tree over {len(tree)} clustered {dims}-d points\n")

    # --- the two k-NN traversals ------------------------------------------
    # Depth-first is ``nearest``; best-first is the first k of the
    # incremental iterator below.
    traversals = {
        "depth-first": lambda: tree.nearest(query, k=10),
        "best-first": lambda: list(islice(tree.iter_nearest(query), 10)),
    }
    for name, search in traversals.items():
        tree.store.drop_cache()
        before = tree.stats.snapshot()
        result = search()
        reads = tree.stats.since(before).page_reads
        print(f"{name:>12} 10-NN: top value {result[0].value}, "
              f"{reads} page reads")

    # --- incremental ranking ----------------------------------------------
    # "Give me neighbors until one satisfies a predicate" — no way to
    # choose k in advance; the iterator reads pages lazily.
    tree.store.drop_cache()
    before = tree.stats.snapshot()
    for rank, neighbor in enumerate(tree.iter_nearest(query), start=1):
        if neighbor.value % 10 == 3:  # e.g. "an image with a licence"
            break
    reads = tree.stats.since(before).page_reads
    print(f"\nincremental search stopped at rank {rank} "
          f"(value {neighbor.value}, distance {neighbor.distance:.4f}) "
          f"after only {reads} page reads")

    # First 5 of the stream equal the 5-NN result, by construction.
    stream5 = [n.value for n in islice(tree.iter_nearest(query), 5)]
    knn5 = [n.value for n in tree.nearest(query, k=5)]
    assert stream5 == knn5

    # --- range and window queries ------------------------------------------
    ball = tree.within(query, radius=0.15)
    print(f"\nrange query: {len(ball)} points within 0.15 of the query")

    low = query - 0.1
    high = query + 0.1
    box = tree.window(low, high)
    print(f"window query: {len(box)} points in the +-0.1 box around it")

    # Cross-check: the box circumscribes the ball of radius 0.1.
    ball_inner = tree.within(query, radius=0.1)
    box_values = {n.value for n in box}
    assert all(n.value in box_values for n in ball_inner)
    print("\ncross-checks passed (ball of r=0.1 is inside the +-0.1 box)")


if __name__ == "__main__":
    main()
