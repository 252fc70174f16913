"""Content-based image retrieval — the paper's motivating application.

The paper's introduction describes the Informedia digital video library:
images are represented by 16-bin color histograms, and "a set of the
images similar to a particular image can be retrieved by searching
feature vectors close to that of the given image".

This example builds that pipeline end to end on the synthetic histogram
corpus (the stand-in for the paper's real CMU data, see DESIGN.md):

1. index a corpus of color-histogram feature vectors with an SR-tree,
2. answer "find images similar to this one" queries with k-NN search,
3. optionally re-rank the candidates with the classic histogram-
   intersection similarity,
4. compare the I/O cost against a full scan and an SS-tree.

Run with:  python examples/image_retrieval.py
"""

import numpy as np

from repro import LinearScan, SRTree, SSTree, histogram_dataset


def histogram_intersection(a, b) -> float:
    """Histogram-intersection dissimilarity, ``1 - sum(min(a_i, b_i))``,
    of two L1-normalized histograms (Swain & Ballard)."""
    return float(1.0 - np.minimum(a, b).sum())


def build_corpus(n_images: int = 8000, bins: int = 16):
    """A corpus of synthetic color histograms with image-id payloads."""
    histograms = histogram_dataset(n_images, bins=bins, seed=11)
    image_ids = [f"frame-{i:06d}.png" for i in range(n_images)]
    return histograms, image_ids


def main() -> None:
    histograms, image_ids = build_corpus()
    bins = histograms.shape[1]

    index = SRTree(bins)
    index.load(histograms, values=image_ids)
    print(f"indexed {len(index)} images "
          f"({bins}-bin color histograms, tree height {index.height})\n")

    # --- similarity query ------------------------------------------------
    query_id = 4242
    query = histograms[query_id]
    print(f"query image: {image_ids[query_id]}")
    print("top-8 most similar images (Euclidean distance in histogram space):")
    candidates = index.nearest(query, k=8)
    for n in candidates:
        print(f"  {n.value:<20} distance={n.distance:.4f}")

    # --- re-ranking ------------------------------------------------------
    # The trees search under the Euclidean metric (their regions bound
    # it); domain-specific similarity measures can re-rank a slightly
    # larger candidate set.  Histogram intersection is the classic
    # color-similarity measure for this representation.
    pool = index.nearest(query, k=32)
    reranked = sorted(pool, key=lambda n: histogram_intersection(query, n.point))
    print("\ntop-8 after histogram-intersection re-ranking of 32 candidates:")
    for n in reranked[:8]:
        score = 1.0 - histogram_intersection(query, n.point)
        print(f"  {n.value:<20} intersection={score:.4f}")

    # --- why an index at all? ---------------------------------------------
    # Compare the pages a cold query touches against a full scan and the
    # SS-tree the paper improves upon.
    scan = LinearScan(bins)
    scan.load(histograms, values=image_ids)
    sstree = SSTree(bins)
    sstree.load(histograms, values=image_ids)

    print("\ncold 21-NN cost (pages read):")
    for name, idx in (("linear scan", scan), ("SS-tree", sstree),
                      ("SR-tree", index)):
        idx.store.drop_cache()
        before = idx.stats.snapshot()
        idx.nearest(query, k=21)
        reads = idx.stats.since(before).page_reads
        print(f"  {name:<12} {reads:5d}")

    # Sanity: all three retrieval paths agree on the nearest image.
    assert scan.nearest(query, 1)[0].value == index.nearest(query, 1)[0].value
    print("\nresults verified against the exact linear scan")


if __name__ == "__main__":
    main()
