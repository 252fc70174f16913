"""Ablation: buffer-pool size sensitivity (beyond the paper).

The paper measures cold queries (every page fetch is a disk read).  A
real deployment keeps a buffer pool; this ablation sweeps its size and
reports the *warm* reads per query — showing (a) that the directory
levels cache quickly, so even a small pool removes most node-level
reads, and (b) that the SR-tree keeps its advantage over the SS-tree
at the small pool sizes (at 256 frames the SS-tree's higher fanout wins).

The pool is the product's (``repro.storage.buffer``): SIEVE replacement
behind an admission rule that installs a clean page just read only if
it was looked up in at least two more of the last 16 half-pool epochs
than the frame it would evict.  Both decide which warm fetches are
physical, so a change to either moves these counts (and Fig. 9's, also
read through a warm pool), never the cold-query figures, which drop the
pool before each query.
"""

from conftest import archive

from repro.bench.experiments import get_dataset, scaled
from repro.indexes import build_index
from repro.workloads import sample_queries

BUFFER_SIZES = [16, 64, 256, 1024]


def _warm_reads(index, queries) -> float:
    # One warm-up pass, then measure steady-state reads.
    for q in queries:
        index.nearest(q, 21)
    before = index.stats.snapshot()
    for q in queries:
        index.nearest(q, 21)
    return index.stats.since(before).page_reads / len(queries)


def test_ablation_buffer_size(benchmark):
    params = {"n_clusters": 20, "points_per_cluster": scaled(150), "dims": 16}
    data = get_dataset("cluster", **params)
    queries = sample_queries(data, 25, seed=3)

    rows = []
    series: dict[str, list[float]] = {"sstree": [], "srtree": []}
    for frames in BUFFER_SIZES:
        for kind in ("sstree", "srtree"):
            index = build_index(kind, data, buffer_capacity=frames)
            index.stats.reset()
            reads = _warm_reads(index, queries)
            series[kind].append(reads)
            rows.append([frames, kind, reads])
    archive("ablation_buffer_size",
            "Ablation: warm reads per query vs buffer-pool frames "
            "(cluster data, k=21)",
            ["buffer_frames", "index", "warm_reads"], rows)

    for kind, values in series.items():
        # More buffer -> monotonically fewer (or equal) warm reads.
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:])), (kind, values)
        # A big enough pool absorbs the whole working set.
        assert values[-1] < values[0]

    benchmark(lambda: _warm_reads(
        build_index("srtree", data, buffer_capacity=64), queries[:5]))
