"""Figure 6: SS-tree leaf regions re-measured with bounding rectangles.

Paper expectation: had the SS-tree's leaves been described by MBRs
instead of spheres, their average volume would be orders of magnitude
smaller (about 1/900 at 100k points) — the headroom the SR-tree claims
by storing both shapes.
"""

from conftest import archive

from repro.analysis import measure_leaf_regions
from repro.bench.experiments import get_index, ss_rect_volume_experiment, uniform_sizes


def test_fig6_ss_rect_volume(benchmark):
    sizes = uniform_sizes()
    headers, rows = ss_rect_volume_experiment(sizes)
    archive("fig6_ss_rect_volume",
            "Figure 6: SS-tree leaf volume, spheres vs rectangles (uniform)",
            headers, rows)

    for row in rows:
        _, sphere_vol, rect_vol, ratio = row
        # Rectangle volume is a vanishing fraction of the sphere volume.
        assert rect_vol < 0.1 * sphere_vol
        assert ratio < 0.1

    index = get_index("sstree", "uniform", size=sizes[0], dims=16)
    benchmark(lambda: measure_leaf_regions(index))
