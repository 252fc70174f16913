"""Figure 5: leaf-region volume and diameter of the SS-tree vs R*-tree.

Paper expectation (uniform data, D=16): the R*-tree's bounding
rectangles have *much smaller volume* (about 2% of the spheres') while
the SS-tree's bounding spheres have *much shorter diameter* (about 1.5
vs 2.5) — each shape wins one axis, which motivates the SR-tree.
"""

from conftest import archive, by_kind

from repro.analysis import measure_leaf_regions
from repro.bench.experiments import get_index, region_experiment, uniform_sizes


def test_fig5_region_shape(benchmark):
    sizes = uniform_sizes()
    headers, rows = region_experiment("uniform", sizes, ("rstar", "sstree"))
    archive("fig5_region_shape",
            "Figure 5: leaf-region volume/diameter, SS vs R* (uniform)",
            headers, rows)

    table = by_kind(rows, key_col=0)
    largest = sizes[-1]
    rstar = table["rstar"][largest]
    sstree = table["sstree"][largest]

    # Columns: size, index, region, sphere_vol, rect_vol, sphere_diam, rect_diam.
    rstar_volume = rstar[4]       # the shape the R*-tree actually uses
    ss_volume = sstree[3]
    rstar_diameter = rstar[6]
    ss_diameter = sstree[5]

    # Rectangle volumes are a tiny fraction of sphere volumes (paper: ~2 %).
    assert rstar_volume < 0.2 * ss_volume
    # SS-tree sphere diameters are clearly shorter than rect diagonals.
    assert ss_diameter < rstar_diameter

    index = get_index("sstree", "uniform", size=sizes[0], dims=16)
    benchmark(lambda: measure_leaf_regions(index))
