"""Durability: an SR-tree living in a real file on disk.

Every index in the library performs node I/O through the paged storage
engine.  :meth:`repro.Database.create` puts the index in a file and
:meth:`repro.Database.open` brings it back — recovering whatever a crash
left behind first — so the index becomes a durable on-disk structure:
build it once, reopen it in a later process, keep inserting.

Run with:  python examples/persistence.py
"""

import os
import tempfile

import numpy as np

from repro import Database, histogram_dataset


def main() -> None:
    directory = tempfile.mkdtemp(prefix="srtree-demo-")
    path = os.path.join(directory, "images.srtree")

    # --- first "process": build and close --------------------------------
    data = histogram_dataset(3000, bins=16, seed=5)
    with Database.create(path, kind="srtree", dims=16) as db:
        db.insert_many(data, values=[f"img-{i}" for i in range(3000)])
        query = data[7]
        expected = [n.value for n in db.knn(query, 5)]
    # closing saved the metadata into page 0 and fsynced

    size = os.path.getsize(path)
    print(f"wrote {path}")
    print(f"  {size:,} bytes = {size // 8192} pages of 8192 bytes\n")

    # --- second "process": reopen and query -------------------------------
    with Database.open(path) as reopened:
        print(f"reopened: {reopened.size} points, "
              f"height {reopened.stats()['height']}, {reopened.dims}-d")
        got = [n.value for n in reopened.knn(query, 5)]
        assert got == expected, "results must survive the round trip"
        print(f"  top-5 for the saved query: {got}")

        # The reopened tree is fully dynamic: keep inserting.
        rng = np.random.default_rng(0)
        fresh = rng.dirichlet(np.ones(16), size=100)
        for i, p in enumerate(fresh):
            reopened.insert(p, f"new-{i}")
        print(f"  inserted 100 more -> size {reopened.size}")
        reopened.verify()

    # --- third "process": verify the additions persisted ------------------
    with Database.open(path) as final:
        assert final.size == 3100
        print(f"\nreopened again: size {final.size} — additions are durable")


if __name__ == "__main__":
    main()
