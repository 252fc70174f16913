# Convenience targets for development and reproduction runs.

.PHONY: install lint sloc build-digest wal-mix test test-crash test-concurrency test-mp test-net test-batching bench bench-paper-scale results-check examples all

# Byte-compile everything and run the dependency-free pyflakes-level
# checker (tools/lint.py upgrades itself to real pyflakes when
# installed).  CI runs this on every push/PR (.github/workflows/ci.yml).
lint:
	python -m compileall -q src tests benchmarks examples tools
	python tools/lint.py

# Code lines (no blanks, comments or docstrings) per file and package
# under src/repro, so "this PR removed N lines" is a reported number.
# CI prints it after lint.
sloc:
	python tools/sloc.py

# SHA-256, tree digest and microseconds per point of seeded index
# files: every tree family built (and a tenth deleted), bulk loads, and
# the ledger's three corpora.  Equal SHA-256s on one machine mean a
# change built the same files; equal tree digests, the same trees (a
# codec change moves only the former).  CI prints them next to sloc,
# informationally (einsum's vectorised sums may round differently on
# another CPU).
build-digest:
	python tools/build_digest.py

# Write-ahead log bytes per insert by record kind (IMAGE/DELTA of leaves
# and internal nodes, META, META_DELTA, BEGIN/COMMIT) for 2 000 inserts
# of cluster_mixed_wal's insert stream, and the peak (data + log) over
# user bytes that the ledger reports as space_amp.  About 15 s; CI
# prints it next to sloc, informationally.
wal-mix:
	python tools/wal_mix.py

# `pip install -e .` needs the `wheel` package for PEP 517 editable
# builds; offline environments fall back to the legacy setuptools path.
install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# The durability suite on its own: checksum sweeps, WAL replay and
# ordering, the log-record state machine (needs hypothesis: IMAGE, DELTA
# and META_DELTA records under aborts, stale bases, truncates and kills;
# the reserved PAGE record refused, by hand), the node store's model
# (needs hypothesis: snapshot pins, batched commits, aborts, saves,
# checkpoints, process kills and OS crashes against committed page maps
# by epoch; deeper here than in tier-1), and the randomized crash
# harness (210 fixed-seed kill points across the three paper workloads,
# each reopening in WAL mode; a torn meta page), and fills under a log
# (the static build, bulk_load, a served build) killed before any flush.
# CI runs this as a dedicated job.
test-crash:
	PYTHONPATH=src python -m pytest tests/test_checksums.py tests/test_wal.py \
	    tests/test_wal_ordering.py tests/test_wal_delta.py \
	    tests/test_node_store_model.py tests/test_crash_recovery.py \
	    tests/test_cli_durability.py tests/test_durable_fills.py \
	    -q --hypothesis-profile=deep

# Snapshot isolation under real thread interleaving: unit tests for the
# epoch/COW layer plus the randomized writer/reader stress harness.
# faulthandler dumps all stacks if a deadlock eats the hard timeout.
test-concurrency:
	timeout -k 10 600 env PYTHONFAULTHANDLER=1 PYTHONPATH=src \
	    python -m pytest tests/test_snapshots.py tests/test_concurrency.py -q

# Multiprocess serving under the spawn start method (the portable one:
# macOS/Windows default, and the only method safe under threads): the
# mmap page store, the ProcessServingPool crash/equivalence suite, and
# the files holding the pool-contract tests parametrized over both
# backends (the `pool_backend` fixture starts its worker processes by
# fork in tier-1 and by REPRO_MP_START_METHOD here).
# faulthandler dumps all stacks if a deadlock eats the hard timeout.
test-mp:
	timeout -k 10 600 env PYTHONFAULTHANDLER=1 REPRO_MP_START_METHOD=spawn \
	    PYTHONPATH=src \
	    python -m pytest tests/test_mmap_pagefile.py tests/test_procpool.py \
	    tests/test_serving_faults.py tests/test_exec_batch.py -q

# The network query service: QuerySurface conformance across all five
# handle kinds (remote results byte-equal to local on the three paper
# workloads) plus the server's admission-control, deadline, and
# graceful-drain behaviors (a burst at 4x max_inflight must shed with
# 429 while zero in-flight queries are dropped during drain), and the
# telemetry endpoint, which stands on the same HTTP substrate
# (repro/httpd.py: request framing and keep-alive, over raw sockets).
# faulthandler dumps all stacks if a hung socket eats the hard timeout.
test-net:
	timeout -k 10 600 env PYTHONFAULTHANDLER=1 PYTHONPATH=src \
	    python -m pytest tests/test_query_surface.py tests/test_net.py \
	    tests/test_obs_server.py -q

# Dynamic micro-batching: the coalescing scheduler's flush triggers
# (full/timer/deadline/drain), bit-equality of coalesced vs serial
# dispatch on the three paper workloads, deadline sheds that leave
# batchmates unharmed, and the client connection pool's concurrency.
test-batching:
	timeout -k 10 600 env PYTHONFAULTHANDLER=1 PYTHONPATH=src \
	    python -m pytest tests/test_batching.py -q

bench:
	pytest benchmarks/ --benchmark-only

# Approach the paper's original data-set sizes (slow).  The tables go to
# benchmarks/results/scale10/, beside the scale-1 ones results-check gates.
bench-paper-scale:
	REPRO_BENCH_SCALE=10 pytest benchmarks/ --benchmark-only

# Gate the archived paper tables: re-run benchmarks/ and fail if any
# count column of benchmarks/results/*.txt moved (timing columns are
# ignored; tables that did not move are put back untouched).  About
# four minutes.  A change that is meant to move a count commits the
# rewritten table this leaves behind.
results-check:
	python tools/results_diff.py

examples:
	python examples/quickstart.py
	python examples/spatial_queries.py
	python examples/persistence.py
	python examples/cluster_analysis.py
	python examples/image_retrieval.py
	python examples/index_shootout.py

all: install lint test bench
