# Convenience targets for development and reproduction runs.

.PHONY: install lint sloc build-digest wal-mix buffer-replay test test-crash test-concurrency test-mp test-net test-batching bench bench-paper-scale results-check examples all

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

# Write-ahead log bytes per insert by record kind (IMAGE/DELTA of leaves,
# internal nodes and the meta page, BEGIN/COMMIT) for 2 000 inserts
# of cluster_mixed_wal's insert stream, and the peak (data + log) over
# user bytes that the ledger reports as space_amp.  About 15 s; CI
# prints it next to sloc, informationally.
wal-mix:
	python tools/wal_mix.py

# Physical reads per query of uniform_single and uniform_batch (seed 0,
# fixed count) from their exact buffer-pool lookup streams, replayed
# through BufferPool (equal to the ledger's pages_per_query to the
# digit), SIEVE alone, exact LFU, the most looked-up pages held for good,
# and Belady with bypass.  About 10 s; CI prints it next to sloc,
# informationally.
buffer-replay:
	python tools/buffer_replay.py

# `pip install -e .` needs the `wheel` package for PEP 517 editable
# builds; offline environments fall back to the legacy setuptools path.
install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# The durability suite on its own: checksum sweeps, WAL replay and
# ordering, the log-record state machine (needs hypothesis: IMAGE and
# DELTA records of node pages and of the meta page, page 0, under aborts,
# stale bases, truncates and kills; the reserved PAGE, META and
# META_DELTA records refused, by hand), the node store's model
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
# read-only page store a worker reads through (no pool process maps the
# index file) and MmapPageFile's unit tests, the node decode (a decoded
# node owns its rows and shares no memory with the page image; a full
# pool holds rows, not pages), the serving pool's crash/equivalence
# suite, its fault tests (a FaultPlan per worker process), the
# pool-contract tests and the tie-order property's pool leg (a 2-worker
# pool returns the Database's neighbor lists where distances tie).
# Every pool a test builds comes from the `serving_pool`
# fixture (tests/conftest.py), which starts its workers by fork in
# tier-1 and by REPRO_MP_START_METHOD here.
# faulthandler dumps all stacks if a deadlock eats the hard timeout.
test-mp:
	timeout -k 10 600 env PYTHONFAULTHANDLER=1 REPRO_MP_START_METHOD=spawn \
	    PYTHONPATH=src \
	    python -m pytest tests/test_mmap_pagefile.py tests/test_zero_copy.py \
	    tests/test_procpool.py tests/test_serving_faults.py \
	    tests/test_exec_batch.py tests/test_tie_order.py -q

# The network query service: QuerySurface conformance across all four
# handle kinds (remote results byte-equal to local on the three paper
# workloads) plus the server's admission-control, deadline, and
# graceful-drain behaviors (a burst at 4x max_inflight must shed with
# 429 while zero in-flight queries are dropped during drain), the
# telemetry paths the server answers on the same port (/metrics,
# /healthz, /varz, still answered during the drain), and the HTTP
# substrate (repro/httpd.py: request framing and keep-alive, over raw
# sockets; a peer stalled inside a head or body is closed after
# MESSAGE_TIMEOUT_S and never holds an admission slot, an idle
# keep-alive connection is not cut), with the request fuzzers
# (tests/test_net_fuzz.py: generated raw requests against the framing
# oracle, generated matrix-frame bodies on every read endpoint against
# the served Database, some behind a held knn, and on /v1/insert,
# /v1/insert_many and /v1/delete against a second Database, and damaged
# frames on a serving-pool worker's pipe)
# and the client's wire decoders against a lying server
# (tests/test_net_decoders.py: generated neighbor blocks and matrix
# frames, cut, flipped and lying about their lengths); both need
# hypothesis and run deeper here than in tier-1.
# faulthandler dumps all stacks if a hung socket eats the hard timeout.
test-net:
	timeout -k 10 600 env PYTHONFAULTHANDLER=1 PYTHONPATH=src \
	    python -m pytest tests/test_query_surface.py tests/test_net.py \
	    tests/test_obs_server.py tests/test_net_fuzz.py \
	    tests/test_net_decoders.py -q --hypothesis-profile=deep

# Group commit in the query server: a lone request runs alone, what
# queues behind a running call is answered by one batched call (at most
# MAX_GROUP), bit-equal to serial dispatch on the three paper workloads;
# deadline sheds that leave groupmates unharmed; drain; the client
# connection pool's concurrency; the scheduler against its model
# under generated interleavings; and one answer per query where
# distances tie: Database, Snapshot, every block size, iter_nearest,
# range, a coalesced group and a pool return the same neighbor lists,
# ordered by (distance, page, slot); and one traversal per query kind on
# every family: range, the block engine's range, a snapshot's range,
# iter_nearest and window against brute force, the pages a range reads
# against the slot-order traversal it replaced, EXPLAIN pages against
# IOStats (all need hypothesis; deeper here than in tier-1).
test-batching:
	timeout -k 10 600 env PYTHONFAULTHANDLER=1 PYTHONPATH=src \
	    python -m pytest tests/test_batching.py \
	    tests/test_coalesce_model.py tests/test_tie_order.py \
	    tests/test_one_traversal.py -q --hypothesis-profile=deep

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
