"""The five workloads, driven through the public surfaces only.

``repro.Database``, ``repro.exec.ServingPool`` and ``python -m repro serve``
with ``repro.net.RemoteDatabase`` are the only entry points used; counters
come from ``Database.index.stats``, ``pool.stats()`` / ``worker_stats()``,
the remote ``stats()`` and the child's ``/varz``.

Every workload has the same life cycle::

    build()    generate the inputs from the seed, build the base index
    open()     open the handle / spawn the pool / start the server, warm up
    clients    the closed-loop clients (see ledger/driver.py)
    counters() a flat dict of public counters, for before/after deltas
    verify()   check every recorded answer against the brute-force oracle
    close()    stop every child and wait for it

``build`` + ``open`` is what ``setup_s`` times.  Call indices run on from
the warm-up into the timed window, so a workload is one deterministic
stream of calls whatever the stop rule.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path
from time import perf_counter

import numpy as np

import repro
from repro.exec import ServingPool

from . import data, spec
from .driver import run_closed_loop

SAMPLE = 32  # answers kept whole for the bit-equality check against Database.knn


def _distances(neighbors) -> np.ndarray:
    return np.fromiter((n.distance for n in neighbors), dtype=np.float64,
                       count=len(neighbors))


def _same_answer(a, b) -> bool:
    """Bit-equality of two neighbor lists: distance, payload and point."""
    return len(a) == len(b) and all(
        x.distance == y.distance and x.value == y.value
        and np.array_equal(x.point, y.point) for x, y in zip(a, b))


def build_index(path: Path, points: np.ndarray) -> int:
    """Build the base index through the public facade; returns its leaf count."""
    with repro.Database.create(path, kind=spec.INDEX_KIND, dims=spec.DIMS,
                               page_size=spec.PAGE_SIZE, overwrite=True) as db:
        db.insert_many(points)
        return db.index.leaf_count()


QUERY_IO = ("page_reads", "leaf_reads", "buffer_hits", "buffer_misses",
            "distance_computations")


def _io_counters(stats) -> dict:
    """IOStats as a counter dict; ``q_*`` is the share spent answering queries."""
    out = {"q_" + name: getattr(stats, name) for name in QUERY_IO}
    out["page_writes"] = stats.page_writes
    return out


def _registry_counters() -> dict:
    flat = repro.REGISTRY.flatten()
    return {
        "splits": sum(v for k, v in flat.items()
                      if k.startswith("repro_node_splits_total")),
        "reinserts": sum(v for k, v in flat.items()
                         if k.startswith("repro_forced_reinserts_total")),
    }


class QueryClient:
    """One closed-loop caller of single ``knn`` queries on any handle."""

    def __init__(self, handle, queries: np.ndarray, offset: int = 0) -> None:
        self.handle = handle
        self.queries = queries
        self.offset = offset
        self.got: dict[int, np.ndarray] = {}  # call index -> distances
        self.kept: dict[int, list] = {}  # query row -> whole answer
        self.check_every = 1  # the oracle checks calls whose index divides by this

    def row(self, i: int) -> int:
        return (i + self.offset) % self.queries.shape[0]

    def begin(self, i: int) -> tuple[str, int]:
        return "knn", 1

    def call(self, i: int):
        return self.handle.knn(self.queries[self.row(i)], spec.K)

    def done(self, i: int, out) -> None:
        self.got[i] = _distances(out)
        row = self.row(i)
        if row < SAMPLE and row not in self.kept:
            self.kept[row] = out

    def wrong(self, oracle: np.ndarray) -> int:
        return sum(not data.same_distances(got, oracle[self.row(i)])
                   for i, got in self.got.items() if i % self.check_every == 0)


class BlockClient(QueryClient):
    """One caller of multi-query calls: ``size`` consecutive query rows each."""

    def __init__(self, handle, queries, size: int, invoke) -> None:
        super().__init__(handle, queries)
        self.size = size
        self.invoke = invoke  # (handle, block) -> list of neighbor lists

    def rows(self, i: int) -> np.ndarray:
        return (np.arange(self.size) + i * self.size) % self.queries.shape[0]

    def begin(self, i: int) -> tuple[str, int]:
        return "knn_block", self.size

    def call(self, i: int):
        return self.invoke(self.handle, self.queries[self.rows(i)])

    def done(self, i: int, out) -> None:
        self.got[i] = [_distances(answer) for answer in out]
        for row, answer in zip(self.rows(i), out):
            if row < SAMPLE and row not in self.kept:
                self.kept[int(row)] = answer

    def wrong(self, oracle: np.ndarray) -> int:
        bad = 0
        for i, answers in self.got.items():
            rows = self.rows(i)
            if len(answers) != len(rows):
                bad += len(rows)
                continue
            bad += sum(not data.same_distances(got, oracle[row])
                       for row, got in zip(rows, answers))
        return bad


class Workload:
    """Common state and the life cycle's defaults."""

    name = ""
    remote = False
    client_count = 1
    bit_equal_to_single = False  # also compare kept answers with Database.knn's

    def __init__(self, seed: int, workdir: Path, *, src: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.size = spec.WORKLOADS[self.name]
        scale = spec.SMOKE_SCALE if smoke else 1.0
        self.nominal_calls = max(1, round(self.size["calls"] * scale))
        self.warmup_calls = max(1, round(self.nominal_calls * spec.WARMUP_SHARE))
        self.leaves = 0
        self.handle = None
        self.clients: list = []
        self.path = workdir / "base.idx"
        workdir.mkdir(parents=True, exist_ok=True)

    # -- life cycle ----------------------------------------------------
    def build(self) -> None:
        rng = np.random.default_rng([spec.CORPUS_SEED, 1])
        self.points = self.make_points(rng)
        self.queries = self.make_queries(np.random.default_rng([self.seed, 2]))
        self.leaves = build_index(self.path, self.points)

    def make_points(self, rng) -> np.ndarray:
        return data.uniform_points(rng, self.size["points"], spec.DIMS)

    def make_queries(self, rng) -> np.ndarray:
        return data.uniform_points(rng, self.size["queries"], spec.DIMS)

    def open(self, traced: bool = False) -> None:
        self.start(traced)
        self.warm_up()

    def start(self, traced: bool) -> None:
        """Open the handle (or spawn the children) and create the clients."""
        raise NotImplementedError

    def warm_up(self) -> None:
        run_closed_loop(self.clients, max_calls=self.warmup_calls)

    def counters(self) -> dict:
        raise NotImplementedError

    def child_pids(self) -> list:
        return []

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None

    # -- checks and sizes ----------------------------------------------
    def verify(self) -> tuple[int, list]:
        """``(wrong answers, notes)`` over every recorded call."""
        oracle = data.knn_distances(self.points, self.queries, spec.K)
        wrong = sum(client.wrong(oracle) for client in self.clients)
        if self.bit_equal_to_single:
            wrong += self.reference_mismatches()
        return wrong, []

    def reference_mismatches(self) -> int:
        """Kept answers that are not bit-equal to ``Database.knn``'s."""
        kept = {}
        for client in self.clients:
            kept.update(client.kept)
        self.close()  # no second handle on a file the workers still map
        with repro.Database.open(self.path) as db:
            return sum(not _same_answer(answer, db.knn(self.queries[row], spec.K))
                       for row, answer in kept.items())

    def stored_bytes(self) -> int:
        return os.path.getsize(self.path)

    def user_bytes(self) -> int:
        return self.points.shape[0] * spec.DIMS * 8

    def describe(self) -> dict:
        return {
            "points": int(self.points.shape[0]), "dims": spec.DIMS, "k": spec.K,
            "index_pages": os.path.getsize(self.path) // spec.PAGE_SIZE,
            "leaves": self.leaves, "query_pool": int(self.queries.shape[0]),
            "warmup_calls": self.warmup_calls, "clients": self.client_count,
        }


class UniformSingle(Workload):
    name = "uniform_single"

    def start(self, traced: bool) -> None:
        self.handle = repro.Database.open(self.path)
        self.clients = [QueryClient(self.handle, self.queries)]

    def counters(self) -> dict:
        return _io_counters(self.handle.index.stats)


class UniformBatch(UniformSingle):
    name = "uniform_batch"
    bit_equal_to_single = True

    def start(self, traced: bool) -> None:
        self.handle = repro.Database.open(self.path)
        self.clients = [BlockClient(
            self.handle, self.queries, self.size["batch"],
            lambda db, block: db.knn_batch(block, spec.K))]


class UniformPool(Workload):
    name = "uniform_pool"
    client_count = spec.CLIENTS
    bit_equal_to_single = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spawn_s = 0.0
        self.block_times: list = []  # per call: [(wall_ms, queries), ...]

    def start(self, traced: bool) -> None:
        began = perf_counter()
        self.handle = ServingPool(self.path, workers=spec.CLIENTS, backend="process")
        self.spawn_s = perf_counter() - began
        block = self.size["block"]

        def invoke(pool, queries):
            results, times = pool.knn(queries, spec.K, block_size=block,
                                      with_times=True)
            self.block_times.append(times)
            return results

        # One block per worker and call, so each entry of ``times`` is one
        # worker's busy time for that call.
        self.clients = [BlockClient(self.handle, self.queries,
                                     block * spec.CLIENTS, invoke)]

    def warm_up(self) -> None:
        super().warm_up()
        self.block_times.clear()

    def counters(self) -> dict:
        out = _io_counters(self.handle.stats())
        out["degraded"] = self.handle.degraded_queries
        out["respawns"] = sum(w["respawns"] for w in self.handle.worker_stats())
        return out

    def child_pids(self) -> list:
        return [w["pid"] for w in self.handle.worker_stats()]


class ClusterWorkload(Workload):
    """Clustered points; queries sit beside stored points."""

    def make_points(self, rng) -> np.ndarray:
        self.model = data.ClusterModel(rng, self.size["clusters"], spec.DIMS)
        return self.model.dataset(rng, self.size["per_cluster"])

    def make_queries(self, rng) -> np.ndarray:
        per = self.size["per_cluster"]
        clusters = self.model.spread_ids(rng, self.size["queries"])
        rows = clusters * per + rng.integers(0, per, clusters.shape[0])
        return data.queries_near(rng, self.points, rows)


class ClusterRemote(ClusterWorkload):
    name = "cluster_remote"
    remote = True
    client_count = spec.CLIENTS
    SERVER_FLAGS = ["--port", "0", "--telemetry-port", "0"]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.child = None
        self.telemetry_url = ""
        self.address = ""
        self.trace_out: Path | None = None
        self.cold_pages_per_query = 0.0
        # The cold pass has to pull the whole index into the buffer even in a
        # smoke run, or the window is not the fits-in-the-buffer regime.
        self.warmup_calls = max(1, round(self.size["calls"] * spec.WARMUP_SHARE))

    def start(self, traced: bool) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONUNBUFFERED="1")
        if traced:
            self.trace_out = self.workdir / "server_spans.json"
            env["LEDGER_TRACE_OUT"] = str(self.trace_out)
            launcher = [str(Path(__file__).with_name("serve_traced.py"))]
        else:
            launcher = ["-m", "repro"]
        self.child = subprocess.Popen(
            [sys.executable, *launcher, "serve", "--index", str(self.path),
             *self.SERVER_FLAGS],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self._read_banner()
        share = self.queries.shape[0] // spec.CLIENTS
        self.clients = [
            QueryClient(repro.RemoteDatabase.connect(self.address, pool_size=1),
                        self.queries, offset=slot * share)
            for slot in range(spec.CLIENTS)]
        self.handle = self.clients[0].handle
        for client in self.clients:
            client.check_every = 10  # a 10 % sample of the remote answers

    def warm_up(self) -> None:
        # From one thread, the connections taking turns: the cold pass is
        # then the same sequence of page reads on every run.
        before = self.handle.stats()["page_reads"]
        for i in range(self.warmup_calls):
            for client in self.clients:
                client.done(i, client.call(i))
        cold = self.handle.stats()["page_reads"] - before
        self.cold_pages_per_query = cold / (self.warmup_calls * len(self.clients))

    def _read_banner(self, timeout: float = 60.0) -> None:
        """Parse the two addresses ``repro serve`` prints; bounded wait."""
        lines: list = []

        def read() -> None:
            for line in self.child.stdout:
                lines.append(line)
                if "drains and exits" in line:
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        text = "".join(lines)
        if reader.is_alive() or "http://" not in text:
            self.close()
            raise RuntimeError(f"repro serve did not start: {text!r}")
        for line in lines:
            if line.startswith("serving "):
                self.address = line.split("http://")[1].split("/v1")[0]
            elif line.startswith("telemetry at "):
                self.telemetry_url = line.split()[2]

    def varz(self) -> dict:
        with urllib.request.urlopen(self.telemetry_url + "/varz", timeout=10) as reply:
            return json.load(reply)["metrics"]

    def counters(self) -> dict:
        flat = self.varz()

        def total(prefix: str, needle: str = "") -> float:
            return sum(v for k, v in flat.items()
                       if k.startswith(prefix) and needle in k)

        return {
            "q_page_reads": self.handle.stats()["page_reads"],
            "q_leaf_reads": total("repro_page_reads_total", 'level="leaf"'),
            "q_buffer_hits": total("repro_buffer_lookups_total", 'outcome="hit"'),
            "q_buffer_misses": total("repro_buffer_lookups_total", 'outcome="miss"'),
            "q_distance_computations": total("repro_distance_computations_total"),
            "request_seconds": total("repro_net_request_seconds_sum", 'endpoint="knn"'),
            "request_count": total("repro_net_request_seconds_count", 'endpoint="knn"'),
            "query_seconds": total("repro_query_seconds_sum", 'op="knn"'),
            "query_count": total("repro_query_seconds_count", 'op="knn"'),
            "shed": total("repro_shed_requests_total"),
        }

    def child_pids(self) -> list:
        return [self.child.pid] if self.child is not None else []

    def close(self) -> None:
        for client in self.clients:
            client.handle.close()
        self.clients = []
        self.handle = None
        if self.child is not None:
            self.child.send_signal(signal.SIGTERM)
            try:
                self.child.wait(30)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()
            self.child = None

    def describe(self) -> dict:
        out = super().describe()
        out["server"] = ("python -m repro serve " + " ".join(self.SERVER_FLAGS)
                         + " (one Database handle, batching off)")
        return out


class ClusterMixedWal(ClusterWorkload):
    name = "cluster_mixed_wal"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.copy = self.workdir / "live.idx"
        self.wal = Path(str(self.copy) + ".wal")

    def build(self) -> None:
        super().build()
        rng = np.random.default_rng([self.seed, 3])
        # The insert stream: far more points than any window can consume.
        self.stream = self.model.draw(rng, self.model.spread_ids(rng, 20000))

    def start(self, traced: bool) -> None:
        for stale in (self.copy, self.wal):
            stale.unlink(missing_ok=True)
        shutil.copyfile(self.path, self.copy)
        self.handle = repro.Database.open(self.copy, durability="wal",
                                          sync_every=spec.SYNC_EVERY)
        self.clients = [MixedClient(self.handle, self.queries, self.stream,
                                     self.points.shape[0], self.copy, self.wal)]

    def counters(self) -> dict:
        client = self.clients[0]
        out = {"q_" + name: spent for name, spent in zip(QUERY_IO, client.query_io)}
        out.update(_registry_counters())
        out.update(page_writes=self.handle.index.stats.page_writes,
                   wal_bytes=client.wal_bytes, wal_growths=client.wal_growths,
                   checkpoints=client.checkpoints)
        return out

    def stored_bytes(self) -> int:
        return self.clients[0].peak_bytes

    def user_bytes(self) -> int:
        return (self.points.shape[0] + self.clients[0].inserted) * spec.DIMS * 8

    def verify(self) -> tuple[int, list]:
        """Oracle over base + inserts, then verify(), close, reopen, recheck."""
        client = self.clients[0]
        base = data.knn_distances(self.points, self.queries, spec.K)
        stream = self.stream[: client.inserted]
        wrong = 0
        for i, got in client.got.items():
            row = client.row(i)
            present = i // spec.MIXED_CYCLE + 1  # inserts committed before call i
            extra = data.distances_to(stream[:present], self.queries[row])
            want = np.sort(np.concatenate([base[row], extra]))[: spec.K]
            wrong += not data.same_distances(got, want)
        notes = []
        self.handle.verify()
        self.handle.close()
        self.handle = None
        with repro.Database.open(self.copy) as db:
            expected = self.points.shape[0] + client.inserted
            if db.size != expected:
                wrong += 1
                notes.append(f"reopened size {db.size} != {expected}")
            everything = np.concatenate([self.points, stream])
            rows = range(0, self.queries.shape[0], self.queries.shape[0] // 50)
            want = data.knn_distances(everything, self.queries[list(rows)], spec.K)
            for at, row in enumerate(rows):
                got = _distances(db.knn(self.queries[row], spec.K))
                wrong += not data.same_distances(got, want[at])
            self.leaves = db.index.leaf_count()
        return wrong, notes

    def describe(self) -> dict:
        out = super().describe()
        out.update(durability="wal", sync_every=spec.SYNC_EVERY,
                   fsync_policy=f"group commit: fsync the log on every "
                                f"{spec.SYNC_EVERY}th commit")
        return out


class MixedClient(QueryClient):
    """Cycles of one ``insert`` and four ``knn``; watches the files it grows."""

    def __init__(self, handle, queries, stream, base_size: int,
                 data_file: Path, wal_file: Path) -> None:
        super().__init__(handle, queries)
        self.stream = stream
        self.base_size = base_size
        self.files = (str(data_file), str(wal_file))
        self.stats = handle.index.stats
        self.inserted = 0
        self.query_io = [0] * len(QUERY_IO)  # IOStats spent inside knn calls
        self._io_before: list = []
        self.wal_bytes = 0  # bytes the log grew by, summed over growing inserts
        self.wal_growths = 0
        self.checkpoints = 0  # times the log shrank: an auto-checkpoint truncated it
        self.peak_bytes = 0
        self._wal_size = os.path.getsize(self.files[1])

    def row(self, i: int) -> int:
        cycle, slot = divmod(i, spec.MIXED_CYCLE)
        return (cycle * (spec.MIXED_CYCLE - 1) + slot - 1) % self.queries.shape[0]

    def _io_now(self) -> list:
        return [getattr(self.stats, name) for name in QUERY_IO]

    def begin(self, i: int) -> tuple[str, int]:
        if i % spec.MIXED_CYCLE == 0:
            return "insert", 1
        self._io_before = self._io_now()
        return "knn", 1

    def call(self, i: int):
        if i % spec.MIXED_CYCLE == 0:
            at = i // spec.MIXED_CYCLE
            return self.handle.insert(self.stream[at], self.base_size + at)
        return self.handle.knn(self.queries[self.row(i)], spec.K)

    def done(self, i: int, out) -> None:
        if i % spec.MIXED_CYCLE:
            self.query_io = [spent + now - before for spent, now, before
                             in zip(self.query_io, self._io_now(), self._io_before)]
            self.got[i] = _distances(out)
            return
        self.inserted += 1
        data_size, wal_size = (os.path.getsize(f) for f in self.files)
        if wal_size > self._wal_size:
            self.wal_bytes += wal_size - self._wal_size
            self.wal_growths += 1
        elif wal_size < self._wal_size:
            self.checkpoints += 1
        self._wal_size = wal_size
        self.peak_bytes = max(self.peak_bytes, data_size + wal_size)


WORKLOADS = {cls.name: cls for cls in (
    UniformSingle, UniformBatch, UniformPool, ClusterRemote, ClusterMixedWal)}
