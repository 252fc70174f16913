"""Write-ahead log: commit protocol, replay idempotency, torn tails."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import WALError
from repro.storage import (
    InMemoryPageFile,
    WriteAheadLog,
    open_wal,
    recover,
    scan_wal,
)

PAGE = 64


@pytest.fixture
def log_path(tmp_path):
    return str(tmp_path / "test.wal")


def fresh_pagefile(pages: int = 8) -> InMemoryPageFile:
    pf = InMemoryPageFile(PAGE)
    for pid in range(pages):
        pf.ensure_allocated(pid)
    return pf


def image(tag: bytes) -> bytes:
    return tag + b"\x00" * (PAGE - len(tag))


def test_commit_then_recover_replays_pages(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(2, image(b"two"))
    wal.log_page(3, image(b"three"))
    wal.log_page(0, image(b"meta"))  # META_PAGE_ID == 0
    wal.commit()
    wal.close()

    pf = fresh_pagefile()
    report = recover(pf, log_path)
    assert report.committed_txns == 1
    assert report.replayed_pages == 3
    assert report.replayed_meta
    assert pf.read(2) == image(b"two")
    assert pf.read(3) == image(b"three")
    assert pf.read(0) == image(b"meta")


def test_uncommitted_txn_is_discarded(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(1, image(b"committed"))
    wal.commit()
    wal.begin()
    wal.log_page(1, image(b"doomed"))
    wal.close()  # crash before commit

    pf = fresh_pagefile()
    report = recover(pf, log_path)
    assert report.committed_txns == 1
    assert report.discarded_txns == 1
    assert pf.read(1) == image(b"committed")


def test_replay_is_idempotent(log_path):
    wal = WriteAheadLog(log_path)
    for n in range(3):
        wal.begin()
        wal.log_page(n, image(b"v%d" % n))
        wal.commit()
    wal.close()

    pf = fresh_pagefile()
    recover(pf, log_path, truncate=False)
    first = [pf.read(pid) for pid in range(3)]
    recover(pf, log_path, truncate=False)  # replay the same log again
    second = [pf.read(pid) for pid in range(3)]
    assert first == second


def test_later_txn_wins_on_the_same_page(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(1, image(b"old"))
    wal.commit()
    wal.begin()
    wal.log_page(1, image(b"new"))
    wal.commit()
    wal.close()

    pf = fresh_pagefile()
    recover(pf, log_path)
    assert pf.read(1) == image(b"new")


def test_torn_tail_is_discarded(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(1, image(b"good"))
    wal.commit()
    wal.begin()
    wal.log_page(2, image(b"half"))
    wal.commit()
    wal.close()
    # Tear the file inside the second transaction's records.
    size = os.path.getsize(log_path)
    with open(log_path, "r+b") as handle:
        handle.truncate(size - PAGE // 2)

    committed, report = scan_wal(log_path)
    assert len(committed) == 1
    assert report.discarded_bytes > 0
    pf = fresh_pagefile()
    recover(pf, log_path)
    assert pf.read(1) == image(b"good")
    from repro.exceptions import PageNotFoundError

    with pytest.raises(PageNotFoundError):
        pf.read(2)  # the torn transaction was never replayed


def test_corrupt_record_stops_the_scan(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(1, image(b"ok"))
    wal.commit()
    wal.begin()
    wal.log_page(2, image(b"bad"))
    wal.commit()
    wal.close()
    # Flip a bit in the *second* transaction's page payload.
    with open(log_path, "r+b") as handle:
        data = bytearray(handle.read())
        idx = data.index(b"bad")
        data[idx] ^= 0xFF
        handle.seek(0)
        handle.write(bytes(data))

    committed, _report = scan_wal(log_path)
    assert [t.txn_id for t in committed] == [1]


def test_recovery_truncates_the_log(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(1, image(b"x"))
    wal.commit()
    wal.close()
    assert os.path.getsize(log_path) > 0
    recover(fresh_pagefile(), log_path)
    assert os.path.getsize(log_path) == 0


def test_open_wal_continues_txn_id_sequence(log_path):
    wal = WriteAheadLog(log_path)
    first = wal.begin()
    wal.log_page(1, image(b"a"))
    wal.commit()
    wal.close()

    wal2 = open_wal(log_path)
    second = wal2.begin()
    wal2.commit()
    wal2.close()
    assert second > first

    committed, _ = scan_wal(log_path)
    assert {t.txn_id for t in committed} == {first, second}


def test_abort_drops_records(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(1, image(b"nope"))
    wal.abort()
    wal.begin()
    wal.log_page(1, image(b"yes"))
    wal.commit()
    wal.close()

    pf = fresh_pagefile()
    recover(pf, log_path)
    assert pf.read(1) == image(b"yes")


def test_txn_protocol_errors(log_path):
    wal = WriteAheadLog(log_path)
    with pytest.raises(WALError):
        wal.log_page(1, image(b"no txn"))
    with pytest.raises(WALError):
        wal.commit()
    wal.begin()
    with pytest.raises(WALError):
        wal.begin()
    wal.abort()
    wal.close()


def test_commit_reports_the_fsync_boundary(log_path):
    """commit() returns True exactly when it fsynced — the signal the
    node store uses to keep batched commits off the data file."""
    wal = WriteAheadLog(log_path, sync_every=3)
    outcomes = []
    for _ in range(6):
        wal.begin()
        wal.log_page(1, image(b"p"))
        outcomes.append(wal.commit())
    wal.close()
    assert outcomes == [False, False, True, False, False, True]

    wal1 = WriteAheadLog(log_path + ".solo", sync_every=1)
    wal1.begin()
    assert wal1.commit() is True  # unbatched: every commit is durable
    wal1.close()


def test_sync_every_batches_fsyncs(log_path, monkeypatch):
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    wal = WriteAheadLog(log_path, sync_every=3)
    for _ in range(6):
        wal.begin()
        wal.log_page(1, image(b"p"))
        wal.commit()
    wal.close()
    assert len(fsyncs) == 2  # 6 commits / sync_every=3

    # Everything still recovers: flush-on-commit keeps the records
    # visible to this process even between fsyncs.
    committed, _ = scan_wal(log_path)
    assert len(committed) == 6


def test_oversized_page_image_rejected(log_path):
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.log_page(1, b"z" * (PAGE * 2))
    wal.commit()
    wal.close()
    with pytest.raises(WALError):
        recover(fresh_pagefile(), log_path)


def test_wal_commits_metric_counts(log_path):
    from repro.obs.hooks import WAL_COMMITS

    before = WAL_COMMITS.value
    wal = WriteAheadLog(log_path)
    wal.begin()
    wal.commit()
    wal.close()
    assert WAL_COMMITS.value == before + 1
