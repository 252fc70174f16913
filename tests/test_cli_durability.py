"""CLI durability surface: build --durability, recover, verify."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.cli import main
from repro.storage import CHECKSUM_TRAILER_SIZE


@pytest.fixture
def data_file(tmp_path, rng):
    path = tmp_path / "points.npy"
    np.save(path, rng.random((150, 4)))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_build_durable_then_verify(tmp_path, data_file, capsys):
    out = tmp_path / "durable.db"
    code = run("build", "--kind", "srtree", "--data", data_file,
               "--out", out, "--page-size", "2048", "--durability", "wal")
    assert code == 0
    assert "WAL" in capsys.readouterr().out
    # Sealed (enlarged) physical pages, as without a log.
    assert out.stat().st_size % (2048 + CHECKSUM_TRAILER_SIZE) == 0

    assert run("verify", "--index", out) == 0
    text = capsys.readouterr().out
    assert "OK" in text and "checksummed" in text


def test_build_replaces_an_existing_index(tmp_path, data_file, capsys):
    """--out onto an earlier build leaves one tree, not two: the file is
    the size of a first build, whatever geometry the old one had."""
    clean, out = tmp_path / "clean.db", tmp_path / "rebuilt.db"
    assert run("build", "--data", data_file, "--out", clean,
               "--durability", "wal") == 0
    assert run("build", "--data", data_file, "--out", out) == 0
    assert run("build", "--data", data_file, "--out", out,
               "--durability", "wal") == 0
    assert out.stat().st_size == clean.stat().st_size
    assert (out.with_name("rebuilt.db.wal").stat().st_size
            == clean.with_name("clean.db.wal").stat().st_size)
    capsys.readouterr()
    assert run("verify", "--index", out) == 0
    assert "150 points" in capsys.readouterr().out


def test_recover_on_clean_file_is_a_noop(tmp_path, data_file, capsys):
    out = tmp_path / "clean.db"
    run("build", "--data", data_file, "--out", out, "--durability", "wal")
    assert run("recover", "--index", out) == 0
    assert "no write-ahead log" in capsys.readouterr().out


def test_recover_replays_a_crashed_log(tmp_path, data_file, capsys):
    from repro import Database
    from repro.exceptions import CrashError
    from repro.storage import FaultPlan

    points = np.load(data_file)

    def insert_all(path: str, plan: FaultPlan):
        """Bytes written (log and data file) after each completed insert,
        and the handle the budget ran out under (``None``: closed cleanly)."""
        with Database.create(path, kind="sr", dims=4, durability="wal",
                             page_size=2048):
            pass
        db = Database.open(path, fault_plan=plan, sync_every=50)
        written = []
        try:
            for i, point in enumerate(points):
                db.insert(point, value=i)
                written.append(plan.bytes_written)
        except CrashError:
            return written, db
        db.close()
        return written, None

    # Die in the log record(s) of insert 21, before the first fsync
    # boundary: the budget comes from an uncrashed run, not a literal.
    written, _ = insert_all(str(tmp_path / "probe.db"), FaultPlan())
    budget = (written[19] + written[20]) // 2
    out = str(tmp_path / "crashed.db")
    completed, db = insert_all(out, FaultPlan(fail_after_write_bytes=budget))
    assert db is not None and len(completed) == 20
    # Model process death: hand the buffered bytes to the "OS".
    pagefile = db.index.store.pagefile
    while hasattr(pagefile, "inner"):
        pagefile = pagefile.inner
    pagefile.close()  # positional I/O is unbuffered; closing the fd is enough
    db.index.store.wal.close()

    assert run("recover", "--index", out) == 0
    text = capsys.readouterr().out
    assert "recovered" in text
    # Repeat writes of a page were logged as byte ranges, and replayed.
    assert int(re.search(r"(\d+) delta\(s\)", text).group(1)) > 0
    assert run("verify", "--index", out) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_fails_on_corruption(tmp_path, data_file, capsys):
    """A default build (no log) seals its pages too: one flipped byte in
    a tree page fails that page's CRC."""
    out = tmp_path / "rotten.db"
    run("build", "--data", data_file, "--out", out, "--page-size", "2048")
    physical = 2048 + CHECKSUM_TRAILER_SIZE
    with open(out, "r+b") as handle:
        handle.seek(2 * physical + 100)  # inside page 2's sealed image
        byte = handle.read(1)
        handle.seek(-1, 1)
        handle.write(bytes([byte[0] ^ 0xFF]))
    assert run("verify", "--index", out) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "page 2: CRC32 mismatch" in err


def test_recover_missing_file_errors(tmp_path):
    assert run("recover", "--index", tmp_path / "nope.db") == 2


NOT_AN_INDEX = {
    "random": np.random.default_rng(7).bytes(20_000),
    "empty": b"",
    "short": b"RPROMET1\x00\x20",
}


@pytest.fixture(params=sorted(NOT_AN_INDEX))
def impostor(request, tmp_path):
    path = tmp_path / f"{request.param}.db"
    path.write_bytes(NOT_AN_INDEX[request.param])
    return path


@pytest.mark.parametrize("command", ["info", "query", "verify", "recover"])
def test_a_file_that_is_not_an_index_is_refused_in_words(
        impostor, command, capsys):
    argv = [command, "--index", impostor]
    if command == "query":
        argv += ["--point", "0.5,0.5,0.5,0.5", "-k", "3"]
    before = impostor.read_bytes()
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {impostor} is not a repro index file " \
                  "(it does not start with a meta superblock)\n"
    assert "clean shutdown" not in out and "Traceback" not in out + err
    assert impostor.read_bytes() == before
    assert not impostor.with_name(impostor.name + ".wal").exists()


def test_the_library_refuses_a_file_that_is_not_an_index(impostor):
    from repro import Database
    from repro.exceptions import ReproError, StorageError
    from repro.exec import ServingPool

    for opener in (Database.open, ServingPool):
        with pytest.raises(ReproError, match="is not a repro index file") as info:
            opener(str(impostor))
        assert not isinstance(info.value, StorageError)  # not "damage"
    assert not impostor.with_name(impostor.name + ".wal").exists()


#: What an older build left clear in the superblock's flags, the bit,
#: and the words every way in refuses such a file with.
OLDER_FORMATS = {
    "count-packed": (0x0002, "was written with count-packed node bodies by an "
                             "older build, and this build reads only fixed-offset "
                             "node blocks: rebuild the index from its points"),
    "bare-pages": (0x0001, "was written with bare pages by an older build, and "
                           "this build reads only pages sealed with a CRC32 "
                           "trailer: rebuild the index from its points"),
}


@pytest.mark.parametrize("older", sorted(OLDER_FORMATS))
def test_an_older_format_is_refused_untouched(older, tmp_path, data_file, capsys):
    """An older build packed node bodies by count, or left its pages
    bare, and so left one of the superblock's flags clear.  Every way in
    refuses such a file in one line, exit 2, before recovery: the file
    and its log keep every byte."""
    from repro import Database
    from repro.exceptions import ReproError, StorageError
    from repro.exec import ServingPool

    flag, words = OLDER_FORMATS[older]
    path = tmp_path / "old.db"
    assert run("build", "--kind", "srtree", "--data", data_file, "--out", path) == 0
    image = bytearray(path.read_bytes())
    flags = int.from_bytes(image[12:14], "little")  # after magic + page size
    assert flags & 0x0003 == 0x0003  # this build sets both
    image[12:14] = (flags & ~flag).to_bytes(2, "little")
    path.write_bytes(bytes(image))
    log = tmp_path / "old.db.wal"
    log.write_bytes(b"a torn tail recovery would truncate")
    before = (path.read_bytes(), log.read_bytes())
    capsys.readouterr()
    for argv in (["info", "--index", path],
                 ["query", "--index", path, "--point", "0.5,0.5,0.5,0.5", "-k", "3"],
                 ["verify", "--index", path], ["recover", "--index", path]):
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {path} {words}\n"
        assert "Traceback" not in out + err
    for opener in (Database.open, ServingPool):
        with pytest.raises(ReproError, match=words.split(",")[0]) as info:
            opener(str(path))
        assert not isinstance(info.value, StorageError)
    assert (path.read_bytes(), log.read_bytes()) == before
