"""The span recorder, the shims that feed it, and the self-time roll-up.

The ledger times the program *from outside*: :func:`install` replaces a
public callable (a class method or a module-level function) with a shim
that records a span -- name, start, end, the span that caused it -- and
calls through.  Spans stay in memory and are written out when the run
ends.  Each thread keeps its own span list and parent stack, so the
server's handler threads and the client threads never share a stack; a
span's call id is the index of its root span.

A layer's *self* time is a span's duration minus the part its child spans
cover, so the self times of one call sum to the root span's duration
exactly; :meth:`Rollup.check_sums` asserts it.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter

import numpy as np


class _ThreadLog:
    __slots__ = ("spans", "top")

    def __init__(self) -> None:
        self.spans: list = []  # [name_id, parent, start, end, value]
        self.top = -1


class Recorder:
    """In-memory span store; one :class:`_ThreadLog` per recording thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, measure=None):
        """A shim around ``fn`` recording one span per call.

        ``measure(args, kwargs, result)`` may return a number stored with
        the span (payload bytes, say).
        """
        name_id = self._name_id(name)
        get_log = self._log

        def shim(*args, **kwargs):
            log = get_log()
            spans = log.spans
            parent = log.top
            record = [name_id, parent, 0.0, 0.0, 0.0]
            log.top = len(spans)
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                log.top = parent
            if measure is not None:
                record[4] = measure(args, kwargs, result)
            return result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        return shim

    def install(self, module: str, path: str, name: str, measure=None) -> None:
        """Shim ``module:path`` (``Class.method`` or ``function``) as ``name``.

        Fails loudly when the callable no longer exists, so a refactor
        cannot silently zero a layer.
        """
        owner = importlib.import_module(module)
        *parents, attribute = path.split(".")
        for part in parents:
            owner = _require(owner, part, module, path)
        original = owner.__dict__.get(attribute) if isinstance(owner, type) else None
        if original is None:
            original = _require(owner, attribute, module, path)
        if isinstance(original, staticmethod):
            shim = staticmethod(self.wrap(original.__func__, name, measure))
        else:
            if not callable(original):
                raise LookupError(f"{module}:{path} is not callable")
            shim = self.wrap(original, name, measure)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, shim)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def clear(self) -> None:
        """Drop every recorded span (call between calls, not inside one)."""
        with self._lock:
            for log in self._logs:
                if log.top != -1:
                    raise RuntimeError("clear() called inside a span")
                log.spans.clear()

    # -- reading back --------------------------------------------------

    def columns(self) -> dict:
        """Every span as columns; parents and call ids index the merged rows."""
        name, parent, start, end, value = [], [], [], [], []
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            base = len(name)
            for n, p, s, e, v in log.spans:
                name.append(n)
                parent.append(p + base if p >= 0 else -1)
                start.append(s)
                end.append(e)
                value.append(v)
        return {"names": list(self.names), "name": name, "parent": parent,
                "start": start, "end": end, "value": value}


def _require(owner, attribute: str, module: str, path: str):
    try:
        return getattr(owner, attribute)
    except AttributeError:
        raise LookupError(
            f"ledger shim target {module}:{path} no longer exists "
            f"(no attribute {attribute!r}); update ledger/shims.py"
        ) from None


class Rollup:
    """Per-name counts, durations and self times over a set of spans."""

    def __init__(self, columns: dict, *, since: float = -np.inf,
                 until: float = np.inf) -> None:
        self.names = columns["names"]
        name = np.asarray(columns["name"], dtype=np.int64)
        parent = np.asarray(columns["parent"], dtype=np.int64)
        start = np.asarray(columns["start"], dtype=np.float64)
        end = np.asarray(columns["end"], dtype=np.float64)
        value = np.asarray(columns["value"], dtype=np.float64)
        call = np.arange(name.size)
        # Parents precede children in every thread log, so one forward
        # pass resolves each span's root.
        for i in np.nonzero(parent >= 0)[0]:
            call[i] = call[parent[i]]
        keep = (start[call] >= since) & (end[call] <= until)
        duration = end - start
        covered = np.zeros(name.size)
        has_parent = keep & (parent >= 0)
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self.name, self.parent = name[keep], parent[keep]
        self.duration, self.self_time = duration[keep], (duration - covered)[keep]
        self.value = value[keep]
        self.root_name = name[call][keep]

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def _mask(self, prefix: str, under: str | None) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names)
               if n == prefix or n.startswith(prefix + ".")]
        mask = np.isin(self.name, ids)
        if under is not None:
            mask &= self.root_name == self._id(under)
        return mask

    def count(self, prefix: str, under: str | None = None) -> int:
        return int(self._mask(prefix, under).sum())

    def total(self, prefix: str, under: str | None = None) -> float:
        """Summed durations of spans named ``prefix`` (or ``prefix.*``)."""
        return float(self.duration[self._mask(prefix, under)].sum())

    def self_total(self, prefix: str, under: str | None = None) -> float:
        return float(self.self_time[self._mask(prefix, under)].sum())

    def longest(self, prefix: str) -> float:
        durations = self.duration[self._mask(prefix, None)]
        return float(durations.max()) if durations.size else 0.0

    def values(self, prefix: str) -> np.ndarray:
        return self.value[self._mask(prefix, None)]

    def check_sums(self) -> float:
        """Assert self times sum to the root durations; returns root seconds."""
        roots = float(self.duration[self.parent < 0].sum())
        selves = float(self.self_time.sum())
        if abs(roots - selves) > 1e-6 * max(roots, 1e-9):
            raise AssertionError(
                f"self times sum to {selves!r}, root calls to {roots!r}")
        return roots

    def coverage(self) -> float:
        """Share of root-call time attributed to a child span, not root residue."""
        root = self.parent < 0
        total = float(self.duration[root].sum())
        return 1.0 - float(self.self_time[root].sum()) / total if total else 0.0

    def table(self) -> dict:
        """``{name: {count, total_s, self_s}}`` for the trace file."""
        out = {}
        for i in np.unique(self.name):
            mask = self.name == i
            out[self.names[i]] = {
                "count": int(mask.sum()),
                "total_s": float(self.duration[mask].sum()),
                "self_s": float(self.self_time[mask].sum()),
            }
        return out


def write_trace(path, columns: dict, rollup: Rollup, *, max_spans: int = 50000,
                extra: dict | None = None) -> None:
    """Write the roll-up and the first ``max_spans`` raw spans as JSON."""
    head = {key: columns[key][:max_spans]
            for key in ("name", "parent", "start", "end", "value")}
    doc = {"names": columns["names"], "spans_total": len(columns["name"]),
           "spans_written": len(head["name"]), "rollup": rollup.table(),
           "spans": head, **(extra or {})}
    with open(path, "w") as out:
        json.dump(doc, out)
