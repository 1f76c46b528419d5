"""Spans and counters recorded from outside the package.

A wrapper replaces a function at the place where its callers look it
up: a module attribute, or an entry of a dispatch dict.  Spans (name,
start, end, parent) go into flat arrays so that a few hundred thousand
of them cost a few megabytes.  The module imports only the standard
library, so loading it does not move work out of the measured set-up.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self._targets: list[tuple[object, str, object, object]] = []

    # ---------------------------------------------------------- spans

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # ---------------------------------------------------------- wrappers

    def span(self, name: str, fn, sizes=()):
        """Time every call; each (key, measure) in ``sizes`` records
        ``measure(result)`` under ``key``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            for key, measure in sizes:
                self.sizes[key] = measure(result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        """Time each resumption of a generator, so the consumer's work
        between items is not charged to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.finish(sid)
                yield item

        return wrapper

    def counter(self, name: str, fn):
        """Count calls without timing them, for functions too hot to span."""
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, owners, key: str, make) -> None:
        """Register ``make(original)`` in place of ``key`` on each owner
        (a module or a dict); every owner must hold the same original."""
        originals = {id(_get(owner, key)) for owner in owners}
        if len(originals) != 1:
            raise ValueError(f"{key} differs between its owners")
        original = _get(owners[0], key)
        wrapped = make(original)
        self._targets += [(owner, key, original, wrapped) for owner in owners]

    def install(self) -> None:
        for owner, key, _, wrapped in self._targets:
            _set(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._targets:
            _set(owner, key, original)

    # ---------------------------------------------------------- summaries

    def inclusive(self, lo: int, hi: int) -> dict[str, float]:
        """Summed duration per span name over spans lo..hi-1."""
        out: dict[str, float] = {}
        for sid in range(lo, hi):
            name = self.names[self.name[sid]]
            out[name] = out.get(name, 0.0) + self.end[sid] - self.start[sid]
        return out

    def self_time(self, name: str, lo: int, hi: int) -> float:
        """Summed duration of the ``name`` spans in lo..hi-1 minus the
        part their direct children cover."""
        nid = self._ids.get(name)
        total = 0.0
        for sid in range(lo, hi):
            dur = self.end[sid] - self.start[sid]
            if self.name[sid] == nid:
                total += dur
            elif self.parent[sid] >= 0 and self.name[self.parent[sid]] == nid:
                total -= dur
        return total

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
