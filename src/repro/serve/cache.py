"""Content-addressed LRU cache for sampling results.

Keys are :meth:`repro.spec.JobSpec.cache_key` digests — a key equality
*guarantees* result equality (the key hashes everything that can reach a
sampled bit, and sampling is a pure function of it), so serving a cached
entry is indistinguishable from re-running the job.  Values are the
wire-encoded result documents of :mod:`repro.serve.wire`, so a hit skips
the result encoder: a sample batch is stored as one base64 string, and
the server's ``json.dumps`` of the response copies it.

Eviction is LRU over *two* bounds — a maximum entry count (``capacity``)
and a maximum total payload size (``max_bytes``, measured as the JSON
encoding of each value at insertion, which is about its size on the
wire: 11 kB for an n=256, R=32 sample batch) — whichever is exceeded
first.  A single sample_many result can be orders of magnitude larger
than a mixing-time scalar, so an entry-count bound alone does not bound
memory.

Entries carry an optional *model fingerprint* tag; :meth:`invalidate`
drops every entry tagged with a given fingerprint, which is how the
daemon retires results for a model that has been mutated away.

``hits``/``misses``/``evictions``/``invalidated`` counters feed the
daemon's ``/v1/stats`` route and the E17 benchmark.  The cache is
thread-safe (the daemon touches it from its event loop, benchmarks and
tests from wherever they like).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import NamedTuple

from repro.errors import ModelError

__all__ = ["ResultCache"]


class _Entry(NamedTuple):
    value: object
    nbytes: int
    fingerprint: str | None


class ResultCache:
    """A bounded LRU mapping of cache keys to wire-encoded results.

    ``capacity`` is the maximum number of entries; ``0`` disables caching
    entirely (every ``get`` misses, ``put`` is a no-op) — useful for
    measuring cold-path performance.  ``max_bytes`` additionally bounds
    the summed JSON-encoded size of the cached values (``None`` leaves
    bytes unbounded); an entry larger than ``max_bytes`` on its own is
    simply not retained.
    """

    def __init__(self, capacity: int = 128, max_bytes: int | None = None) -> None:
        if capacity < 0:
            raise ModelError(f"cache capacity must be >= 0, got {capacity}")
        if max_bytes is not None and max_bytes < 0:
            raise ModelError(f"cache max_bytes must be >= 0, got {max_bytes}")
        self.capacity = int(capacity)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0

    def get(self, key: str):
        """Return the cached value for ``key`` (refreshing it), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry.value
            self.misses += 1
            return None

    def put(self, key: str, value, fingerprint: str | None = None) -> None:
        """Insert/refresh ``key``; evicts least-recently-used past either bound.

        ``fingerprint`` tags the entry with the model fingerprint its
        result belongs to, making it a target for :meth:`invalidate`.
        """
        if self.capacity == 0:
            return
        nbytes = len(json.dumps(value, separators=(",", ":")))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = _Entry(value, nbytes, fingerprint)
            self._bytes += nbytes
            while self._entries and self._over_bounds():
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    def _over_bounds(self) -> bool:
        if len(self._entries) > self.capacity:
            return True
        return self.max_bytes is not None and self._bytes > self.max_bytes

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry tagged with ``fingerprint``; returns the count.

        Invalidated entries are counted separately from capacity
        ``evictions`` — they were retired because their model mutated,
        not because the cache was full.
        """
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if entry.fingerprint == fingerprint
            ]
            for key in stale:
                self._bytes -= self._entries.pop(key).nbytes
            self.invalidated += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe the lifetime)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """Counters and occupancy as one JSON-able dict."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "max_bytes": self.max_bytes,
                "size": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"ResultCache(capacity={self.capacity}, size={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
