"""Thread-safe, byte-capped LRU result store of the evaluation service.

The serving layer memoises finished request payloads keyed on the request
fingerprints of :mod:`repro.service.fingerprint`.  The store follows the
pattern proven by the branch-and-bound scheduled-prefix memo of PR 2 --
bound the *bytes* held, not the entry count, because entry sizes vary by
orders of magnitude (a simulation payload is one float, a makespan payload
carries a witness schedule) -- but adds genuine LRU ordering and eviction
instead of the memo's clear-wholesale policy: a long-lived service must
keep its hot set warm across bursts, not restart from scratch whenever the
cap is reached.

Entries are stored by reference; payloads are JSON-style trees (dicts,
lists, strings, numbers) that callers must treat as immutable.  The facade
hands copies to its callers so external mutation cannot poison the store.

Hit/miss/eviction counters are maintained for tests, the ``/stats``
endpoint and capacity tuning (see ``docs/service.md``).

The same LRU also holds *aliases*: the SHA-256 digest of an answered HTTP
request (``bytes``) mapped to the fingerprint its payload is stored under,
so a byte-identical repeat is answered without parsing its body.  Aliases
share the byte cap and the recency order with the payloads, but they are
not entries: ``entries``, ``len()``, iteration and the eviction count
describe payloads only, and reading an alias counts neither a hit nor a
miss.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Iterator, Optional, Union

__all__ = ["estimate_size", "ResultCache"]

#: Fallback size (bytes) for objects ``sys.getsizeof`` cannot measure.
_DEFAULT_SIZE = 64

#: Per-entry bookkeeping overhead charged on top of the key/value sizes
#: (OrderedDict link, dict slot, the stored tuple).
_ENTRY_OVERHEAD = 128


def estimate_size(value: object) -> int:
    """Recursive best-effort byte estimate of a JSON-style payload tree.

    Containers are charged their own ``sys.getsizeof`` plus the deep size
    of their items; shared sub-objects are counted once (cycle-safe).
    numpy arrays report their buffer via ``nbytes``.  The estimate is used
    for cache accounting only -- it need not be exact, just monotone in the
    actual footprint.
    """
    seen: set[int] = set()

    def sized(obj: object) -> int:
        identity = id(obj)
        if identity in seen:
            return 0
        seen.add(identity)
        nbytes = getattr(obj, "nbytes", None)
        if nbytes is not None:  # numpy arrays and scalars
            return int(nbytes) + _DEFAULT_SIZE
        try:
            total = sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic objects
            total = _DEFAULT_SIZE
        if isinstance(obj, dict):
            total += sum(sized(key) + sized(item) for key, item in obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            total += sum(sized(item) for item in obj)
        return total

    return sized(value)


class ResultCache:
    """Byte-capped LRU mapping request fingerprints to result payloads.

    Parameters
    ----------
    max_bytes:
        Upper bound on the estimated bytes held (keys + values + per-entry
        overhead).  Inserting beyond the bound evicts least-recently-used
        entries and aliases; a single entry larger than the whole cap is
        rejected outright (counted in ``rejected``) rather than flushing the
        store.

    A key is a fingerprint (``str``) or a body digest (``bytes``, see
    :meth:`put_alias`).  All operations are thread-safe; reads refresh
    recency.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[Union[str, bytes], tuple[object, int]] = OrderedDict()
        self._aliases = 0
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(
        self, key: Union[str, bytes], default: Optional[object] = None
    ) -> Optional[object]:
        """Return the payload stored under ``key`` (refreshing recency).

        A digest reads the payload of the fingerprint it aliases, refreshing
        both; while the alias or that payload is missing it returns
        ``default`` and counts nothing, not a miss.
        """
        with self._lock:
            if isinstance(key, bytes):
                fingerprint = self._target(key)
                if fingerprint is None:
                    return default
                self._entries.move_to_end(key)
                key = fingerprint
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def peek(self, key: str, default: Optional[object] = None) -> Optional[object]:
        """Like :meth:`get` but without touching recency or counters.

        Used by the batch executor to resolve requests that raced with a
        concurrent insertion -- those shortcuts must not skew the hit/miss
        statistics the tests and the ``/stats`` endpoint report.
        """
        with self._lock:
            entry = self._entries.get(key)
            return default if entry is None else entry[0]

    def put(self, key: str, value: object) -> bool:
        """Store ``value`` under ``key``; return ``False`` when rejected.

        Re-inserting an existing key replaces the payload and refreshes
        recency.  Entries whose estimated size alone exceeds ``max_bytes``
        are rejected (the store keeps its current contents).
        """
        size = estimate_size(key) + estimate_size(value) + _ENTRY_OVERHEAD
        with self._lock:
            if size > self.max_bytes:
                self._rejected += 1
                return False
            self._store(key, value, size)
            return True

    def put_alias(self, digest: bytes, fingerprint: str) -> bool:
        """Alias ``digest`` to ``fingerprint``, so :meth:`get` of the digest
        reads that fingerprint's payload.  Refused (``False``) unless the
        payload is held: an answer the store does not keep gets no alias."""
        size = estimate_size(digest) + estimate_size(fingerprint) + _ENTRY_OVERHEAD
        with self._lock:
            if fingerprint not in self._entries or size > self.max_bytes:
                return False
            self._store(digest, fingerprint, size)
            return True

    def _store(self, key: Union[str, bytes], value: object, size: int) -> None:
        """Insert under the lock, evicting from the LRU end to make room."""
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous[1]
        elif isinstance(key, bytes):
            self._aliases += 1
        while self._bytes + size > self.max_bytes and self._entries:
            evicted, (_, evicted_size) = self._entries.popitem(last=False)
            self._bytes -= evicted_size
            if isinstance(evicted, bytes):
                self._aliases -= 1
            else:
                self._evictions += 1
        self._entries[key] = (value, size)
        self._bytes += size

    def _target(self, digest: bytes) -> Optional[str]:
        """The fingerprint ``digest`` aliases, while both are held (lock held)."""
        entry = self._entries.get(digest)
        if entry is None or entry[0] not in self._entries:
            return None
        return entry[0]

    def __contains__(self, key: Union[str, bytes]) -> bool:
        """Whether :meth:`get` would find a payload for ``key``."""
        with self._lock:
            if isinstance(key, bytes):
                return self._target(key) is not None
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries) - self._aliases

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter([key for key in self._entries if not isinstance(key, bytes)])

    def clear(self) -> None:
        """Drop every entry and alias (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._aliases = 0
            self._bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bytes_used(self) -> int:
        """Estimated bytes currently held, aliases included."""
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        """Counters and occupancy for tests, metrics and ``/stats``."""
        with self._lock:
            return {
                "entries": len(self._entries) - self._aliases,
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "rejected": self._rejected,
            }
