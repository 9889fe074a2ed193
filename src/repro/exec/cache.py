"""Content-addressed on-disk result cache.

Each completed task's result is stored under ``.repro-cache/`` in a
single ``.npz`` file named by its cache key (see
:meth:`repro.exec.task.Task.cache_key` — a SHA-256 over function
qualname, version tag, canonicalised params and seed).  Values are
arbitrary JSON-able trees with numpy arrays at the leaves: arrays are
stored as npz members, the remaining structure as one JSON document, so
a cached result round-trips bit-identically (dtype, shape and value).

Writes are atomic (:func:`repro.utils.atomic.atomic_replace`) so a
sweep killed mid-store never leaves a corrupt entry — at worst the
entry is absent and the task re-runs on resume.  Hit/miss/store/
invalidation counters are kept per cache instance.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.utils.atomic import atomic_replace

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_FORMAT = 1


class CacheMiss(Exception):
    """Internal sentinel: the entry is absent, corrupt or stale."""


def _encode(value, arrays):
    """Lower ``value`` to JSON, hoisting ndarrays into ``arrays``."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"__complex__": [float(value.real), float(value.imag)]}
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return {"__nd__": len(arrays) - 1}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v, arrays) for v in value]}
    if isinstance(value, list):
        return [_encode(v, arrays) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _encode(v, arrays) for k, v in value.items()}
        return {"__dict__": [[_encode(k, arrays), _encode(v, arrays)]
                             for k, v in value.items()]}
    raise TypeError(
        f"cannot cache value of type {type(value).__qualname__!r}; task "
        f"results must be trees of scalars, strings, lists, dicts and "
        f"numpy arrays")


def _decode(node, arrays):
    if isinstance(node, list):
        return [_decode(v, arrays) for v in node]
    if isinstance(node, dict):
        if "__nd__" in node:
            return arrays[node["__nd__"]]
        if "__tuple__" in node:
            return tuple(_decode(v, arrays) for v in node["__tuple__"])
        if "__complex__" in node:
            re, im = node["__complex__"]
            return complex(re, im)
        if "__dict__" in node:
            return {_freeze(_decode(k, arrays)): _decode(v, arrays)
                    for k, v in node["__dict__"]}
        return {k: _decode(v, arrays) for k, v in node.items()}
    return node


def _freeze(key):
    return tuple(key) if isinstance(key, list) else key


@dataclass
class ResultCacheStats:
    """Counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    #: Entries whose bytes would not load (torn zip, bad JSON, wrong
    #: format) — a subset of ``invalidations``, kept separately so a
    #: chaos run can assert corruption was *seen* and evicted, not
    #: merely missed.
    corrupt: int = 0

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """A content-addressed store of task results under ``root``."""

    def __init__(self, root=DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = ResultCacheStats()

    def _path(self, key):
        return self.root / key[:2] / f"{key}.npz"

    def contains(self, key):
        """Whether an entry exists (no counters touched)."""
        return self._path(key).exists()

    def get(self, key, default=None):
        """The cached value for ``key``, or ``default`` on a miss.

        Corrupt or format-incompatible entries count as invalidations:
        they are deleted and reported as misses.
        """
        path = self._path(key)
        try:
            value = self._load(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return default
        except (CacheMiss, OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError):
            # A torn or stale entry is evicted and recomputed — never a
            # crash: chaos-corrupted .npz bytes surface here as
            # BadZipFile/EOFError/ValueError depending on where the
            # tear landed.
            self.stats.corrupt += 1
            self.stats.invalidations += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return default
        self.stats.hits += 1
        return value

    def _load(self, path):
        with np.load(path, allow_pickle=False) as payload:
            meta = json.loads(str(payload["__meta__"]))
            if meta.get("format") != _FORMAT:
                raise CacheMiss(path)
            tree = json.loads(str(payload["__tree__"]))
            arrays = [payload[f"a{i}"] for i in range(meta["arrays"])]
        return _decode(tree, arrays)

    def put(self, key, value, fn=None, version=None):
        """Store ``value`` under ``key`` atomically."""
        arrays = []
        tree = _encode(value, arrays)
        meta = {"format": _FORMAT, "arrays": len(arrays),
                "fn": fn, "version": version}
        members = {"__meta__": np.asarray(json.dumps(meta)),
                   "__tree__": np.asarray(json.dumps(tree))}
        for i, arr in enumerate(arrays):
            members[f"a{i}"] = arr

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_replace(path) as tmp, open(tmp, "wb") as fh:
            np.savez(fh, **members)
        self.stats.stores += 1

    def invalidate(self, fn=None):
        """Drop entries (all, or those stored for task function ``fn``).

        Returns the number of entries removed; each removal counts as an
        invalidation.
        """
        removed = 0
        for path in self.root.glob("*/*.npz"):
            if fn is not None:
                try:
                    with np.load(path, allow_pickle=False) as payload:
                        meta = json.loads(str(payload["__meta__"]))
                except (OSError, ValueError, KeyError, EOFError,
                        zipfile.BadZipFile, json.JSONDecodeError):
                    meta = {}
                if meta.get("fn") != fn:
                    continue
            path.unlink(missing_ok=True)
            removed += 1
        self.stats.invalidations += removed
        return removed

    def __len__(self):
        return sum(1 for _ in self.root.glob("*/*.npz"))
