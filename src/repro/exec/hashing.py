"""Canonical parameter hashing for content-addressed result caching.

A cache key must be stable across processes, Python versions and dict
orderings, and must change whenever anything that could change the
result changes.  ``canonicalize`` lowers an arbitrary parameter tree —
scalars, numpy arrays, dataclasses (``RelayConfig``, ``Scenario``,
``LatencyBudget``, ...), plain objects like :class:`~repro.netsim.testbed.Testbed`
— into a deterministic JSON-able structure; ``digest`` hashes that
structure with SHA-256.

Floats are keyed by ``repr`` (bit-exact for doubles), arrays by dtype,
shape and a SHA-256 of their contiguous bytes, so two parameter sets
collide only if they are value-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np


def _array_token(arr):
    arr = np.ascontiguousarray(arr)
    return ["nd", arr.dtype.str, list(arr.shape),
            hashlib.sha256(arr.tobytes()).hexdigest()]


def canonicalize(obj):
    """Lower ``obj`` into a deterministic, JSON-serialisable structure.

    Raises :class:`TypeError` for values with no stable representation
    (open files, generators, ...) rather than producing an unstable key.
    """
    return _canonical(obj, {})


def _canonical(obj, memo):
    """:func:`canonicalize`, lowering each non-scalar object once.

    ``memo`` maps ``id(obj)`` to ``(obj, form)`` for every object lowered
    so far; holding ``obj`` keeps its id from being reused while the
    memo lives.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, complex):
        return ["c", repr(obj.real), repr(obj.imag)]
    hit = memo.get(id(obj))
    if hit is None:
        hit = memo[id(obj)] = (obj, _compound(obj, memo))
    return hit[1]


def _compound(obj, memo):
    if isinstance(obj, (bytes, bytearray)):
        return ["b", hashlib.sha256(bytes(obj)).hexdigest()]
    if isinstance(obj, np.ndarray):
        return _array_token(obj)
    if isinstance(obj, np.generic):        # numpy scalar
        return ["ns", obj.dtype.str, repr(obj.item())]
    if isinstance(obj, Path):
        return ["p", str(obj)]
    if isinstance(obj, dict):
        items = [(_canonical(k, memo), _canonical(v, memo))
                 for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["d", items]
    if isinstance(obj, (list, tuple)):
        return ["l" if isinstance(obj, list) else "t",
                [_canonical(v, memo) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        items = [_canonical(v, memo) for v in obj]
        items.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return ["s", items]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _canonical(getattr(obj, f.name), memo)
                  for f in dataclasses.fields(obj)}
        return ["dc", type(obj).__qualname__, _canonical(fields, memo)]
    if hasattr(obj, "__dict__") and not callable(obj):
        # Plain value object (Testbed, PropagationModel, ...): identity
        # is its type plus every public attribute.
        state = {k: v for k, v in vars(obj).items()
                 if not k.startswith("__")}
        return ["o", type(obj).__qualname__, _canonical(state, memo)]
    raise TypeError(
        f"cannot canonicalise {type(obj).__qualname__!r} for cache keying")


def digest(obj):
    """SHA-256 hex digest of the canonical form of ``obj``."""
    return _sha256(canonicalize(obj))


def digests(objs):
    """``[digest(obj) for obj in objs]``, lowering each shared object once.

    An object reached again, in the same tree or another (every task of
    a sweep's scenario carries that one ``Scenario``), reuses its
    canonical form, so the digests are byte-identical to :func:`digest`'s.
    """
    memo = {}
    return [_sha256(_canonical(obj, memo)) for obj in objs]


def _sha256(form):
    payload = json.dumps(form, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
