"""Seeded random-number-generator helpers.

Every stochastic component in the library takes either a seed or a
:class:`numpy.random.Generator`.  Centralising the coercion here keeps
experiments reproducible: a single integer seed at the top of a benchmark
deterministically drives every channel draw, noise sample and placement.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed_or_rng=None):
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned as-is so callers can share a stream).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def child_seeds(seed_or_rng, count):
    """Draw ``count`` independent integer child seeds.

    The seed material behind :func:`child_rngs`, exposed separately so
    sweeps can ship a plain integer per task to worker processes and
    rebuild the exact generator there:
    ``numpy.random.default_rng(child_seeds(s, n)[i])`` is bit-identical
    to ``child_rngs(s, n)[i]``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = make_rng(seed_or_rng)
    return [int(s) for s in root.integers(0, 2**63 - 1, size=count)]


def child_rngs(seed_or_rng, count):
    """Spawn ``count`` independent child generators.

    Used when an experiment fans out over many locations/trials and each
    needs its own reproducible stream regardless of evaluation order.
    """
    return [np.random.default_rng(s) for s in child_seeds(seed_or_rng, count)]
