"""The ``machine`` block each ``bench_*.py`` record carries.

Wall times depend on the CPUs the process may use, which can be fewer
than the machine has (scheduler affinity, container limits), so every
record states both counts and the Python version beside its numbers.
The scripts run as ``python benchmarks/bench_*.py`` and import this
module from their own directory.
"""

import os
import platform


def available_cpus():
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def machine_block():
    """``{"cpus", "available_cpus", "python"}`` for a bench record."""
    return {"cpus": os.cpu_count(), "available_cpus": available_cpus(),
            "python": platform.python_version()}
