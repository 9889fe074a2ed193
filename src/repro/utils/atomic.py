"""Atomic file replacement: readers see the old file or the new one."""

from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_replace(path):
    """Yield a temp path to write; ``os.replace`` it onto ``path`` on success.

    The temp file is unique and created (empty) in ``path``'s own
    directory, so the final rename never crosses a filesystem and a
    reader polling ``path`` never sees a torn file.  If the body raises,
    the temp file is unlinked and ``path`` is left exactly as it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.",
                               suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
