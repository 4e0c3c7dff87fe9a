"""Content-addressed on-disk stores: the one writer and reader behind both.

A :class:`ContentStore` is a directory of one file per entry, named by a
content fingerprint.  The stage-2 result cache
(:class:`repro.jobs.cache.ResultCache`) and the stage-1 store
(:class:`repro.sim.stage1_store.Stage1Store`) both subclass it and keep
only their key and their entry encoding and decoding.

Robustness contract, shared by every store:

* writes are atomic (:func:`atomic_write`: a temp file in the same
  directory, then :func:`os.replace`), so a reader never sees a torn
  entry and a failed write keeps the previous one;
* a missing entry, and one whose decoder returns ``None`` (written by
  an incompatible engine), is a plain miss;
* an entry the decoder cannot read (truncated, garbage bytes, a
  missing member) is a miss counted as ``corrupt``.  Stores are
  accelerators: recomputing an entry is always safe, so nothing here
  raises on a damaged file.

Hit, miss, write and corrupt totals are kept as attributes and, once
:meth:`ContentStore.bind_telemetry` is called, mirrored onto
``<counters>.*`` telemetry counters.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from pathlib import Path

from repro.common.errors import ReproError

#: Per-store totals, as attributes and as ``<counters>.<name>`` counters.
COUNTS = ("hits", "misses", "writes", "corrupt")

#: What a decoder raises on a damaged entry: unreadable or non-UTF-8
#: bytes, malformed JSON or zip, missing members or keys, wrong types.
_DAMAGED = (
    OSError, EOFError, ValueError, KeyError, TypeError, AttributeError,
    zipfile.BadZipFile, ReproError,
)


def atomic_write(path: str | Path, write) -> None:
    """Create or replace ``path`` with what ``write(fh)`` puts in it.

    ``write`` gets a binary file handle on a temporary file in the same
    directory, which is moved into place with :func:`os.replace` once it
    returns.  A reader therefore never sees a partial file, and a
    ``write`` that raises leaves the previous version and no temp file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, atomically (:func:`atomic_write`)."""
    atomic_write(path, lambda fh: fh.write(bytes(text, "utf-8")))


class ContentStore:
    """A directory of fingerprint-named entries.

    Subclasses set :attr:`kind` (the noun used in error messages),
    :attr:`suffix` (the entry file extension) and :attr:`counters` (the
    telemetry counter prefix), and define their own ``get``/``put`` on
    top of :meth:`_read` and :meth:`_write`.
    """

    kind = "store"
    suffix = ".bin"
    counters = "store"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(
                f"cannot create {self.kind} at {self.root}: {exc}"
            ) from exc
        self.hits = self.misses = self.writes = self.corrupt = 0
        self._registry = None

    @classmethod
    def coerce(cls, store):
        """A store handle from a store, its root directory, or None."""
        if store is None or isinstance(store, cls):
            return store
        return cls(store)

    def bind_telemetry(self, registry) -> None:
        """Mirror the totals onto ``<counters>.*`` counters."""
        self._registry = registry
        for name in COUNTS:
            registry.counter(f"{self.counters}.{name}")

    def _count(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        if self._registry is not None:
            self._registry.counter(f"{self.counters}.{name}").inc()

    def path_for(self, fingerprint: str) -> Path:
        """On-disk location of one fingerprint's entry."""
        return self.root / f"{fingerprint}{self.suffix}"

    def _read(self, fingerprint: str, decode):
        """``decode(fh)`` of the entry, or None on a miss (see module doc)."""
        try:
            with open(self.path_for(fingerprint), "rb") as fh:
                value = decode(fh)
        except FileNotFoundError:
            value = None
        except _DAMAGED:
            self._count("corrupt")
            value = None
        self._count("misses" if value is None else "hits")
        return value

    def _write(self, fingerprint: str, encode) -> None:
        """Replace the entry with what ``encode(fh)`` writes (atomic)."""
        atomic_write(self.path_for(fingerprint), encode)
        self._count("writes")

    def _corrupt(self, fingerprint: str) -> None:
        """Truncate the entry to half its bytes (chaos harness and tests).

        Simulates a writer that died mid-file or a damaged disk; the next
        read must count a corrupt miss rather than raise.  Deliberately
        bypasses :func:`atomic_write`; a missing entry is left missing.
        """
        path = self.path_for(fingerprint)
        try:
            os.truncate(path, path.stat().st_size // 2)
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{self.suffix}"))
