"""Append-only JSONL logs: the one reader and writer behind every log.

A :class:`JsonlLog` is a file of one JSON object per line, each stamped
with the layout version ``v``.  The sweep and search journals, the
quarantine, the run ledger and the span file all subclass it and keep
only their own record encoding and decoding.

Robustness contract, shared by every log:

* each append is flushed at once, and fsynced unless the log is a
  diagnostic (``durable = False``: losing its last line never loses
  completed work);
* a torn final line (an interrupted append) is ignored on read, and
  cut off when the log is next opened for appending, so the next
  record starts on a line of its own;
* a malformed earlier line, a record that is not an object or an
  unknown ``v`` raises :class:`~repro.common.errors.ReproError` naming
  ``path:lineno``: the file was damaged by something other than an
  interrupted append, and silently skipping it would be worse than
  asking the user to look.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.common.errors import ReproError

#: Bytes read per step when looking for the final line of a log.
_TAIL_CHUNK = 4096


class JsonlLog:
    """One append-only JSONL file of version-stamped records.

    Subclasses set :attr:`kind` (the noun used in error messages),
    :attr:`version` (the layout every line must carry as ``v``) and
    :attr:`durable`.
    """

    kind = "log"
    version = 1
    #: fsync each append; diagnostics only flush.
    durable = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None

    # -- reading -------------------------------------------------------------

    def read(self, decode=None) -> list:
        """Every record in append order (empty when the file is missing).

        ``decode`` maps each record dict to the value returned (the raw
        dict when omitted); its ``KeyError``/``TypeError``/``ValueError``
        or :class:`ReproError` is re-raised naming the line.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise ReproError(f"cannot read {self.kind} {self.path}: {exc}") from exc
        out = []
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"{self.path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    # Torn final append: that record is lost, nothing else.
                    break
                raise ReproError(
                    f"{where}: malformed {self.kind} record: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ReproError(f"{where}: {self.kind} record is not an object")
            if record.get("v") != self.version:
                raise ReproError(
                    f"{where}: unsupported {self.kind} format "
                    f"{record.get('v')!r} (expected {self.version})"
                )
            if decode is None:
                out.append(record)
                continue
            try:
                out.append(decode(record))
            except ReproError as exc:
                raise ReproError(f"{where}: {exc}") from exc
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ReproError(
                    f"{where}: bad {self.kind} record: {exc}"
                ) from exc
        return out

    # -- writing -------------------------------------------------------------

    def open(self, *, truncate: bool = False) -> None:
        """Open for appending, creating the file and its directory.

        ``truncate=True`` starts a fresh log.  Otherwise a torn final
        line is cut off first (see :func:`_mend_tail`).
        """
        if self._fh is not None:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if not truncate:
                _mend_tail(self.path)
            self._fh = open(self.path, "w" if truncate else "a", encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot open {self.kind} {self.path}: {exc}") from exc

    def write(self, record: dict) -> None:
        """Append one record (opening the log if needed), then flush."""
        if self._fh is None:
            self.open()
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        if self.durable:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the file (reopened automatically by the next write)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _mend_tail(path: Path) -> None:
    """Make the next append start a line of its own.

    The final line decides, exactly as :meth:`JsonlLog.read` would: one
    that does not parse (the torn fragment of an interrupted append) is
    cut off; one that parses but lacks its newline gets one.
    """
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        end = fh.seek(0, os.SEEK_END)
        start, tail = end, b""
        while start > 0:
            step = min(_TAIL_CHUNK, start)
            start -= step
            fh.seek(start)
            tail = fh.read(step) + tail
            # The final line begins after the last newline that is not
            # its own terminator.
            cut = tail.rfind(b"\n", 0, len(tail) - 1)
            if cut >= 0:
                start += cut + 1
                tail = tail[cut + 1:]
                break
        if not tail.strip():
            return
        try:
            json.loads(tail)
        except ValueError:
            fh.truncate(start)
            return
        if not tail.endswith(b"\n"):
            fh.seek(end)
            fh.write(b"\n")
