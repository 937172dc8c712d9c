"""Crash-safe file writes: tmp file + fsync + ``os.replace``.

Everywhere the repository persists state a resumed run will read back
(sweep JSONL, lint caches, checkpoint files, bench baselines), the
write must be *atomic* — a reader never sees a half-written file — and
*durable* — after the call returns, a ``kill -9`` (or power cut, as
far as the OS contract goes) leaves either the old bytes or the new
bytes, not a torn mixture.  POSIX gives both via the classic dance:

1. write the full payload to a temporary file **in the target
   directory** (``os.replace`` is only atomic within one filesystem);
2. ``fsync`` the temporary file so the data is on disk before the
   rename makes it reachable;
3. ``os.replace`` onto the target (atomic on POSIX and on Windows);
4. best-effort ``fsync`` of the directory so the rename itself is
   durable.

:func:`durable_append_lines` covers the other persistence shape —
append-only JSONL journals (sweep partial rows, quarantine sidecars,
the WAL) — where atomicity is per *line*: a crash mid-append leaves at
most one torn final line, which every reader in this repository
(``read_completed_rows``, the WAL recovery scan) already skips.  Given
a path it opens, appends and closes the file per call; given an
append-mode text handle the caller holds open (the serve WAL, appended
once per record) it writes, flushes and fsyncs through that handle, so
a caller appending often pays the fsync, not a reopen.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Iterable, TextIO


def fsync_dir(path: "str | Path") -> None:
    """Best-effort fsync of a directory (makes renames durable).

    Silently a no-op where directories cannot be opened for reading
    (some filesystems / platforms); the rename is still atomic.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: "str | Path", text: str, *, encoding: str = "utf-8"
) -> Path:
    """Atomically and durably replace ``path``'s contents with ``text``.

    Readers concurrently opening ``path`` see either the previous
    contents or ``text`` in full — never a prefix.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding=encoding) as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    fsync_dir(path.parent)
    return path


def atomic_write_json(
    path: "str | Path",
    obj: Any,
    *,
    sort_keys: bool = True,
    indent: "int | None" = None,
) -> Path:
    """Atomic write of a canonical JSON document (sorted keys, trailing
    newline) — the deterministic on-disk shape the repo's byte-identity
    checks compare with ``cmp``."""
    text = json.dumps(obj, sort_keys=sort_keys, indent=indent)
    return atomic_write_text(path, text + "\n")


def durable_append_lines(
    target: "str | Path | TextIO", lines: Iterable[str]
) -> int:
    """Append text lines to a journal file, fsync'd before returning.

    ``target`` is a path (opened in append mode for this call only) or
    an already-open append-mode text handle, which stays open.  Each
    line must not itself contain a newline (one record per line).
    Returns the number of lines appended.  A crash mid-call leaves at
    most one torn final line — readers must tolerate (skip) it.
    """
    out = []
    for line in lines:
        if "\n" in line:
            raise ValueError("journal lines must not contain newlines")
        out.append(line + "\n")
    if not out:
        return 0
    with (
        nullcontext(target) if hasattr(target, "write")
        else open(target, "a", encoding="utf-8")
    ) as fh:
        fh.write("".join(out))
        fh.flush()
        os.fsync(fh.fileno())
    return len(out)


__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "durable_append_lines",
    "fsync_dir",
]
