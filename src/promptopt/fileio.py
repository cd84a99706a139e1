"""Atomic file writes for checkpoints, reports and experience files."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path, text: str) -> None:
    """Write `text` as UTF-8 to `path`, newlines untranslated. The bytes go to
    a temp file in the same directory, which `os.replace` then moves over
    `path`, so a reader or a crash sees the old file or the new one, never a
    part; a failed write leaves the old file and no temp file."""
    path = Path(path)
    tmp = path.with_name(".%s.%s.tmp" % (path.name, os.urandom(8).hex()))
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
