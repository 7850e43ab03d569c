"""All-or-nothing artifact writes.

Every file a command writes goes through :func:`atomic_open`: the content
goes to ``<name>.tmp`` beside the target, which replaces the target only
once it is complete. A run that fails mid-write leaves the previous
artifact as it was and no temporary file behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A handle whose content replaces ``path`` when the block exits cleanly.

    The handle takes UTF-8 text, written untranslated (``newline=""``):
    ``"\\n"`` from JSON and ``"\\r\\n"`` from the csv module reach the file
    as they are. With ``binary`` it takes bytes.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (tmp.open("wb") if binary else tmp.open("w", newline="", encoding="utf-8")) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
