"""Content-addressed storage: one key function, one on-disk store, one memo.

:func:`content_key` names every cell result and stored trace;
:class:`ContentStore` is the directory layout, read, write and claim
policy under the result cache, the trace store and the service's cell
claims; :class:`BoundedMemo` is the one in-process LRU memo.  See
``docs/campaign.md`` ("On-disk store") for the policy.  Imports nothing
from :mod:`repro`, so the lowest layers can use it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable
from pathlib import Path
from typing import IO, Any

__all__ = ["BoundedMemo", "ContentStore", "content_key"]

_MISSING = object()


def content_key(document: Any) -> str:
    """Stable content hash of a JSON-able document: sha256 of canonical JSON."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _unlink(path: str | Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class ContentStore:
    """Entries named by content key: ``<root>/<key[:2]>/<key><suffix>``.

    Args:
        root: the store directory (created on first use).
        suffix: the file suffix of this store's entries, e.g. ``".pkl"``.
    """

    def __init__(self, root: str | Path, suffix: str) -> None:
        self.root = Path(root)
        self.suffix = suffix
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}{self.suffix}"

    def read(self, key: str, load: Callable[[Path], Any]) -> Any:
        """``load(path)`` of the entry for ``key``, or None if there is none.

        An entry ``load`` cannot read (torn, truncated, not the format)
        counts as absent and is unlinked, so the caller's rebuild
        replaces it instead of failing every later read.
        """
        path = self.path_for(key)
        try:
            return load(path)
        except FileNotFoundError:
            return None
        except Exception:
            _unlink(path)
            return None

    def write(self, key: str, dump: Callable[[IO[bytes]], None]) -> Path:
        """Store ``key`` atomically, ``dump`` writing it to a binary handle.

        A failed write raises (``OSError`` on a full or unwritable disk)
        and leaves the previous entry, if any, and no temp file.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                dump(handle)
            os.replace(temp_name, path)
        except BaseException:
            _unlink(temp_name)
            raise
        return path

    def try_claim(self, key: str, stale_after: float | None = None) -> bool:
        """Create the entry for ``key`` exclusively; False if another holds it.

        A claim older than ``stale_after`` seconds is presumed orphaned
        (its owner died) and is stolen; ``None`` never steals.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # released between open and stat: race again
                if stale_after is None or age <= stale_after:
                    return False
                try:  # orphaned claim: steal it
                    path.unlink()
                except OSError:
                    return False
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {time.time():.3f}\n")
                return True

    def release(self, key: str) -> None:
        """Remove the entry for ``key``, if present (releases a claim)."""
        _unlink(self.path_for(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*/*{self.suffix}"))


class BoundedMemo:
    """In-process LRU memo of at most ``maxsize`` built values."""

    __slots__ = ("maxsize", "_entries")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``key``'s kept value; on a miss, ``build()``'s, kept unless it raised."""
        entries = self._entries
        value = entries.get(key, _MISSING)
        if value is not _MISSING:
            entries.move_to_end(key)
            return value
        value = entries[key] = build()
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()
