"""Content-addressed store of generated traces.

A campaign fans N configuration cells over one workload across worker
processes; without coordination every worker regenerates the same trace.
The :class:`TraceStore` turns that into *one* generation per distinct
(workload, length): the first resolver writes the trace as a version-2
``.rtrc`` file keyed by its identity document (for catalog traces,
:func:`repro.workloads.generator.trace_identity`), and every later
resolver, in any process, memory-maps that file read-only, so all
workers share one physical copy through the page cache.  Anything that
changes the emitted stream must be part of the identity.

It is a :class:`~repro.store.ContentStore`, with its layout and its
torn-entry and failed-write policy (``docs/campaign.md``, "On-disk
store").  Activate it for campaign workers by exporting
``REPRO_TRACE_STORE=<directory>`` (or ``--trace-store`` on the campaign
CLI); :meth:`TraceStore.from_env` is how resolvers discover it.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable

from ..store import ContentStore, content_key
from .io import read_binary_trace, write_binary_trace
from .stream import Trace

__all__ = ["TRACE_STORE_ENV", "TraceStore"]

#: Environment variable naming the shared trace-store directory.
TRACE_STORE_ENV = "REPRO_TRACE_STORE"


class TraceStore(ContentStore):
    """Write-once, content-addressed directory of ``.rtrc`` trace files."""

    def __init__(self, root) -> None:
        super().__init__(root, ".rtrc")

    @classmethod
    def from_env(cls) -> "TraceStore | None":
        """The store named by ``REPRO_TRACE_STORE``, or None if unset."""
        root = os.environ.get(TRACE_STORE_ENV)
        return cls(root) if root else None

    key_for = staticmethod(content_key)

    def contains(self, identity: dict) -> bool:
        """Whether a (possibly unvalidated) file exists for ``identity``."""
        return self.path_for(self.key_for(identity)).exists()

    def get_or_create(
        self,
        identity: dict,
        builder: Callable[[], Trace],
        *,
        mmap: bool = True,
    ) -> tuple[Trace, bool]:
        """Resolve ``identity`` to a trace, calling ``builder()`` only on a miss.

        Returns ``(trace, hit)``: ``hit`` is True when the trace was served
        from an existing store file, False when this call built it.  With
        ``mmap`` the trace borrows read-only views of the stored file
        instead of copying it.  A store that cannot be written still
        returns the built trace.
        """
        trace, hit, _error = self.resolve(identity, builder, mmap=mmap)
        return trace, hit

    def resolve(
        self, identity: dict, builder: Callable[[], Trace], *, mmap: bool = True
    ) -> tuple[Trace, bool, OSError | None]:
        """:meth:`get_or_create`'s ``(trace, hit)`` plus the ``OSError``
        that kept a built trace out of the store (None if it was stored)."""
        key = self.key_for(identity)
        trace = self.read(key, functools.partial(read_binary_trace, mmap=mmap))
        if trace is not None:
            return trace, True, None
        trace = builder()
        try:
            path = self.write(key, functools.partial(write_binary_trace, trace))
        except OSError as exc:
            return trace, False, exc
        # Serve the mapped file, not the built arrays: every process using
        # this key, the builder's included, then shares one on-disk copy.
        if mmap:
            try:
                return read_binary_trace(path, mmap=True), False, None
            except (ValueError, OSError):
                pass  # someone replaced it under us: the built trace is fine
        return trace, False, None
