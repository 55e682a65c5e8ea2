"""Process-tree bookkeeping from ``/proc``: peak RSS, survivors, clean-up."""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

_PROC = Path("/proc")


def _stat(pid: int) -> tuple[str, int, int] | None:
    """(state, parent pid, session id) of ``pid``, or None once it is gone."""
    try:
        text = (_PROC / str(pid) / "stat").read_text()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[3])


def _all_pids() -> list[int]:
    return [int(entry) for entry in os.listdir(_PROC) if entry.isdigit()]


def tree(root: int) -> list[int]:
    """``root`` and every live descendant (by parent link)."""
    children: dict[int, list[int]] = {}
    for pid in _all_pids():
        stat = _stat(pid)
        if stat is not None and stat[0] != "Z":
            children.setdefault(stat[1], []).append(pid)
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, []))
    return found


def session_members(session: int) -> list[int]:
    """Live (non-zombie) processes of a session, whoever their parent now is."""
    members = []
    for pid in _all_pids():
        stat = _stat(pid)
        if stat is not None and stat[2] == session and stat[0] != "Z":
            members.append(pid)
    return members


def peak_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of ``pid`` in KiB, 0 once it is gone."""
    try:
        for line in (_PROC / str(pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Polls a process tree and keeps each process's peak resident set.

    Summing the peaks over every process seen gives the tree's figure;
    pages shared after ``fork`` then count once per process.
    """

    def __init__(self, root: int, interval: float = 0.2) -> None:
        self._root = root
        self._interval = interval
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        for pid in tree(self._root):
            self._peaks[pid] = max(self._peaks.get(pid, 0), peak_kb(pid))

    def _poll(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def sample(self) -> None:
        """Take one reading now (call before stopping the tree)."""
        self._sample()

    def stop(self) -> dict[int, int]:
        """Stop polling; returns each process's peak in KiB."""
        self._stop.set()
        self._thread.join()
        return self._peaks


def kill_session(session: int, timeout: float = 10.0) -> None:
    """SIGKILL every process of ``session`` and wait until none is left."""
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + timeout
    while session_members(session) and time.monotonic() < deadline:
        time.sleep(0.02)
