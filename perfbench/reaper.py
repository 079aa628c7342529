"""End and wait for every process a benchmark run started.

A run starts processes it does not hold a handle to: ``multiprocessing``
starts a resource tracker for the shard pool, and the server and the
set-up probes start their own pools and trackers, which outlive them as
orphans.  :func:`become_subreaper` makes such orphans children of this
process (Linux), and :func:`stop_children` ends and reaps every child
before the run exits, so no process of the run survives it.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process (Linux only;
    elsewhere only direct children are stopped)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Children of this process, zombies included, read from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = list(Path("/proc").iterdir())
    except OSError:
        return pids
    for entry in entries:
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap(pids: list[int], grace_s: float) -> None:
    """Wait up to ``grace_s`` for ``pids`` to exit, then kill the rest;
    every one is reaped before this returns."""
    live = set(pids)
    deadline = time.monotonic() + grace_s
    while live:
        for pid in list(live):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid  # already reaped elsewhere
            if done:
                live.discard(pid)
        if not live:
            return
        if time.monotonic() >= deadline:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            return
        time.sleep(0.02)


def stop_children(grace_s: float = 10.0) -> None:
    """End and reap every child, this process's resource tracker included.

    Children are reaped until none is left but the tracker.  The tracker
    exits once every holder of its pipe has closed it, so its pipe is
    closed last and the tracker reaped with the orphans re-parented here
    meanwhile (a probe's tracker); whatever outlasts ``grace_s`` is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for _ in range(8):
        others = [pid for pid in child_pids() if pid != tracker_pid]
        if not others:
            break
        _reap(others, grace_s)
    if tracker_pid is not None and tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    _reap(child_pids(), grace_s)
