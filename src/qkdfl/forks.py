"""Forked worker processes: the one fork discipline of training and masking.

A round's local trainings (`federated`) and a large masking pass's pair
keystreams (`masking`) are each split into shares of independent work.
`fan_out` runs the first share in the calling process and each other share
in a forked child, which pickles its result into a pipe and leaves by
`os._exit`.  A fork copies only the calling thread, so a caller forks only
where `may_fork()` holds, and the shares are never more than the caller's
budget of processes.  No child outlives a `fan_out` call.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from typing import Callable

from .errors import TrainerExitError


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one (a `taskset` or cpuset narrows it), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def may_fork() -> bool:
    """Whether this process may fork workers: on Linux, with no second
    Python thread alive, whose locks a child could inherit held."""
    return sys.platform == "linux" and threading.active_count() == 1


def _fork(work: Callable, share, children: list[tuple[int, int, object]]) -> None:
    """Fork a child that pickles work(share) into a pipe; append (pid, read
    end, share) to `children`.  The child never returns: it leaves by
    os._exit, 0 once its result is written."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in [read_end, *(fd for _, fd, _ in children)]:
                os.close(fd)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(work(share), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    children.append((pid, read_end, share))
    os.close(write_end)


def _reap(children: list[tuple[int, int, object]], kill: bool) -> list[int]:
    """Close each child's read end, SIGKILL it if `kill`, and wait for it;
    the exit codes."""
    for _, fd, _ in children:
        os.close(fd)
    if kill:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
    return [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _, _ in children]


def fan_out(work: Callable, shares: list, role: str) -> list:
    """[work(share) for share in shares]: the first share in this process,
    each other one in a forked child, all at once.

    A child that exits without its result is a TrainerExitError that names
    its role, its share and its exit code.  On any failure here, an
    interrupt included, the children are killed and reaped first.
    """
    children: list[tuple[int, int, object]] = []
    try:
        for share in shares[1:]:
            _fork(work, share, children)
        results = [work(shares[0])]
        payloads = [open(fd, "rb", closefd=False).read() for _, fd, _ in children]
    except BaseException:
        _reap(children, kill=True)
        raise
    for (_, _, share), code in zip(children, _reap(children, kill=False)):
        if code != 0:
            raise TrainerExitError(
                f"the {role} {share} exited with code {code} without its results"
            )
    return results + [pickle.loads(payload) for payload in payloads]
