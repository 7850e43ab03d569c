"""When this process may put the host's second core to work, and the thread it runs there.

:func:`why_one_process` is the one condition for both: ``train`` forks a
child to fit one net, and ``Mlp.forward_batch`` runs half of a long pass
on a :class:`Worker` thread, only when it finds no obstacle.
"""

from __future__ import annotations

import os
import threading
import time

# how long a joined thread's OS thread may take to leave /proc/self/task; it
# takes microseconds, and this only bounds the wait should it linger anyway
EXIT_WAIT_S = 0.1


def why_one_process() -> str | None:
    """The condition that keeps this process's work on one core, or None when it may use two.

    A second core's work runs in a child made with ``os.fork`` or on a second
    thread. It needs ``os.fork``, a second core to run on, and a process
    running one OS thread. With BLAS threads as well, the two halves' threads
    outnumber the cores and spin against each other, and a fork copies only
    the thread that calls it.
    """
    if not hasattr(os, "fork"):
        return "os.fork is unavailable"
    if not hasattr(os, "sched_getaffinity"):
        return "the usable cores are unknown"
    if len(os.sched_getaffinity(0)) < 2:
        return "one usable core"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return "the OS threads are unknown"
    return None if threads == 1 else f"{threads} OS threads"


class Worker:
    """``fn(*args)`` run on a thread of its own, started at once.

    :meth:`join` waits for it, :meth:`result` returns its value or raises its
    error. When no thread can be started, ``fn`` runs in :meth:`result`
    instead, on the caller's thread.
    """

    def __init__(self, fn, *args):
        self._call = fn, args
        self._value = self._error = None
        self._thread = threading.Thread(target=self._run, name=f"fleetrank-{fn.__name__}")
        try:
            self._thread.start()
        except RuntimeError:  # no thread to be had
            self._thread = None

    def _run(self) -> None:
        fn, args = self._call
        try:
            self._value = fn(*args)
        except BaseException as exc:  # the caller raises it again in result()
            self._error = exc

    def join(self) -> None:
        """Wait until the thread has ended, down to its OS thread, which ``why_one_process`` counts.

        ``Thread.join`` returns once the thread's Python state is gone, a few
        microseconds before its OS thread leaves ``/proc/self/task``.
        """
        if self._thread is None:
            return
        self._thread.join()
        task = f"/proc/self/task/{self._thread.native_id}"
        deadline = time.monotonic() + EXIT_WAIT_S
        while os.path.exists(task) and time.monotonic() < deadline:
            time.sleep(0)

    def result(self):
        if self._thread is None:
            fn, args = self._call
            return fn(*args)
        self.join()
        if self._error is not None:
            raise self._error
        return self._value
