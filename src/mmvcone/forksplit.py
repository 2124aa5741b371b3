"""Work over the CPUs with os.fork.  run: contiguous groups of work items,
the first in the calling process, each other in a forked child that pickles
its result back over a pipe.  stream: a forked child that writes arrays to
the calling process over a one-way pipe (Stream), so that what the calling
process reads is made beside it."""

from __future__ import annotations

import os
import pickle
import signal
import threading


def cpus() -> int:
    """CPUs this process may run on; 1 without os.fork or an affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork():
    """(pid, read end, write end) of a pipe and a forked child (pid 0 in the
    child); None while another thread runs or when os.fork fails."""
    if threading.active_count() != 1:
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    os.close(r if pid == 0 else w)
    return pid, r, w


class Stream:
    """The read end of a forked child's one-way pipe to the calling process."""

    def __init__(self, pid, fd):
        self._pid, self._fd = pid, fd

    def get(self, out) -> None:
        """Fill out (a C-contiguous array) with the next bytes the child put;
        ChildProcessError when its stream ends first."""
        view = memoryview(out).cast("B")
        while view:
            got = os.readv(self._fd, [view])
            if not got:
                raise ChildProcessError(f"child {self._pid} ended its stream early")
            view = view[got:]

    def close(self) -> None:
        """Close the read end, kill the child and reap it."""
        os.close(self._fd)
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)


def stream(produce) -> Stream | None:
    """A Stream from a forked child that runs produce(put), put(a) writing the
    bytes of a (a C-contiguous array) to the pipe, and exits; None while
    another thread runs or when os.fork fails.  The child also exits once the
    calling process has closed the read end.  The caller closes the Stream
    on every path."""
    child = _fork()
    if child is None:
        return None
    pid, r, w = child
    if pid:
        return Stream(pid, r)
    try:
        def put(a):
            view = memoryview(a).cast("B")
            while view:
                view = view[os.write(w, view):]

        produce(put)
    finally:
        os._exit(0)


def _collect(pid, fd, floor):
    """A child's reply, read to its end before the child is reaped; a child
    whose reply is missing or does not load fails at floor.  A read stopped
    by an exception (a test's watchdog alarm) kills the child first."""
    try:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except Exception:
        return None, (floor, ChildProcessError(f"child {pid} ended without a reply"))


def run(work, groups, floor):
    """([result], failure) of work run over groups, lists of items.

    work(items) returns (result, failure), failure None or the (key,
    exception) that stopped it, keys ordered as one process running the
    groups in turn meets its errors; floor(group) is the least key group can
    fail with.  groups[0] runs here and each other group in a forked child;
    a group whose fork fails runs here too, and so does everything while
    another thread runs.  The results are this process's, then each child's
    in group order (None for a child that failed without one); failure is
    the least-keyed of all, else None.  When the work here fails, each child
    whose floor is past its key is killed; every child is reaped on every
    path."""
    mine, children, replies = [0], [], []
    try:
        for g in range(1, len(groups)):
            child = _fork()
            if child is None:
                mine.append(g)
                continue
            pid, r, w = child
            if pid:
                children.append((pid, r, g))
                continue
            try:
                result, failure = work(groups[g])
                try:
                    reply = pickle.dumps((result, failure))
                except Exception:   # an error that does not pickle goes back as its text
                    reply = pickle.dumps((result, (failure[0], RuntimeError(repr(failure[1])))))
                with os.fdopen(w, "wb") as fh:
                    fh.write(reply)
            finally:
                os._exit(0)
        replies.append(work([item for g in mine for item in groups[g]]))
    finally:
        here = replies[0][1] if replies else None
        for pid, _, g in children:  # until the work here returns, every child is killed
            if not replies or (here is not None and floor(groups[g]) > here[0]):
                os.kill(pid, signal.SIGKILL)
        replies += [_collect(pid, fd, floor(groups[g])) for pid, fd, g in children]
    failures = [failure for _, failure in replies if failure is not None]
    return [result for result, _ in replies], min(failures, key=lambda f: f[0], default=None)
