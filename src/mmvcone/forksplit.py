"""Contiguous groups of work items run over the CPUs: the first group in the
calling process, each other group in an os.fork child that pickles its
result back over a pipe.  The calling process may also stream arrays to
every child over a one-way feed (Feed), so that what every group reads is
made once, here."""

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


class Feed:
    """One end of the one-way pipes from the calling process to its forked
    children: here, the write end of each child's pipe (none when no child
    was forked); in a child, the read end of its own."""

    def __init__(self, read=None):
        self._read, self._writes = read, []
        self.reads = read is not None   # in a child: it gets what the calling process puts

    def put(self, a) -> None:
        """Write the bytes of a (a C-contiguous array) to every child; a child
        that has exited (BrokenPipeError) is dropped from the feed."""
        data = memoryview(a).cast("B")
        for fd in list(self._writes):
            view = data
            try:
                while view:
                    view = view[os.write(fd, view):]
            except BrokenPipeError:
                self._writes.remove(fd)
                os.close(fd)

    def get(self, out) -> bool:
        """Fill out (a C-contiguous array) with the next bytes put; False at
        the end of the stream."""
        view = memoryview(out).cast("B")
        while view:
            got = os.readv(self._read, [view])
            if not got:
                return False
            view = view[got:]
        return True

    def close(self) -> None:
        for fd in self._writes + ([self._read] if self.reads else []):
            os.close(fd)
        self._writes, self.reads = [], False


def _fork(work, items, out):
    """(pid, read end) of a forked child that writes back work(items, feed),
    pickled, feed the read end of a pipe whose write end joins the Feed out;
    None when os.fork fails.  The child ends in os._exit."""
    r, w = os.pipe()
    feed = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (r, w, *feed):
            os.close(fd)
        return None
    if pid:
        os.close(w)
        os.close(feed[0])
        out._writes.append(feed[1])
        return pid, r
    try:
        os.close(feed[1])
        out.close()                 # the write ends of the children forked before
        source = Feed(feed[0])
        result, failure = work(items, source)
        source.close()              # a write to this child now fails at once
        try:
            reply = pickle.dumps((result, failure))
        except Exception:   # an error that does not pickle goes back as its text
            reply = pickle.dumps((result, (failure[0], RuntimeError(repr(failure[1])))))
        with os.fdopen(w, "wb") as fh:
            fh.write(reply)
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

    work(items, feed) returns (result, failure), failure None or the (key,
    exception) that stopped it, keys ordered as one process running the
    groups in turn meets its errors; floor(group) is the least key group can
    fail with.  groups[0] runs here and each other group in a forked child;
    a group whose fork fails runs here too, and so does everything while
    another thread runs.  feed is a Feed that puts to every forked child
    here, and that a child gets from; every feed is closed before the
    replies are read, so a child that gets the end of the stream returns
    (None, None).  The results are this process's, then each child's in
    group order (None for a child that failed without one); failure is the
    least-keyed of all, else None.  When the work here fails, each child
    whose floor is past its key is killed; every child is reaped on every
    path."""
    forks = threading.active_count() == 1
    out = Feed()
    mine, children, replies = [0], [], []
    try:
        for g in range(1, len(groups)):
            child = _fork(work, groups[g], out) if forks else None
            if child is None:
                mine.append(g)
            else:
                children.append((*child, g))
        items = [item for g in mine for item in groups[g]]
        replies.append(work(items, out))
    finally:
        out.close()
        here = replies[0][1] if replies else None
        for pid, _, g in children:  # until the work here returns, every child is killed
            if not replies or (here is not None and floor(groups[g]) > here[0]):
                os.kill(pid, signal.SIGKILL)
        replies += [_collect(pid, fd, floor(groups[g])) for pid, fd, g in children]
    failures = [failure for _, failure in replies if failure is not None]
    return [result for result, _ in replies], min(failures, key=lambda f: f[0], default=None)
