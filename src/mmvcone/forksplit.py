"""Contiguous groups of work items run over the CPUs: the first group in the
calling process, each other group in an os.fork child that pickles its
result back over a pipe."""

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


def _fork(work, items):
    """(pid, read end) of a forked child that writes back work(items),
    pickled; None when os.fork fails.  The child ends in os._exit."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    try:
        result, failure = work(items)
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
    whose reply is missing or does not load fails at floor."""
    try:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()
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
    forks = threading.active_count() == 1
    mine, children, replies = [0], [], []
    try:
        for g in range(1, len(groups)):
            child = _fork(work, groups[g]) if forks else None
            if child is None:
                mine.append(g)
            else:
                children.append((*child, g))
        replies.append(work([item for g in mine for item in groups[g]]))
    finally:
        here = replies[0][1] if replies else None
        for pid, _, g in children:  # until the work here returns, every child is killed
            if not replies or (here is not None and floor(groups[g]) > here[0]):
                os.kill(pid, signal.SIGKILL)
        replies += [_collect(pid, fd, floor(groups[g])) for pid, fd, g in children]
    failures = [failure for _, failure in replies if failure is not None]
    return [result for result, _ in replies], min(failures, key=lambda f: f[0], default=None)
