"""Spread a list of tasks over the CPUs this process may use (its affinity
mask): one contiguous group per CPU, the first run in the calling process and
each other in a forked child that pickles its results, or its exception, back
through a pipe. A group returns one result per task, and the caller gets one
list of them in task order. There are two callers, both in ``pipeline``:
``run_pipeline`` spreads the runs of ``--runs N`` with a stage to fit, and
``_Stages.fan_out`` the pending stages of one kind, a run's ``plv_<scheme>``
or ``effects_<variant>`` stages or the mu sweep's (scheme, mu) cells.

Spreads do not nest: while a spread has forked, its groups (here and in the
children) see one usable CPU, so the CPUs are never oversubscribed. A spread
with one group, one usable CPU, no ``os.fork`` or other threads running stays
in-process and leaves that state alone.
"""

import os
import pickle
import signal
import threading
import warnings

_forked = False  # True while a spread of this process has forked


def spread(run, tasks) -> list:
    """One result per task: the lists ``run(group)`` returns end to end, the
    tasks split into ``min(len(tasks), usable CPUs)`` contiguous groups. A
    worker still running when this raises is killed and reaped; one that ends
    without a result raises ``RuntimeError``, and a worker's own exception is
    raised here."""
    global _forked
    n_groups = min(len(tasks), 1 if _forked else _usable_cpus())
    if n_groups < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return run(tasks)
    bounds = [len(tasks) * g // n_groups for g in range(n_groups + 1)]
    groups = [tasks[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []
    _forked = True
    try:
        for group in groups[1:]:
            children.append(_fork(lambda group=group: run(group)))
        results = list(run(groups[0]))
        while children:
            pid, fd = children[0]
            data = b"".join(iter(lambda: os.read(fd, 1 << 20), b""))
            _, status = os.waitpid(pid, 0)
            os.close(fd)
            children.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"worker {pid} ended by {how} without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
    finally:
        _forked = False
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork(fn):
    """Start ``fn()`` in a forked child; returns the child's pid and the read
    end of a pipe that carries the pickled ``(True, result)`` or
    ``(False, exception)`` back. The child leaves by ``os._exit``, with status
    0 only once the whole pickle is written."""
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns that fork() may deadlock a process with native
        # threads, which numpy's BLAS pool counts as. The child runs numpy and
        # pickle, no threads of its own, and BLAS pools register atfork handlers.
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        try:
            outcome = (True, fn())
        except BaseException as exc:
            outcome = (False, exc)
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
