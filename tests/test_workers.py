import os
import signal
import threading
import time

import pytest

from reshare import workers
from reshare.workers import spread

from conftest import assert_no_children


class TestSpread:
    """``spread`` over patched CPU counts; the ``forks`` fixture fails a worker
    that forks again."""

    @pytest.fixture(autouse=True)
    def spy_and_deadline(self, forks, deadline):
        self.forks = forks
        self.parent = os.getpid()

    def spread_on(self, monkeypatch, cpus, run, tasks):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        try:
            return spread(run, tasks)
        finally:
            assert not workers._forked
            assert_no_children()

    def fail_in(self, where, failure):
        """A group function that calls ``failure()`` in the parent or in every
        worker; a worker that goes on sleeps 30 s unless it is killed."""

        def run(group):
            in_parent = os.getpid() == self.parent
            if in_parent == (where == "parent"):
                failure()
            if not in_parent:
                time.sleep(30)
            return group

        return run

    @staticmethod
    def tag(group):
        """One ``(pid, task, group)`` result per task of ``group``."""
        return [(os.getpid(), task, group) for task in group]

    def test_contiguous_groups_and_results_in_task_order(self, monkeypatch):
        results = self.spread_on(monkeypatch, 3, self.tag, list(range(7)))
        groups = [[0, 1], [2, 3], [4, 5, 6]]
        assert len(self.forks) == 2
        pids = [self.parent, *self.forks]
        assert results == [(pid, task, group) for pid, group in zip(pids, groups) for task in group]

    @pytest.mark.parametrize("cpus, tasks", [(1, [0, 1, 2]), (3, [0]), (3, [])])
    def test_one_group_runs_in_process(self, monkeypatch, cpus, tasks):
        results = self.spread_on(monkeypatch, cpus, self.tag, tasks)
        assert results == [(self.parent, task, tasks) for task in tasks] and self.forks == []

    def test_never_forks_while_other_threads_run(self, monkeypatch):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            results = self.spread_on(monkeypatch, 3, self.tag, [0, 1, 2])
        finally:
            release.set()
            waiter.join(timeout=10)
        assert results == [(self.parent, task, [0, 1, 2]) for task in [0, 1, 2]]
        assert self.forks == [] and not waiter.is_alive()

    def test_spread_inside_a_forked_spread_runs_in_process(self, monkeypatch):
        def inner(group):  # one result, the inner spread's list, for the group's one task
            return [spread(self.tag, ["a", "b", "c"])]

        results = self.spread_on(monkeypatch, 2, inner, [0, 1])
        assert len(self.forks) == 1
        assert results == [[(pid, task, ["a", "b", "c"]) for task in "abc"]
                           for pid in (self.parent, self.forks[0])]

    def test_spread_inside_a_one_group_spread_still_forks(self, monkeypatch):
        def inner(group):
            return [spread(self.tag, ["a", "b"])]

        (results,) = self.spread_on(monkeypatch, 2, inner, [0])
        assert results == [(self.parent, "a", ["a"]), (self.forks[0], "b", ["b"])]
        assert len(self.forks) == 1

    def test_interrupted_parent_kills_and_reaps_every_worker(self, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            self.spread_on(monkeypatch, 3, self.fail_in("parent", interrupt), [0, 1, 2])
        assert time.perf_counter() - started < 10
        assert len(self.forks) == 2

    @pytest.mark.parametrize("death, message", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal SIGKILL"),
        (lambda: os._exit(3), "exit status 3"),
    ], ids=["sigkill", "exit-status"])
    def test_worker_that_dies_without_result_raises(self, monkeypatch, death, message):
        with pytest.raises(RuntimeError, match=f"^worker \\d+ ended by {message} without a result$"):
            self.spread_on(monkeypatch, 3, self.fail_in("worker", death), [0, 1, 2])
        assert len(self.forks) == 2

    def test_worker_exception_is_raised_in_parent(self, monkeypatch):
        def fail():
            raise ValueError("bad group")

        with pytest.raises(ValueError, match="bad group"):
            self.spread_on(monkeypatch, 3, self.fail_in("worker", fail), [0, 1, 2])
        assert len(self.forks) == 2
