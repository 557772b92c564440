"""The panel engine on trivial jobs: how many processes run them, and what crosses back."""

import os
import time

import pytest

from cdmr.config import ConfigError
from cdmr.panels import in_processes


def _pids(n_jobs):
    """The pid that ran each of ``n_jobs`` jobs, in job order."""
    results = in_processes(lambda i: (i, os.getpid()), list(range(n_jobs)),
                           name=lambda i: f"job {i}", doing=lambda held: f"running {held}")
    ran = list(results)
    assert [i for i, _ in ran] == list(range(n_jobs))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return [pid for _, pid in ran]


def test_without_sched_getaffinity_the_count_is_cpu_count(monkeypatch):
    """Five jobs on three CPUs: this process runs jobs 0 and 3, a worker 1 and 4, another 2."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pids = _pids(5)
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4] and len({pids[0], pids[1], pids[2]}) == 3


def test_without_sched_getaffinity_an_unknown_cpu_count_is_one(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pids(3) == [os.getpid()] * 3


def test_without_fork_every_job_runs_here(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.delattr(os, "fork")
    assert _pids(3) == [os.getpid()] * 3


def test_a_workers_config_error_is_raised_whole_and_named(monkeypatch):
    """A job's exception crosses the pipe pickled: a ConfigError a worker raised
    keeps its class and errors, and its text gains the job's name."""
    def job(i):
        if i == 1:
            raise ConfigError(["config.x: bad"], "preset nv")
        return i

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = in_processes(job, [0, 1, 2, 3], name=lambda i: f"job {i}",
                           doing=lambda held: f"running {held}")
    assert next(results) == 0
    with pytest.raises(ConfigError) as excinfo:
        next(results)
    assert excinfo.value.errors == ("config.x: bad",)
    assert str(excinfo.value) == "job 1: invalid configuration in preset nv:\n  - config.x: bad"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupt_here_kills_the_workers_before_it_leaves(tmp_path, monkeypatch):
    """This process's job is interrupted: the worker, still in its own job, is killed
    and reaped before the interrupt reaches the caller, and never finishes that job."""
    finished = tmp_path / "finished"

    def job(i):
        if i == 0:
            raise KeyboardInterrupt
        time.sleep(5)
        finished.touch()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(KeyboardInterrupt):
        next(in_processes(job, [0, 1], name=str, doing=str))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not finished.exists()
