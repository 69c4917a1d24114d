"""Shared fixtures."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Report three usable CPUs, whatever the host has, so that a large block
    of searches splits into three slices, and list the pid of every child
    that os.fork starts in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    started, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started
