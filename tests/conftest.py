"""Fixtures shared by the tests of forked worker processes."""

import os
import signal

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls so far, as a one-element list."""
    count, fork = [0], os.fork

    def counting_fork():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


@pytest.fixture
def deadline():
    """Fail a test that runs for more than 60 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
