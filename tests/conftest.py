import os

import numpy as np
import pytest

from rieszreg import AppendixDgp, DiscreteDgp, simulate


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        found = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no child
        return
    pytest.fail(f"a child process is left behind (waitpid: {found})")


def count_forks(monkeypatch) -> list:
    """Patch ``os.fork`` to record the pid of each child this process forks;
    returns the list."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture(scope="session")
def appendix_dgp():
    return AppendixDgp()


@pytest.fixture(scope="session")
def discrete_dgp():
    return DiscreteDgp()


@pytest.fixture(scope="session")
def appendix_data(appendix_dgp):
    return simulate(appendix_dgp, 2000, 42)


@pytest.fixture(scope="session")
def discrete_data(discrete_dgp):
    return simulate(discrete_dgp, 4000, 42)


@pytest.fixture(scope="session")
def big_appendix_data(appendix_dgp):
    return simulate(appendix_dgp, 1_000_000, 7)


@pytest.fixture(scope="session")
def big_discrete_data(discrete_dgp):
    return simulate(discrete_dgp, 1_000_000, 7)


def mc_se(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))
