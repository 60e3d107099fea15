import os
import threading

import pytest

import mtemsim as m


@pytest.fixture(scope="session")
def ex41():
    return m.example41()


@pytest.fixture(scope="session")
def ex41_policy():
    return m.example41_policy()


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_tests():
    """Fail the run if any child of the test process is left unreaped, running or not."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process outlived the tests (waitpid gave pid {pid}, status {status})")


@pytest.fixture(scope="session", autouse=True)
def no_thread_outlives_the_tests():
    """Fail the run if any Python thread but the main one is still alive at the end."""
    yield
    others = [t for t in threading.enumerate() if t is not threading.main_thread()]
    if others:
        pytest.fail(f"threads outlived the tests: {others}")
