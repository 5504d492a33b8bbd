import shutil
import signal
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from qtriad import states

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Keep Hypothesis' cache of source constants out of the working tree.

    The property tests run with ``database=None``, but Hypothesis still
    caches the literals it harvests from local modules, at collection time,
    under its home directory, which defaults to ``./.hypothesis``.
    """
    config.stash[_HYPOTHESIS_HOME] = home = tempfile.mkdtemp(prefix="qtriad-hypothesis-")
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def deadline():
    """Stop the test with TimeoutError after 10 s.

    Tests that take a few states from a stream of 10**15 use it, so that a
    stream that is not lazy fails fast instead of filling memory.
    """

    def expire(signum, frame):
        raise TimeoutError("still running after 10 s: the stream is not lazy")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _empty_memo():
    """Start each test with ``states``' memo empty.

    A value the memo keeps under one test's stand-in for ``states._invariants``
    would otherwise reach the next test that reads the same state object.
    """
    states._memo = (None, None, None, None)
