import signal

import pytest


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
