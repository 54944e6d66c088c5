"""A time limit on every test, so a test that hangs fails instead of stalling the suite.

The limit sits far above the slowest test (about 2 s) and above the 60 s
subprocess timeouts of test_capscale.py.  It takes SIGALRM, so where the
platform has none the tests run without it.  The handler in place before
each test is put back after it.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("test ran past the %d s limit" % TEST_TIME_LIMIT_S)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
