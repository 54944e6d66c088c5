import signal
import time

import pytest


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_every_test_runs_under_a_time_limit():
    # conftest.py arms the alarm before each test, and its handler fails the
    # test when the alarm goes off
    remaining = signal.getitimer(signal.ITIMER_REAL)[0]
    assert 60 < remaining <= 300
    assert signal.getsignal(signal.SIGALRM) not in (signal.SIG_DFL, signal.SIG_IGN, None)
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    try:
        with pytest.raises(pytest.fail.Exception, match="test ran past the 300 s limit"):
            time.sleep(5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, remaining)
