"""A wall-clock limit on every test's body.

A defect that makes an engine run without bound (a Buchberger loop that
keeps producing nonzero remainders, say) would otherwise hang the run with
nothing printed.  With the limit, the test fails with `TimeLimitExceeded`
and the run goes on.  pytest-timeout would do the same; this needs nothing
installed.  The limit is a SIGALRM timer, so it holds only where the
platform has one, and it covers the call phase, not fixtures.
"""

from __future__ import annotations

import signal

import pytest

# The slowest test takes about 10 s on a 2-core host, and the largest
# acceptance budget is 120 s: 180 s is 18 times the first, and every
# budget fails by its own assertion before the limit does.
LIMIT_S = 180


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives LIMIT_S.  Not an Exception, so that
    neither the test nor hypothesis catches it and runs on."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"the test ran longer than {LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
