import pytest

from tamagawa import arith


@pytest.fixture
def cap_rho(monkeypatch):
    """cap_rho(steps) lets each Brent-rho call in factor run at most steps iterations.

    factor keeps its default budget, so this is how a test makes one run out.
    A process pool started afterwards forks with the cap in place.
    """
    rho = arith._brent_rho

    def cap(steps):
        monkeypatch.setattr(arith, "_brent_rho", lambda n, left: rho(n, min(left, steps)))

    return cap
