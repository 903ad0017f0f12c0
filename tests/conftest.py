import faulthandler
import os

import numpy as np
import pytest

from lwerng.lwe_hiding import _SAMPLE_ROWS, _distinguisher_hits
from lwerng.params import Params, default_params
from lwerng.sampling import EntropyInput


# far above the slowest test (criterion 05: ~14 s, ~30 s on a busy host)
HANG_LIMIT_S = 300
_HANG_DUMP_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of stderr taken while output capture is off, so that the hang
    # guard's tracebacks reach the terminal
    config.stash[_HANG_DUMP_FD] = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard(request):
    """Turn a hung test into a failed run: past the limit, dump every
    thread's traceback and exit the interpreter."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True,
                                      file=request.config.stash[_HANG_DUMP_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def toy_params():
    """q=257, degree 4, n=2; ring-only toy (too short to fill the registers)."""
    return Params(q=257, n=2, degree=4)


@pytest.fixture(scope="session")
def tiny_params():
    """q=17, degree 4 ring for hand-checkable arithmetic."""
    return Params(q=17, n=2, degree=4)


@pytest.fixture
def ent_zero():
    return EntropyInput(bytes(32))


@pytest.fixture
def ent_one():
    return EntropyInput(bytes(31) + b"\x01")


def fixed_ent(tag: int) -> EntropyInput:
    return EntropyInput(tag.to_bytes(4, "big") + bytes(28))


def degenerate_pair_advantages(p) -> dict:
    """Each distinguisher's advantage on the degenerate pair A = s = e = 0:
    the concealed sample (payload r = 1) is every coefficient q//2, the plain
    sample every coefficient 0.  The pair is one trial per arm."""
    width = _SAMPLE_ROWS * p.degree
    hits_a = _distinguisher_hits(np.full((1, width), p.q // 2, dtype=np.int64), p.q)
    hits_b = _distinguisher_hits(np.zeros((1, width), dtype=np.int64), p.q)
    return {name: abs(hits_a[name] - hits_b[name]) for name in hits_a}
