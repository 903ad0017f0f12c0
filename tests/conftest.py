import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lwerng.params import Params, default_params, validate
from lwerng.sampling import EntropyInput


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def toy_params():
    """q=257, degree 4, m=n=2; ring-only toy (register geometry unused)."""
    p = Params(q=257, n=2, m=2, degree=4, lfsr_bits=8, state_bits=32, mask_bits=96)
    validate(p)
    return p


@pytest.fixture(scope="session")
def tiny_params():
    """q=17, degree 4 ring for hand-checkable arithmetic."""
    p = Params(q=17, n=2, m=2, degree=4, lfsr_bits=8, state_bits=32, mask_bits=96)
    validate(p)
    return p


@pytest.fixture
def ent_zero():
    return EntropyInput(bytes(32))


@pytest.fixture
def ent_one():
    return EntropyInput(bytes(31) + b"\x01")


def fixed_ent(tag: int) -> EntropyInput:
    return EntropyInput(tag.to_bytes(4, "big") + bytes(28))
