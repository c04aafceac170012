import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail any test after which the cyclic collector is off, as a
    reader that leaked its pause would leave it."""
    yield
    assert gc.isenabled(), "the cyclic collector was left disabled"
