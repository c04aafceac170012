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


@pytest.fixture
def group_cameras(monkeypatch):
    """``group_cameras(k)`` makes ``trace_run`` trace groups of ``k``
    cameras (``matcher.GROUP_CAMERAS``) for the rest of the test;
    ``group_cameras.default`` is the package's cap. Tests set the cap
    here and nowhere else."""
    from geotag_facade import matcher

    def set_cap(cameras):
        monkeypatch.setattr(matcher, "GROUP_CAMERAS", cameras)
    set_cap.default = matcher.GROUP_CAMERAS
    return set_cap
