import cProfile
import gc
import pstats

import pytest


def _total_calls(fn, *args, **kwargs) -> int:
    """cProfile's total_calls of one call of fn.  No collection runs while
    it counts, whose finalizers of other tests' objects would count."""
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profile.runcall(fn, *args, **kwargs)
    finally:
        gc.enable()
    return pstats.Stats(profile).total_calls


@pytest.fixture
def total_calls():
    """The Python-level calls of one call: a count does not drift as wall
    time does, so a bound on it guards a fixed cost deterministically."""
    return _total_calls
