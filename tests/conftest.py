import pytest
from hypothesis import settings

# exact rational arithmetic has high variance per example; wall-clock
# deadlines only add flakiness here
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture(scope="module")
def sympy():
    """sympy as an optional oracle: tests that take it skip without it."""
    return pytest.importorskip("sympy")
