import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One deterministic profile for the whole suite; the sandbox CPU is slow
# enough that per-example deadlines would flake.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
