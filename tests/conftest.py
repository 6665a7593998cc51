import pytest
from hypothesis import HealthCheck, settings

# detailed assertion messages for the shared oracle checks
pytest.register_assert_rewrite("oracles")

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    # the same draws on every run, and no example store carried between runs
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
