"""Shared test configuration: a deterministic, bounded hypothesis profile."""

try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "equiwave", derandomize=True, deadline=None, max_examples=60, database=None
    )
    settings.load_profile("equiwave")
