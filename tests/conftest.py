"""Shared test configuration: a deterministic, bounded hypothesis profile,
and a forked child that dies without sending."""

import os
import signal

import pytest

import equiwave.solver

try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "equiwave", derandomize=True, deadline=None, max_examples=60, database=None
    )
    settings.load_profile("equiwave")


@pytest.fixture
def child_killed_at_the_fourth_snapshot(monkeypatch):
    """A run in a forked child kills itself, with SIGKILL, as it records
    its fourth snapshot; a run in this process records as before."""
    record, pid = equiwave.solver._Run._record, os.getpid()

    def killing_record(run, t):
        if os.getpid() != pid and len(run.times) == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return record(run, t)

    monkeypatch.setattr(equiwave.solver._Run, "_record", killing_record)
