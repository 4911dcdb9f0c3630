"""Tests for the exception hierarchy."""

import pytest

from repro.common.errors import (
    ConfigError,
    CrashInjected,
    ReproError,
    SecurityError,
    SimulationError,
)


@pytest.mark.parametrize(
    "exc_type",
    [ConfigError, SimulationError, SecurityError, CrashInjected],
)
def test_all_derive_from_repro_error(exc_type):
    assert issubclass(exc_type, ReproError)


def test_crash_injected_message_with_point():
    exc = CrashInjected("txn-after-mutate", detail="txn 7")
    assert exc.point == "txn-after-mutate"
    assert "txn-after-mutate" in str(exc)
    assert "txn 7" in str(exc)


def test_crash_injected_bare():
    exc = CrashInjected()
    assert exc.point == ""
    assert "crash injected" in str(exc)


def test_one_handler_catches_everything():
    for exc_type in (ConfigError, SecurityError, CrashInjected):
        try:
            raise exc_type("boom")
        except ReproError:
            pass
