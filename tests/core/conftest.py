"""Fixtures shared by the core tests."""

import pytest

from golden import record_window


@pytest.fixture(scope="session")
def recorded_window():
    """The recorded ``controller_dense`` window's module: ``load()`` reads
    the recording, ``build_live()`` builds the live cell, ``settings()``
    reads a controller's ``decide`` arguments."""
    return record_window
