"""Let processes the tests start import the package from this checkout too,
and give tests one way to set the working-array budget.

``pythonpath`` in pyproject.toml only reaches the pytest process itself;
``python -m mixedhg.cli`` subprocesses read ``PYTHONPATH``.
"""

import os
from pathlib import Path

import pytest

from mixedhg import core

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def working_bytes(monkeypatch):
    """A function that sets ``core.WORKING_BYTES``, the budget of every
    chunked pass, for the rest of the test: a small one forces splits."""
    return lambda limit: monkeypatch.setattr(core, "WORKING_BYTES", limit)
