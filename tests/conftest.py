import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


@pytest.fixture(autouse=True)
def package_on_child_path(monkeypatch):
    """Let scorer subprocesses (`python -m vlrmerge ...`) import this checkout's package."""
    current = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", SRC + os.pathsep + current if current else SRC)
