"""Let processes the tests start import the package from this checkout too.

``pythonpath`` in pyproject.toml only reaches the pytest process itself;
``python -m mixedhg.cli`` subprocesses read ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
