"""Test the source tree, installed or not: `src` goes first on this
process's import path and on the PYTHONPATH that the `python -m zetasum`
and demo processes started by the tests inherit."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
