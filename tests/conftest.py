"""Test the source tree, installed or not: `src` goes first on this
process's import path and on the PYTHONPATH that the `python -m zetasum`
and demo processes started by the tests inherit.

Also holds what the refusal tests share: `BOUNDARY` and `no_work`."""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Points the Dirichlet series, the identity and the Euler product it
# rearranges do not reach.
BOUNDARY = [1, 0.5 + 14.1j, -100, -400 + 3j]


@pytest.fixture
def no_work(monkeypatch):
    """`no_work("numpy.full", ...)` makes each named callable fail, for a
    refusal that must come before it; `.undo()` on the returned monkeypatch
    restores them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    def forbid(*targets: str):
        for target in targets:
            monkeypatch.setattr(target, forbidden)
        return monkeypatch

    return forbid
