"""The narrative demos run to completion and print their opening lines, and
the README's quick tour runs as printed."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HEADERS = {
    "convergence_race.py": "dirichlet |          euler_product |           reformulated",
    "exclusion_singularities.py": "Approaching the k = 1 lattice point of p = 2 along the real direction",
    "identity_walkthrough.py": "Exact small cases at s = 3",
    "partition_corrections.py": "Partition of 2..20000 by smallest prime factor at s = 3",
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in (ROOT / "demos").glob("*.py")) == sorted(HEADERS)


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert any(HEADERS[name] in line for line in done.stdout.splitlines()[:3])


def test_readme_quick_tour_runs_as_printed():
    failed, attempted = doctest.testfile(str(ROOT / "README.md"), module_relative=False,
                                         optionflags=doctest.ELLIPSIS)
    assert (failed, attempted > 0) == (0, True)
