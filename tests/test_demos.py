"""The narrative demos and the README's command-line examples print exactly
the bytes committed under `tests/expected/`, and the README's quick tour
runs as printed."""

import doctest
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "expected"

DEMOS = ["convergence_race.py", "exclusion_singularities.py", "identity_walkthrough.py",
         "partition_corrections.py"]

# The README's command-line examples, in its order, each under the name of
# its expected stdout file (cli_<name>.txt).
README_COMMANDS = {
    "eval": "eval --s 2+0i --method reformulated --tol 1e-6",
    "eval_json": "eval --s 2.5+10i --s 3+0i --method euler_product --format json",
    "identity_check": "identity-check --i 20 --s 0.5+14.1i",
    "converge": "converge --s 2.5+0i --tol 1e-8 --methods dirichlet,reformulated",
    "exclusion": "exclusion --i 3 --k-range -2..2 --compare",
    "oracle_compare": "oracle-compare --s 3+0i --i 3 --N 10000 --tol 1e-8",
}


def run_python(*argv):
    done = subprocess.run([sys.executable, *argv], capture_output=True, check=False)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_every_demo_is_listed():
    assert sorted(path.name for path in (ROOT / "demos").glob("*.py")) == DEMOS
    expected = sorted(path.name for path in EXPECTED.glob("demo_*.txt"))
    assert expected == [f"demo_{Path(name).stem}.txt" for name in DEMOS]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    out = run_python(str(ROOT / "demos" / name))
    assert out == (EXPECTED / f"demo_{Path(name).stem}.txt").read_bytes()


def test_readme_lists_the_checked_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == [f"zetasum {command}" for command in README_COMMANDS.values()]


@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_output(name):
    out = run_python("-m", "zetasum", *shlex.split(README_COMMANDS[name]))
    assert out == (EXPECTED / f"cli_{name}.txt").read_bytes()


def test_readme_quick_tour_runs_as_printed():
    failed, attempted = doctest.testfile(str(ROOT / "README.md"), module_relative=False,
                                         optionflags=doctest.ELLIPSIS)
    assert (failed, attempted > 0) == (0, True)
