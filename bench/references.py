"""Reference values of zeta(s) from mpmath, kept out of the measured process.

The anchors are committed in references.json, because the large-|Im s|
ones take minutes in mpmath (4+1e14i alone took about 146 s on a 2-core
x86 container).  Every other point has |Im s| <= 1e3 and is computed on
demand in a child process, so mpmath is never imported by the process
whose memory and set-up time the benchmark reports.

    python3 bench/references.py --regenerate   # rewrite references.json
    python3 bench/references.py --check        # recompute it, compare, write nothing
    echo '[[2.5, 3.0]]' | python3 bench/references.py   # serve points (JSON in, JSON out)
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

DPS = 40
TABLE = Path(__file__).with_name("references.json")


def zeta_reference(re: float, im: float, dps: int = DPS) -> tuple[str, str]:
    """zeta(re + i*im) as two decimal strings with `dps` significant digits."""
    import mpmath

    with mpmath.workdps(dps):
        z = mpmath.zeta(mpmath.mpc(re, im))
        return mpmath.nstr(z.real, dps), mpmath.nstr(z.imag, dps)


def load_table() -> dict[complex, complex]:
    """Committed anchor values, keyed by s."""
    table = json.loads(TABLE.read_text())
    return {complex(*e["s"]): complex(float(e["zeta"][0]), float(e["zeta"][1]))
            for e in table["entries"]}


def build_table(points) -> dict:
    import mpmath

    entries = []
    for s in points:
        start = time.perf_counter()
        zr, zi = zeta_reference(s.real, s.imag)
        entries.append({"s": [s.real, s.imag], "zeta": [zr, zi],
                        "mpmath_seconds": round(time.perf_counter() - start, 2)})
        print(f"zeta({s}) = {zr} {zi}i", file=sys.stderr)
    return {"dps": DPS, "mpmath": mpmath.__version__, "entries": entries}


def references_for(points, python: str) -> dict[complex, complex]:
    """Reference values for `points`: table entries where present, the rest
    computed by a child running this file, so mpmath stays out of the caller."""
    table = load_table()
    missing = sorted({s for s in points if s not in table}, key=lambda z: (z.real, z.imag))
    if missing:
        payload = json.dumps([[s.real, s.imag] for s in missing])
        proc = subprocess.run([python, str(Path(__file__).resolve())], input=payload,
                              capture_output=True, text=True, timeout=120, check=True)
        for s, (zr, zi) in zip(missing, json.loads(proc.stdout)):
            table[s] = complex(float(zr), float(zi))
    return {s: table[s] for s in points}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--regenerate", action="store_true",
                      help="recompute the anchors and rewrite references.json")
    mode.add_argument("--check", action="store_true",
                      help="recompute the anchors and compare with references.json")
    args = parser.parse_args()
    if not (args.regenerate or args.check):
        points = json.load(sys.stdin)
        json.dump([zeta_reference(re, im) for re, im in points], sys.stdout)
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from inputs import ANCHORS

    table = build_table([s for s, _tol in ANCHORS])
    if args.check:
        committed = json.loads(TABLE.read_text())["entries"]
        same = [e["zeta"] for e in committed] == [e["zeta"] for e in table["entries"]]
        print("match" if same else "MISMATCH")
        return 0 if same else 1
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
