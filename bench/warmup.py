"""Each workload's warm-up, and the probe that times set-up from outside.

    python3 bench/warmup.py WORKLOAD SEED

The probe makes the workload's seeded inputs, imports zetasum, performs
the warm-up and prints one line: the seconds it spent making the inputs,
then the path zetasum was imported from.  The caller times the probe from
spawn to that line and subtracts the input time, so set-up is the
interpreter start, `import zetasum` and the warm-up, and none of the
benchmark's own work.  The probe imports only `inputs`, which is
standard-library code, and zetasum.
"""

from __future__ import annotations

import time

_start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402


def warm_eval(points) -> None:
    """Grow the prime cache to every count a point's product routes reach,
    so the timed loop never sieves."""
    from zetasum import primes

    for s, tol, _origin in points:
        inputs.product_prime_count(s.real, tol, primes.nth_prime)


def crosscheck(made: dict) -> None:
    """Grow the prime cache to the fixed-i folds' and the coefficient
    check's needs."""
    from zetasum import primes

    primes.nth_prime(max(inputs.IDENTITY_I) + 1)
    s = made["coefficient"]
    # correction_coefficient's window can overshoot the count by k.
    primes.first_primes(2 * inputs.product_prime_count(s.real, inputs.COEFF_TOL, primes.nth_prime)
                        + max(inputs.COEFF_K))


# workload -> (make its inputs from a seed, warm up on them); cold_cli's
# children start cold, so its set-up is the import alone.
WARM_UPS = {
    "warm_eval": (inputs.warm_points, warm_eval),
    "crosscheck": (inputs.crosscheck_inputs, crosscheck),
    "cold_cli": (inputs.cold_commands, lambda made: None),
}


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    make, warm_up = WARM_UPS[name]
    made = make(seed)
    harness_s = time.perf_counter() - _start
    import zetasum

    warm_up(made)
    print(harness_s, zetasum.__file__, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
