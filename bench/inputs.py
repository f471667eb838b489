"""Seeded request lists for the three workloads.

Everything here is a pure function of the seed and imports nothing from
zetasum, so the same seed always yields the same inputs and the program
under test receives only the generated values.
"""

from __future__ import annotations

import math
import random

METHODS = ("dirichlet", "euler_product", "reformulated")

# Fixed anchors (s, tol).  The last three are the points where the current
# certificate is known to be wrong; they stay in whatever the code does.
ANCHORS = [
    (complex(2, 0), 1e-6),
    (complex(2, 10), 1e-6),
    (complex(3, 0), 1e-10),
    (complex(3, 1e8), 1e-10),
    (complex(2, 1e12), 1e-6),
    (complex(4, 1e14), 1e-10),
]

# warm_eval seeded points: drawn from sigma ~ U[1.5, 3.5], |t| <= 1e3,
# tol ~ 10^U[-10, -5], and kept by predicted cost only, up to a quota for
# each power-of-two Dirichlet term count.  Many points per level make a
# pass's cost, and so wall_s and the latency percentiles, nearly independent
# of the seed.  Levels above 2^19 get no seeded points: one such point's
# product routes cost 2-5x more or less depending on sigma and |zeta(s)|,
# which moved wall_s by about 10% between seeds.  The anchors cover 2^20.
WARM_QUOTA = {level: 10 for level in range(14, 20)}

IDENTITY_I = (20, 1_000, 100_000)
SMOOTH_I, SMOOTH_BOUND = 20, 100_000
SPF_N = 100_000
COEFF_K, COEFF_N, COEFF_TOL = range(1, 6), 10_000, 1e-6

_MAX_DRAWS = 1_000_000


def dirichlet_terms(sigma: float, tol: float) -> int:
    """Term count the Dirichlet route reaches: 16, 32, ... doubled until the
    closed-form tail N^(1-sigma)/(sigma-1) is at most tol."""
    target = 16
    while target ** (1.0 - sigma) / (sigma - 1.0) > tol:
        target *= 2
    return target


def product_prime_count(sigma: float, tol: float, nth_prime) -> int:
    """Upper bound on the prime count the product routes reach.

    Mirrors their doubling rule with |value| <= zeta(sigma) <= sigma/(sigma-1),
    so pre-growing the cache to this count means a request never sieves.
    """
    magnitude = sigma / (sigma - 1.0)
    count = 1
    while magnitude * math.expm1(2.0 * nth_prime(count) ** (1.0 - sigma) / (sigma - 1.0)) > tol:
        count *= 2
    return count


def _round(x: float) -> float:
    # Six significant digits keep command-line literals short.
    return float(f"{x:.6g}")


def literal(s: complex) -> str:
    """Complex literal in the CLI's syntax (2.0, 2.5-3.0i), exact for any float."""
    if s.imag == 0.0:
        return repr(s.real)
    return f"{s.real!r}{'+' if s.imag >= 0 else ''}{s.imag!r}i"


def warm_points(seed: int) -> list[tuple[complex, float, str]]:
    """(s, tol, origin) for warm_eval: the anchors, then the seeded points."""
    rng = random.Random(f"warm_eval:{seed}")
    quota = dict(WARM_QUOTA)
    seeded = []
    for _ in range(_MAX_DRAWS):
        if not any(quota.values()):
            break
        sigma = _round(rng.uniform(1.5, 3.5))
        t = _round(rng.uniform(-1e3, 1e3))
        tol = _round(10.0 ** rng.uniform(-10.0, -5.0))
        level = dirichlet_terms(sigma, tol).bit_length() - 1
        if quota.get(level, 0) > 0:
            quota[level] -= 1
            seeded.append((complex(sigma, t), tol, "seeded"))
    else:
        raise RuntimeError("could not fill every warm_eval cost level")
    return [(s, tol, "anchor") for s, tol in ANCHORS] + seeded


def crosscheck_inputs(seed: int) -> dict:
    """Seeded points for the verification path.

    The identity grid spans Re(s) in [0.5, 3], half of it at Re(s) <= 1
    where neither side converges but the finite identity still holds.
    The oracle points keep Re(s) >= 2 so the tail products stay feasible.
    The coefficient point keeps Re(s) >= 2.5: the primes its tolerance
    needs grow steeply as Re(s) nears 2, and one seed with Re(s) near 2
    made set-up sieve about ten times further and raised peak memory
    from 41 to 57 MB.
    """
    rng = random.Random(f"crosscheck:{seed}")

    def point(lo: float, hi: float, t_max: float) -> complex:
        return complex(_round(rng.uniform(lo, hi)), _round(rng.uniform(-t_max, t_max)))

    grid = [point(0.5, 1.0, 1e3) for _ in range(4)] + [point(1.0, 3.0, 1e3) for _ in range(4)]
    return {
        "identity": grid,
        "smooth": [point(2.0, 3.5, 100.0) for _ in range(2)],
        "spf": point(2.0, 3.5, 100.0),
        "coefficient": point(2.5, 3.5, 100.0),
    }


# cold_cli: the two heavy requests run once per pass, each light one
# LIGHT_REPEATS times in a row, so that every light request's latency is
# its fastest of several starts of the same child.
COLD_HEAVY = [
    (["eval", "--s", "2+10i", "--tol", "1e-8", "--method", "euler_product"], complex(2, 10)),
    (["eval", "--s", "1.5", "--tol", "1e-6", "--method", "euler_product"], complex(1.5, 0)),
]
LIGHT_REPEATS = 2


def cold_commands(seed: int) -> list[tuple[list[str], complex | None]]:
    """(argv, s) for the fresh `python -m zetasum` children of one pass.

    Two fixed heavy requests (a sieve to ~3e8, and a refusal that today
    comes only after sieving) among thirty seeded import-dominated ones,
    enough for a tail percentile with ten requests beyond it.  s is the
    point whose zeta value the report must match, where one exists.
    """
    rng = random.Random(f"cold_cli:{seed}")

    def point(lo: float, hi: float) -> complex:
        return complex(_round(rng.uniform(lo, hi)), _round(rng.uniform(-100.0, 100.0)))

    light = []
    for method in METHODS:
        for _ in range(4):
            s = point(2.5, 3.5)
            light.append((["eval", "--s", literal(s), "--tol", "1e-6", "--method", method], s))
    for _ in range(9):
        s = point(2.5, 3.5)
        light.append((["converge", "--s", literal(s), "--tol", "1e-4"], s))
    for _ in range(9):
        light.append((["identity-check", "--s", literal(point(0.5, 3.0)), "--i", "1000"], None))
    return [COLD_HEAVY[0]] + light[:15] + [COLD_HEAVY[1]] + light[15:]
