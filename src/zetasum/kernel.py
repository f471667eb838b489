"""Errors, the coercion of s, and the singular lattice.

Every n^{-s} in the library comes from `methods._power_terms`; this module
holds what the routes, the oracles and the CLI share around it: the
errors a power or a factor raises, `as_complex`, the witness type of the
singular test, and the lattice of points where a reciprocal factor
1/(1 - p^{-s}) is undefined.

The factors blow up exactly on the imaginary-axis lattice
Im(s) = 2*pi*k/ln(p) (`singular_point`).  Whether s is near enough to count
is decided in one place, `methods`: the folds refuse a factor whose
|1 - p^{-s}| is below DEFAULT_SINGULAR_TOL, and `methods.in_exclusion_set`
asks the same test and names the point as an `ExclusionWitness`.  A second
grid at odd multiples of pi/ln(p), where p^{-s} = -1 and the factors are
perfectly finite, is kept available as a fixture
(`explicit_exclusion_points`) because it is easily mistaken for the
singular lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import primes

DEFAULT_SINGULAR_TOL = 1e-9

class SingularPointError(ValueError):
    """s lies within tolerance of a point where some 1 - p^{-s} vanishes."""

    def __init__(self, prime: int, s: complex, gap: float):
        self.prime = int(prime)
        self.s = complex(s)
        self.gap = float(gap)
        super().__init__(
            f"|1 - {self.prime}^(-s)| = {self.gap:.3e} at s = {self.s}: "
            "the reciprocal factor is undefined here"
        )


class PowerOverflowError(OverflowError):
    """A power term or running aggregate left the double-precision range.

    `prime` is the lowest n whose n^{-s} is not finite among the powers
    evaluated (a Dirichlet sum evaluates 2^{-s} and the odd n only); for a
    prime fold, the first prime at which the running Euler product,
    multiplied factor by factor, is not finite (its block's last prime if
    none is).  The message says which.
    """

    def __init__(self, prime: int, s: complex):
        self.prime = int(prime)
        self.s = complex(s)
        super().__init__(
            f"{self.prime}^(-s) exceeds the double-precision range at s = {self.s}"
        )


@dataclass(frozen=True)
class ExclusionWitness:
    """The singular point that `methods.in_exclusion_set` names for a tested
    s: its prime, lattice index k, and the Euclidean distance from s to that
    point."""

    prime: int
    k: int
    distance: float


def as_complex(s) -> complex:
    """Coerce to complex, rejecting non-finite coordinates."""
    z = complex(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"s must be finite, got {z}")
    return z


def singular_point(p: int, k: int) -> complex:
    """The k-th point on the imaginary axis where p^{-s} = 1 (k = 0 is s = 0)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return complex(0.0, math.tau * k / math.log(p))


def explicit_exclusion_point(p: int, k: int) -> complex:
    """Imaginary-axis point with Im(s) = (1 + 2k)*pi/ln(p).

    Here p^{-s} = -1, so 1 - p^{-s} = 2 and the reciprocal factor is finite:
    these points look like, but are not, the singular lattice of
    `singular_point`.  Kept as a documented fixture.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    return complex(0.0, (1 + 2 * k) * math.pi / math.log(p))


def explicit_exclusion_points(i: int, k_range) -> list[complex]:
    """Fixture grid of `explicit_exclusion_point` over the first i primes.

    Ordered by prime index, then by k in the order given.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    ks = list(k_range)
    points = []
    for p in primes.first_primes(i).tolist():
        for k in ks:
            points.append(explicit_exclusion_point(p, k))
    return points
