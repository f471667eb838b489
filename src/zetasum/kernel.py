"""Scalar complex primitives.

Powers n^{-s} are built as magnitude n^{-Re(s)} and phase -Im(s)*ln(n), so
the magnitude is exactly the real power and conjugating s conjugates the
result.  Anything that would leave the double range raises instead of
letting inf or NaN escape.

The reciprocal factors 1/(1 - p^{-s}) blow up exactly on the imaginary-axis
lattice Im(s) = 2*pi*k/ln(p); `in_exclusion_set` reports the nearest such
point within tolerance.  A second grid at odd multiples of pi/ln(p), where
p^{-s} = -1 and the factors are perfectly finite, is kept available as a
fixture (`explicit_exclusion_points`) because it is easily mistaken for the
singular lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import primes

DEFAULT_SINGULAR_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


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

    `prime` is the lowest n whose n^{-s} is not finite; for a prime fold, the
    first prime at which the running Euler product, multiplied factor by
    factor, is not finite (its block's last prime if none is); for a
    Dirichlet sum of finite powers, its cutoff.
    """

    def __init__(self, prime: int, s: complex):
        self.prime = int(prime)
        self.s = complex(s)
        super().__init__(
            f"{self.prime}^(-s) exceeds the double-precision range at s = {self.s}"
        )


@dataclass(frozen=True)
class ExclusionWitness:
    """Nearest singular point to a tested s: its prime, lattice index k, and
    the Euclidean distance from s to that point."""

    prime: int
    k: int
    distance: float


def as_complex(s) -> complex:
    """Coerce to complex, rejecting non-finite coordinates."""
    z = complex(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"s must be finite, got {z}")
    return z


def power_term(n: int, s) -> complex:
    """n^{-s} for an integer n >= 1.

    Finite exactly when both parts are finite.  A modulus just past the
    double range can still have finite parts, |cos| and |sin| of the phase
    being below 1; such parts are built as (m*cos)*m and (m*sin)*m with
    m = n^{-Re(s)/2}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = as_complex(s)
    if z.imag == 0.0:
        try:
            return complex(math.pow(n, -z.real), 0.0)
        except OverflowError:
            raise PowerOverflowError(n, z) from None
    phase = -z.imag * math.log(n)
    if not math.isfinite(phase):
        raise PowerOverflowError(n, z)
    cos, sin = math.cos(phase), math.sin(phase)
    try:
        mag = math.pow(n, -z.real)
        re, im = mag * cos, mag * sin
    except OverflowError:
        try:
            half = math.pow(n, -0.5 * z.real)
        except OverflowError:
            raise PowerOverflowError(n, z) from None
        re, im = half * cos * half, half * sin * half
    if not (math.isfinite(re) and math.isfinite(im)):
        raise PowerOverflowError(n, z)
    return complex(re, im)


def prime_power_term(p: int, s) -> complex:
    """p^{-s} for a prime p (only p >= 2 is enforced)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return power_term(p, s)


def euler_factor(p: int, s, tol: float = DEFAULT_SINGULAR_TOL) -> complex:
    """1/(1 - p^{-s}).

    Raises:
        SingularPointError: when |1 - p^{-s}| < tol, i.e. s sits within
            tolerance of the singular lattice for this prime.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    t = prime_power_term(p, s)
    d = complex(1.0 - t.real, -t.imag)
    gap = abs(d)
    if gap < tol:
        raise SingularPointError(p, s, gap)
    return 1.0 / d


def singular_point(p: int, k: int) -> complex:
    """The k-th point on the imaginary axis where p^{-s} = 1 (k = 0 is s = 0)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return complex(0.0, _TWO_PI * k / math.log(p))


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


def in_exclusion_set(s, i: int, tol: float = DEFAULT_SINGULAR_TOL) -> ExclusionWitness | None:
    """Nearest singular point within tolerance, or None.

    s counts as excluded when |Re(s)| <= tol and Im(s) is within tol/ln(p)
    of 2*pi*k/ln(p) for some integer k and one of the first i primes.  Ties
    resolve to the smallest prime.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    z = as_complex(s)
    if abs(z.real) > tol:
        return None
    best: ExclusionWitness | None = None
    for p in primes.first_primes(i).tolist():
        ln_p = math.log(p)
        k = round(z.imag * ln_p / _TWO_PI)
        gap_im = z.imag - _TWO_PI * k / ln_p
        if abs(gap_im) <= tol / ln_p:
            dist = math.hypot(z.real, gap_im)
            if best is None or dist < best.distance:
                best = ExclusionWitness(prime=p, k=int(k), distance=dist)
    return best
