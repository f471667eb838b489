"""Scalar reference arithmetic for the tests.

One power, one reciprocal factor or one smallest prime factor at a time,
with Python's `math` instead of numpy: a computation path independent of
the library's one vectorised n^{-s} (`methods._power_terms`) and of the
partition's smallest-prime-factor sieve, which the tests check against it.

Powers n^{-s} are built as magnitude n^{-Re(s)} and phase -Im(s)*ln(n), so
the magnitude is exactly the real power and conjugating s conjugates the
result.  Anything that would leave the double range raises instead of
letting inf or NaN escape.
"""

from __future__ import annotations

import math

import numpy as np

from zetasum.kernel import (
    DEFAULT_SINGULAR_TOL,
    PowerOverflowError,
    SingularPointError,
    as_complex,
)
from zetasum.primes import PrimeCache, default_cache


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


def smallest_prime_factor(n: int, cache: PrimeCache | None = None) -> int:
    """Least prime dividing n (trial division against the cache).

    Raises:
        ValueError: for n < 2.
    """
    n = int(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    cache = cache if cache is not None else default_cache()
    root = math.isqrt(n)
    cache.extend_to(root)
    cut = int(np.searchsorted(cache.primes, root, side="right"))
    for p in cache.primes[:cut].tolist():
        if n % p == 0:
            return p
    return n
