"""Prime generation and caching.

A single growing sieve backs every prime-indexed computation in this
package: the shared cache `default_cache()`, built empty at import, which
every helper here reads and grows.  It extends itself on demand, at least
doubling the sieved range each time so repeated extension stays amortized.
Each extension sieves odd numbers only, in segments of `_SEGMENT` flags
that stay in cache, and writes each segment's primes straight into one
int64 array preallocated by the Rosser & Schoenfeld (1962) bound on pi(x)
(`PI_UPPER`).  The cache lives in memory only: re-sieving a range is faster
than reading its primes back from a file.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_SEGMENT = 1 << 20  # odd numbers per sieve segment: 1 MB of flags


# pi(x) < PI_UPPER*x/ln x for x > 1 (Rosser & Schoenfeld, Illinois J.
# Math. 6, 1962).
PI_UPPER = 1.25506


def _count_bound(x: int) -> int:
    """An upper bound on the number of primes <= x, for x >= 2; the + 1
    absorbs rounding of the float."""
    return int(PI_UPPER * x / math.log(x)) + 1


def prime_ceiling(n: int) -> float:
    """An upper bound on the n-th prime, for n >= 1.

    p_n < n(ln n + ln ln n) for n >= 6 (Rosser & Schoenfeld, 1962), and
    p_n < n(ln n + ln ln n - 0.9484) for n >= 39017 (Dusart, Math. Comp.
    68, 1999); below 6, p_5 = 11.
    """
    if n < 6:
        return 11.0
    x = float(n)
    shift = -0.9484 if n >= 39017 else 0.0
    return x * (math.log(x) + math.log(math.log(x)) + shift)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class PrimeCache:
    """Monotonically growing, sorted sequence of primes.

    Growth is append-only: each extension publishes a new array whose prefix
    is the old one, and never writes an array once published, so a reader
    holding a slice of :attr:`primes` always sees a consistent prefix and
    needs no lock.  Extensions hold a lock, so any number of threads may
    grow one cache at the same time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._primes = _read_only(np.empty(0, dtype=np.int64))
        self._source_limit = 1

    @property
    def primes(self) -> np.ndarray:
        """All cached primes, ascending, as a read-only int64 array."""
        return self._primes

    @property
    def source_limit(self) -> int:
        """Largest integer the sieve has covered; no prime <= this is missing."""
        return self._source_limit

    def __len__(self) -> int:
        return int(self._primes.size)

    # ------------------------------------------------------------------
    # growth

    def extend_to(self, limit: int) -> None:
        """Ensure every prime <= limit is cached, sieving forward if needed."""
        limit = int(limit)
        with self._lock:
            if limit <= self._source_limit:
                return
            self._grow(max(limit, 2 * self._source_limit, 256))

    def _grow(self, target: int) -> None:
        root = math.isqrt(target)
        if root > self._source_limit:
            self._grow(root)
        if target <= self._source_limit:
            return
        n = len(self)
        buf = np.empty(_count_bound(target), dtype=np.int64)
        buf[:n] = self._primes
        lo = self._source_limit + 1
        if lo == 2:
            buf[n] = 2
            n += 1
        base = self._primes[1 : int(np.searchsorted(self._primes, root, side="right"))]
        squares = base * base
        flags = np.empty(min(_SEGMENT, target // 2 + 1), dtype=bool)
        for a in range(lo | 1, target + 1, 2 * _SEGMENT):
            seg = flags[: min(_SEGMENT, (target - a) // 2 + 1)]
            seg[:] = True
            # Flag j stands for a + 2j, so an odd prime's odd multiples are p
            # flags apart.  Mark them from p*p or from the first one >= a,
            # j = -a*(p+1)/2 mod p, since (p+1)/2 inverts 2 mod p.
            ps = base[: int(np.searchsorted(squares, a + 2 * (seg.size - 1), side="right"))]
            first = np.maximum(-a % ps * ((ps + 1) // 2) % ps, (squares[: ps.size] - a) // 2)
            for p, j in zip(ps.tolist(), first.tolist()):
                seg[j::p] = False
            found = np.flatnonzero(seg)
            out = buf[n : n + found.size]
            np.multiply(found, 2, out=out)
            out += a
            n += found.size
        self._primes = _read_only(buf[:n])
        self._source_limit = target

    def extend_to_count(self, count: int) -> None:
        """Ensure at least `count` primes are cached."""
        count = int(count)
        while len(self) < count:
            # Just past `prime_ceiling`; the margin absorbs rounding of the float.
            self.extend_to(int(prime_ceiling(count)) + 16)


_default_cache = PrimeCache()


def default_cache() -> PrimeCache:
    """The shared cache every prime lookup in the package reads and grows."""
    return _default_cache


def reset_default_cache() -> None:
    """Replace the shared cache with a fresh, empty one."""
    global _default_cache
    _default_cache = PrimeCache()


def first_primes(count: int) -> np.ndarray:
    """First `count` primes, ascending, as a read-only int64 array."""
    if count < 0:
        raise ValueError("count must be >= 0")
    cache = default_cache()
    cache.extend_to_count(count)
    return cache.primes[:count]


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending.  Empty for limit < 2."""
    limit = int(limit)
    if limit < 2:
        return []
    cache = default_cache()
    cache.extend_to(limit)
    cut = int(np.searchsorted(cache.primes, limit, side="right"))
    return cache.primes[:cut].tolist()


def nth_prime(k: int) -> int:
    """The k-th prime, 1-indexed: nth_prime(1) == 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cache = default_cache()
    cache.extend_to_count(k)
    return int(cache.primes[k - 1])


def smooth_numbers(i: int, bound: int) -> np.ndarray:
    """All n <= bound whose prime factors lie among the first i primes, as a
    sorted array.

    Includes n = 1 (the empty factorization).  Built by multiplying prime
    powers outward rather than filtering 1..bound, since smooth numbers are
    sparse at large bounds: for each prime p, the numbers found so far times
    p, p^2, ... as arrays, each step keeping only the numbers <= bound // p.
    Only the primes <= min(p_i, bound) are read, so an i past pi(bound)
    costs no more sieving than pi(bound) does.  The array is int64 when
    bound fits one, else of Python ints (object).
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    bound = int(bound)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    values = np.ones(1, dtype=np.int64 if bound <= np.iinfo(np.int64).max else object)
    for p in primes_up_to(int(min(bound, prime_ceiling(i))))[:i]:
        cap, found = bound // p, [values]
        while found[-1].size:
            found.append(found[-1][found[-1] <= cap] * p)
        values = np.concatenate(found)
    values.sort()
    return values
