"""Brute-force second paths for every closed form in `methods`.

Smooth-number sums converge to the finite Euler products; grouping the
Dirichlet sum by smallest prime factor reproduces, row by row, the tail
product times its leading prime power.  Both are structurally different
from the product code they check.

Both are array code over the package's one vectorised n^{-s},
`methods._power_terms`: the smooth sum over the array of smooth numbers,
the partition over [2, N] in chunks of `methods._CHUNK` integers, grouped
into rows by one smallest-prime-factor sieve and `np.bincount`.  The scalar
`kernel.power_term` stays the independent reference the tests check both
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import methods, primes
from .kernel import as_complex, prime_power_term
from .methods import NonConvergentError, TruncationSpec, correction_coefficient


@dataclass(frozen=True)
class PartitionTable:
    """Per-prime sums of n^{-s} over n in [2, N], grouped by smallest prime
    factor.  Every n <= N has its smallest prime factor <= N, so the rows
    partition [2, N] exhaustively."""

    cutoff_N: int
    rows: dict[int, complex]

    def total(self) -> complex:
        """Sum of all rows, ascending prime order."""
        out = complex(0.0)
        for p in sorted(self.rows):
            out += self.rows[p]
        return out

    def addition_depth(self) -> int:
        """Most additions a term meets on its way into 1 + total(): its row's in a
        chunk's `np.bincount` (every other n), one per chunk and per row, and the 1."""
        N, chunk = self.cutoff_N, methods._CHUNK
        return min(N, chunk) // 2 + N // chunk + len(self.rows) + 3


def smooth_sum_oracle(i: int, s, bound: int) -> complex:
    """Sum of n^{-s} over every n <= bound whose prime factors lie among the
    first i primes.  Converges in `bound` to the i-prime Euler product."""
    z = as_complex(s)
    if z.real <= 1.0:
        raise NonConvergentError("the smooth-number sum", z)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = np.asarray(primes.smooth_numbers(i, bound), dtype=np.float64)
    return complex(methods._power_terms(n, z).sum())


def spf_partition_sum(s, N: int) -> PartitionTable:
    """Group n in [2, N] by smallest prime factor and sum n^{-s} per group.

    The row for p estimates (tail product from p's index) * p^{-s} with an
    error no larger than the Dirichlet tail beyond N.

    One int32 sieve labels every n <= N with the rank of its smallest
    prime factor: the k-th base prime p <= isqrt(N) writes k into the
    entries of its multiples from p*p on that are still 0, and the entries
    of [2, N] left at 0 are the primes, ranked in order.  The powers then
    go into the rows `methods._CHUNK` integers at a time through
    `np.bincount`, which adds each row's terms in ascending n.
    """
    z = as_complex(s)
    N = int(N)
    if N < 2:
        raise ValueError("N must be >= 2")
    rank = np.zeros(N + 1, dtype=np.int32)
    for k, p in enumerate(primes.primes_up_to(math.isqrt(N)), start=1):
        multiples = rank[p * p :: p]
        multiples[multiples == 0] = k
    found = np.flatnonzero(rank[2:] == 0) + 2
    rank[found] = np.arange(1, found.size + 1)
    re = np.zeros(found.size + 1)
    im = np.zeros(found.size + 1)
    for a in range(2, N + 1, methods._CHUNK):
        n = np.arange(a, min(N + 1, a + methods._CHUNK), dtype=np.float64)
        t = methods._power_terms(n, z)
        group = rank[a : a + n.size]
        re += np.bincount(group, weights=t.real, minlength=re.size)
        im += np.bincount(group, weights=t.imag, minlength=im.size)
    rows = dict(zip(found.tolist(), (re + 1j * im)[1:].tolist()))
    return PartitionTable(cutoff_N=N, rows=rows)


def coefficient_crosscheck(k: int, s, N: int, spec: TruncationSpec) -> float:
    """Distance between the two routes to the k-th correction term.

    Route one: truncated tail product (certified to spec.tolerance) times
    p_k^{-s}.  Route two: the partition row for p_k at cutoff N.  The result
    should not exceed spec.tolerance + N^(1-Re(s))/(Re(s)-1).
    """
    z = as_complex(s)
    coeff = correction_coefficient(k, z, spec)
    p_k = primes.nth_prime(k)
    predicted = coeff.value * prime_power_term(p_k, z)
    observed = spf_partition_sum(z, N).rows.get(p_k, complex(0.0))
    return abs(predicted - observed)
