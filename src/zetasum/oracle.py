"""Brute-force second paths for every closed form in `methods`, and the
`oracle-compare` checks (`compare`) with their allowances from `methods`.

Smooth-number sums converge to the finite Euler products; grouping the
Dirichlet sum by smallest prime factor reproduces, row by row, the tail
product times its leading prime power.  Both are structurally different
from the product code they check.

Both are array code over the package's one vectorised n^{-s},
`methods._power_terms`: the smooth sum over the array of smooth numbers,
the partition over [2, N] in chunks of `methods._CHUNK` integers, grouped
into rows by one smallest-prime-factor sieve and `np.bincount`.  The
coefficient checks take their single p_k^{-s} from it too: the power that
scales the tail product is the one the partition row of p_k sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import methods, primes
from .kernel import as_complex
from .methods import TruncationSpec, correction_coefficient


@dataclass(frozen=True)
class PartitionTable:
    """Sums of n^{-s} over n in [2, N], grouped by smallest prime factor:
    `sums[k]` (complex128) is the row of `primes[k]`, and `primes` (int64,
    ascending) is `primes.primes_up_to(N)`; both read-only.  Every n <= N has
    its smallest prime factor <= N, so the rows partition [2, N] exhaustively."""

    cutoff_N: int
    primes: np.ndarray
    sums: np.ndarray

    def row(self, p: int) -> complex:
        """The row of p; 0j when p is not a prime <= N, whose row is empty."""
        at = min(int(np.searchsorted(self.primes, p)), self.primes.size - 1)
        return complex(self.sums[at]) if self.primes[at] == p else complex(0.0)

    def total(self) -> complex:
        """Sum of all rows, added one after another in ascending prime order."""
        return complex(np.cumsum(self.sums)[-1])

    def addition_depth(self) -> int:
        """Most additions a term meets on its way into 1 + total(): its row's in a
        chunk's `np.bincount` (every other n), one per chunk and per row, and the 1."""
        N, chunk = self.cutoff_N, methods._CHUNK
        return min(N, chunk) // 2 + N // chunk + self.primes.size + 3


def smooth_sum_oracle(i: int, s, bound: int) -> complex:
    """Sum of n^{-s} over every n <= bound whose prime factors lie among the
    first i primes.  Converges in `bound` to the i-prime Euler product."""
    z = methods._convergent(s, "the smooth-number sum")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return complex(methods._power_terms(np.asarray(primes.smooth_numbers(i, bound),
                                                   dtype=np.float64), z).sum())


def spf_partition_sum(s, N: int) -> PartitionTable:
    """Group n in [2, N] by smallest prime factor and sum n^{-s} per group.

    The row for p estimates (tail product from p's index) * p^{-s} with an
    error no larger than the Dirichlet tail beyond N.

    One int32 sieve labels every n <= N with the rank, from 0, of its
    smallest prime factor: the base primes p <= isqrt(N), largest first,
    each write their rank k into the entries of their multiples from p*p
    on, so the smallest prime factor writes last, and the entries of [2, N]
    left at -1 are the primes, ranked in order.  The powers then go into
    the rows `methods._CHUNK` integers at a time.  The base primes' rows go
    through `np.bincount`, which adds each row's terms in ascending n; its
    bin `last` gathers the rest and is dropped.  A prime
    past isqrt(N) is the smallest factor of itself alone, so one mask per
    chunk adds its one term onto its row's 0, as bincount would (-0.0 reads
    0.0), and a chunk costs O(chunk + pi(isqrt(N))), not O(pi(N)).

    Re(s) <= 1 is refused before any sieve or table.  Past it every row and
    the total have modulus at most zeta(Re s), so only a power whose phase
    overflows can raise, as `methods._power_terms` does.  The table takes
    about 6 MB per 2^20 integers, so N past `methods.MAX_PARTITION_CUTOFF`
    is refused before it is built.
    """
    z = methods._convergent(s, "the partition")
    N = int(N)
    if N < 2:
        raise ValueError("N must be >= 2")
    if N > methods.MAX_PARTITION_CUTOFF:
        raise ValueError(f"N must be <= {methods.MAX_PARTITION_CUTOFF}")
    rank = np.full(N + 1, -1, dtype=np.int32)
    base = primes.primes_up_to(math.isqrt(N))
    for k, p in reversed(list(enumerate(base))):
        rank[p * p :: p] = k
    found = np.flatnonzero(rank[2:] < 0) + 2
    rank[found] = np.arange(found.size)
    sums = np.zeros(found.size, dtype=np.complex128)
    last, chunk = len(base), methods._CHUNK
    # The chunk's powers go into row 0 of this thread's rows and their logs
    # into row 3 (`methods._power_terms`), its groups and weights into the
    # two halves of row 2, and its mask into row 3.
    size = min(N - 1, chunk)
    rows = methods._rows(size)
    groups, weights, masks = rows[2].view(np.intp), rows[6][size:], rows[3].view(bool)
    n = np.arange(2, size + 2, dtype=np.float64)
    for a in range(2, N + 1, chunk):
        m = min(N + 1 - a, chunk)
        t = methods._power_terms(n[:m], z, rows)
        r = rank[a : a + m]
        group, w = np.minimum(r, last, dtype=np.intp, out=groups[:m]), weights[:m]
        for part, into in ((t.real, sums.real), (t.imag, sums.imag)):
            np.copyto(w, part)  # contiguous, or bincount copies it
            into[:last] += np.bincount(group, weights=w, minlength=last + 1)[:last]
        big = np.greater_equal(r, last, out=masks[:m])
        sums[r[big]] += t[big]
        n += chunk
    found.flags.writeable = sums.flags.writeable = False
    return PartitionTable(cutoff_N=N, primes=found, sums=sums)


def _predicted_row(k: int, z: complex, spec: TruncationSpec) -> tuple[int, complex]:
    """p_k and the certified tail product from p_k on times p_k^{-s}."""
    coeff = correction_coefficient(k, z, spec)
    p_k = primes.nth_prime(k)
    return p_k, coeff.value * complex(methods._power_terms([p_k], z)[0])


def coefficient_crosscheck(k: int, s, N: int, spec: TruncationSpec) -> float:
    """Distance between the two routes to the k-th correction term.

    Route one: truncated tail product (certified to spec.tolerance) times
    p_k^{-s}.  Route two: the partition row for p_k at cutoff N.  The result
    should not exceed spec.tolerance + N^(1-Re(s))/(Re(s)-1) plus the row's
    rounding, `methods._power_sum_rounding` at the table's `addition_depth`.
    """
    z = as_complex(s)
    p_k, predicted = _predicted_row(k, z, spec)
    return abs(predicted - spf_partition_sum(z, N).row(p_k))


def compare(s, spec: TruncationSpec) -> list[tuple[str, int, float, float]]:
    """`oracle-compare`'s rows (check, k, abs_error, allowed_error) at s, with
    i and N from spec and allowances of truncation plus rounding from `methods`.
    The tail products run before the one partition table, so an unreachable
    tolerance is refused first; coefficient rows match `coefficient_crosscheck`."""
    z = as_complex(s)
    i, N = spec.prime_index_i, spec.dirichlet_cutoff_N
    smooth = smooth_sum_oracle(i, z, N)
    predicted = [_predicted_row(k, z, spec) for k in range(1, min(5, i) + 1)]
    product = methods.euler_partial(i, z)
    zeta = methods._zeta_bounds(z.real)
    tail = methods._integral_tail(N, z.real)
    rows = [("smooth_vs_product", i, abs(smooth - product),
             tail + methods._power_sum_rounding(z, methods._pairwise_depth(N), zeta)
             + methods._rounding_of(z, methods.METHOD_EULER_PRODUCT, zeta)(i, abs(product)))]
    table = spf_partition_sum(z, N)
    table_rounding = methods._power_sum_rounding(z, table.addition_depth(), zeta)
    err = abs(1.0 + table.total() - methods.dirichlet_partial(N, z))
    rows.append(("partition_identity", 0, err,
                 methods._rounding_of(z, methods.METHOD_DIRICHLET, zeta)(N, 0.0) + table_rounding))
    for k, (p_k, value) in enumerate(predicted, start=1):
        err = abs(value - table.row(p_k))
        rows.append(("coefficient_crosscheck", k, err, spec.tolerance + tail + table_rounding))
    return rows
