#!/usr/bin/env python3
"""Why the prime-indexed series reproduces the full Dirichlet sum.

Writing zeta(s) = 1 + sum over primes of (tail product) * p^{-s}, each
weighted term must absorb every composite whose factorization starts at
that prime.  Grouping n <= N by smallest prime factor makes this visible:
row by row, the brute-force partition converges to the tail-product route.
"""

from zetasum import (
    TruncationSpec,
    correction_coefficient,
    dirichlet_partial,
    nth_prime,
    smooth_numbers,
    spf_partition_sum,
    zeta_eval,
)

S = 3.0
N = 20_000

print("=" * 72)
print(f"Partition of 2..{N} by smallest prime factor at s = {S:g}")
print("=" * 72)

table = spf_partition_sum(S, N)
reference = dirichlet_partial(N, S)
print(f"rows: {table.primes.size} primes;  1 + sum(rows) - partial sum = "
      f"{abs(1 + table.total() - reference):.2e}")
print("(the grouping is exact: same terms, reshuffled)")

print()
print(f"{'k':>3} {'p_k':>5} {'partition row':>18} {'tail-product route':>20} {'difference':>12}")
spec = TruncationSpec(tolerance=1e-10)
for k in range(1, 7):
    p = nth_prime(k)
    row = table.row(p).real
    predicted = (correction_coefficient(k, S, spec).value * p ** -S).real
    print(f"{k:>3} {p:>5} {row:>18.12f} {predicted:>20.12f} {abs(row - predicted):>12.2e}")

print()
print(f"Differences shrink with N like N^(1 - {S:g})/({S:g} - 1): the rows only")
print("see n <= N while the product route carries the full tail.")

print()
print("=" * 72)
print("Row convergence as the cutoff grows (k = 1, the even numbers)")
print("=" * 72)

predicted = (correction_coefficient(1, S, spec).value * 2 ** -S).real
for cutoff in (10, 100, 1000, 10_000, 100_000):
    row = spf_partition_sum(S, cutoff).row(2).real
    print(f"  N = {cutoff:>7}: row = {row:.12f}   gap = {abs(row - predicted):.2e}")
print(f"  tail-product route:  {predicted:.12f}")

print()
print("=" * 72)
print("Smooth numbers give the finite products their own brute-force check")
print("=" * 72)

# Every n built only from the first two primes, summed directly, converges
# to the two-prime Euler product.
from zetasum import euler_partial, smooth_sum_oracle

product = euler_partial(2, S).real
for bound in (10, 1000, 100_000):
    count = len(smooth_numbers(2, bound))
    approx = smooth_sum_oracle(2, S, bound).real
    print(f"  bound {bound:>7} ({count:>3} smooth numbers): sum = {approx:.12f} "
          f"gap = {abs(approx - product):.2e}")
print(f"  two-prime product:             {product:.12f}")

print()
anchor = zeta_eval(S, "reformulated", 1e-8)
print(f"Everything meets in the middle: zeta({S:g}) = {anchor.value.real:.12f} "
      f"(certified to {anchor.tail_error_bound:.1e})")
