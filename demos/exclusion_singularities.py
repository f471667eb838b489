#!/usr/bin/env python3
"""Map the points where the reciprocal factors 1/(1 - p^{-s}) blow up.

p^{-s} = 1 exactly when Re(s) = 0 and Im(s) = 2*pi*k/ln(p), a lattice on
the imaginary axis, one spacing per prime.  We watch a factor diverge as s
approaches a lattice point, ask the membership test for witnesses, and then
contrast the true lattice with the odd-multiple grid Im(s) = (1+2k)*pi/ln(p),
where p^{-s} = -1 and nothing blows up at all.
"""

import cmath
import math

from zetasum import (
    SingularPointError,
    euler_partial,
    explicit_exclusion_point,
    in_exclusion_set,
    singular_point,
)


def power(p, s):
    """p^(-s) in plain complex arithmetic."""
    return cmath.exp(-s * math.log(p))


print("=" * 72)
print("Approaching the k = 1 lattice point of p = 2 along the real direction")
print("=" * 72)

target = singular_point(2, 1)
print(f"target s0 = {target.imag:.12f}i  (2*pi/ln 2)")
for eps in (1e-1, 1e-3, 1e-5, 1e-7):
    s = complex(eps, target.imag)
    factor = euler_partial(1, s)  # the one factor of p = 2
    print(f"  s = s0 + {eps:<7.0e}  |factor| = {abs(factor):12.4e}")
try:
    euler_partial(1, target)
except SingularPointError as exc:
    print(f"  s = s0 exactly   -> {exc}")

print()
print("=" * 72)
print("Witnesses from the membership test")
print("=" * 72)

for s in (0j, singular_point(3, -2), singular_point(5, 7), complex(2.0, 0.0)):
    w = in_exclusion_set(s, 5)
    if w is None:
        print(f"  s = {s!s:<24} -> not excluded")
    else:
        print(f"  s = {s!s:<24} -> witness prime {w.prime}, k = {w.k}, "
              f"distance {w.distance:.2e}")

print()
print("=" * 72)
print("Even multiples of pi/ln(p) are singular; odd multiples are not")
print("=" * 72)

print(f"{'p':>3} {'k':>3} {'even: |1 - p^(-s)|':>20} {'odd: |1 - p^(-s)|':>20}")
for p in (2, 3, 5):
    for k in (-1, 0, 1):
        even = abs(1 - power(p, singular_point(p, k)))
        odd = abs(1 - power(p, explicit_exclusion_point(p, k)))
        print(f"{p:>3} {k:>3} {even:>20.3e} {odd:>20.3f}")

print()
print("At the odd-multiple points p^{-s} = -1, so 1 - p^{-s} = 2: the factor")
print("is a harmless 1/2.  Only the even lattice (p^{-s} = +1) is excluded;")
print("the odd grid ships here as a fixture precisely because the two are")
print("easy to conflate.")

# these grids interleave: the odd points sit exactly between lattice points
spacing = 2 * math.pi / math.log(2)
gap = explicit_exclusion_point(2, 0).imag - singular_point(2, 0).imag
print(f"\nFor p = 2 the lattice spacing is {spacing:.6f}; the odd point sits "
      f"{gap:.6f} above it (exactly half).")
