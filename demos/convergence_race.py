#!/usr/bin/env python3
"""Race the three evaluation strategies for zeta(s), Re(s) > 1.

Each method grows its truncation until its certified tail bound drops
below the target, and `zeta_eval` stops within 1/32 of the first count
that certifies (the step-by-step trace doubles), so "terms_used" is an
honest, like-for-like cost.  The Dirichlet sum needs polynomially many
terms in 1/tol; the two prime-product routes track each other exactly
(they are the same object, rearranged) and need far fewer terms once
sigma is comfortably above 1.
"""

import math

from zetasum import METHODS, convergence_trace, zeta_eval

TARGETS = [(2.0, 1e-6), (2.5, 1e-8), (3.0, 1e-8), (4.0, 1e-10)]

print(f"{'s':>5} {'tol':>8} | " + " | ".join(f"{m:>22}" for m in METHODS))
print("-" * 85)
for sigma, tol in TARGETS:
    cells = []
    for method in METHODS:
        result = zeta_eval(sigma, method, tol)
        cells.append(f"{result.terms_used:>9} terms {result.tail_error_bound:8.1e}")
    print(f"{sigma:>5} {tol:>8.0e} | " + " | ".join(cells))

print()
print("Step-by-step trace at s = 2.5, tol = 1e-8 (reformulated route):")
print(f"{'step':>4} {'terms':>8} {'value':>20} {'certified bound':>16} {'true error':>12}")

reference = zeta_eval(2.5, "euler_product", 1e-10).value
for step, row in enumerate(convergence_trace(2.5, "reformulated", 1e-8)):
    err = abs(row.value - reference)
    print(f"{step:>4} {row.terms_used:>8} {row.value.real:>20.14f} "
          f"{row.tail_error_bound:>16.2e} {err:>12.2e}")

print()
print("The certified bound always sits above the true error: it is a")
print("guarantee, not an estimate.  It adds a truncation part, a tail summed")
print("over primes only, and a rounding part, so it stays within a small")
print("factor of the true error without ever dropping below it.")

print()
print("Complex points work the same way (no singular points off the axis):")
for s, tol in ((2 + 10j, 1e-6), (2.5 - 4j, 1e-8)):
    result = zeta_eval(s, tolerance=tol)
    print(f"  zeta({s}) = {result.value:.12f}  "
          f"({result.terms_used} terms, bound {result.tail_error_bound:.1e})")

print()
print("Cost explodes as Re(s) falls toward 1: the certified prime count for")
print("the product routes grows like (1/tol)^(1/(sigma-1)).  At sigma = 1.5")
print("even 1e-8 would need primes past 1e14, so the library refuses early:")
try:
    zeta_eval(1.5 - 4j, tolerance=1e-8)
except RuntimeError as exc:
    print(f"  RuntimeError: {exc}")

# sanity anchor: zeta(2) = pi^2/6
anchor = zeta_eval(2.0, "reformulated", 1e-6)
print()
print(f"Anchor: zeta(2) = {anchor.value.real:.10f} vs pi^2/6 = {math.pi ** 2 / 6:.10f}")
