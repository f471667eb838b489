"""Acceptance suite.

One test per criterion, each printing a PASS line with the measured margin
(run with `pytest tests/test_acceptance.py -v -s` to see them).  Expected
values come from independent oracles: exact rational arithmetic for the
finite spot checks, Dirichlet partial sums plus an integral tail correction
for zeta references, and direct scalar evaluation for points on the
imaginary axis.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from scalar_reference import euler_factor, prime_power_term
from zetasum.kernel import (
    SingularPointError,
    explicit_exclusion_point,
    explicit_exclusion_points,
    singular_point,
)
from zetasum.methods import (
    METHODS,
    METHOD_EULER_PRODUCT,
    METHOD_REFORMULATED,
    TruncationSpec,
    convergence_trace,
    dirichlet_partial,
    euler_partial,
    identity_residual,
    in_exclusion_set,
    induction_step_check,
    reform_partial,
    zeta_eval,
)
from zetasum.oracle import coefficient_crosscheck, spf_partition_sum
from zetasum.primes import first_primes


def draw_points(count, seed, exclusion_index):
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        s = complex(rng.uniform(-3.0, 5.0), rng.uniform(-20.0, 20.0))
        if in_exclusion_set(s, exclusion_index) is None:
            points.append(s)
    return points


def dirichlet_tail_oracle(sigma, N):
    n = np.arange(1, N + 1, dtype=np.float64)
    return float(np.power(n, -sigma).sum()) + N ** (1.0 - sigma) / (sigma - 1.0)


def test_acceptance_1_finite_identity_random_box():
    start = time.perf_counter()
    worst = 0.0
    for s in draw_points(1000, seed=20260809, exclusion_index=100):
        for i in (1, 5, 20, 100):
            scale = max(1.0, abs(euler_partial(i, s)))
            relative = identity_residual(i, s) / scale
            worst = max(worst, relative)
            assert relative <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 finite identity, 1000 random s, i in {{1,5,20,100}}: "
          f"PASS (max relative residual {worst:.2e}, {elapsed:.2f} s)")


def test_acceptance_2_exact_rational_spot_checks():
    checks = [
        ("product of 1 prime at s=3", euler_partial(1, 3), Fraction(8, 7)),
        ("sum of 1 prime at s=3", reform_partial(1, 3), Fraction(1, 7)),
        ("product of 2 primes at s=3", euler_partial(2, 3), Fraction(108, 91)),
        ("sum of 2 primes at s=3", reform_partial(2, 3), Fraction(17, 91)),
    ]
    worst = 0.0
    for label, got, frac in checks:
        expected = float(frac)
        rel = abs(got - expected) / abs(expected)
        worst = max(worst, rel)
        assert rel <= 1e-15, label
    print(f"\nACCEPTANCE 2 exact rational spot checks (8/7, 1/7, 108/91, 17/91): "
          f"PASS (max relative error {worst:.2e})")


def test_acceptance_3_induction_step_identity():
    start = time.perf_counter()
    worst = 0.0
    for s in draw_points(20, seed=427, exclusion_index=51):
        for i in range(0, 51):
            residual = induction_step_check(i, s)
            worst = max(worst, residual)
            assert residual <= 1e-11
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 induction-step identity, i in 0..50 at 20 random s: "
          f"PASS (max residual {worst:.2e}, {elapsed:.2f} s)")


def test_acceptance_4_adaptive_evaluation_vs_oracle():
    start = time.perf_counter()
    got2 = zeta_eval(2, METHOD_REFORMULATED, 1e-6)
    err2 = abs(got2.value - dirichlet_tail_oracle(2.0, 10**6))
    assert err2 <= 2e-6
    got3 = zeta_eval(3, METHOD_REFORMULATED, 1e-8)
    err3 = abs(got3.value - dirichlet_tail_oracle(3.0, 10**6))
    assert err3 <= 2e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 certified evaluation vs Dirichlet-plus-tail oracle: "
          f"PASS (|err| {err2:.2e} at s=2 with {got2.terms_used} primes, "
          f"{err3:.2e} at s=3, {elapsed:.2f} s)")


def test_acceptance_5_certified_bounds_never_lie():
    # reference: the independent Dirichlet-plus-tail oracle, whose own error
    # (about sigma/(2 N^2)) sits orders of magnitude below every claim
    worst_margin = math.inf
    for s, tol in ((2.0, 1e-6), (2.5, 1e-8), (3.0, 1e-8), (4.0, 1e-8)):
        reference = dirichlet_tail_oracle(s, 10**6)
        trace = convergence_trace(s, METHOD_EULER_PRODUCT, tol)
        for step in trace:
            gap = abs(step.value - reference)
            assert gap <= step.tail_error_bound
            if gap > 0:
                worst_margin = min(worst_margin, step.tail_error_bound / gap)
    print(f"\nACCEPTANCE 5 certified bounds honest at every recorded step for "
          f"s in {{2, 2.5, 3, 4}}: PASS (bound/error always >= {worst_margin:.2f})")


def test_acceptance_6_partition_oracle():
    s, N = 3, 10**4
    table = spf_partition_sum(s, N)
    reference = dirichlet_partial(N, s)
    gap = abs(1.0 + table.total() - reference)
    assert gap <= 1e-12 * abs(reference)
    spec = TruncationSpec(tolerance=1e-10)
    allowed = spec.tolerance + N ** (1.0 - 3.0) / (3.0 - 1.0)
    worst = 0.0
    for k in range(1, 6):
        residual = coefficient_crosscheck(k, s, N, spec)
        worst = max(worst, residual)
        assert residual <= allowed
    print(f"\nACCEPTANCE 6 smallest-prime-factor partition at s=3, N=1e4: "
          f"PASS (partition gap {gap:.2e}, worst row residual {worst:.2e} <= {allowed:.2e})")


def test_acceptance_7_exclusion_set_erratum_fixture():
    plist = first_primes(3).tolist()
    ks = range(-3, 4)
    points = explicit_exclusion_points(3, ks)
    regenerated = [(p, k) for p in plist for k in ks]
    worst_fixture = 0.0
    for (p, k), s in zip(regenerated, points):
        assert s == explicit_exclusion_point(p, k)
        gap = abs(prime_power_term(p, s) + 1.0)
        worst_fixture = max(worst_fixture, gap)
        assert gap <= 1e-12
    worst_lattice = 0.0
    for p in plist:
        for k in ks:
            s = singular_point(p, k)
            gap = abs(prime_power_term(p, s) - 1.0)
            worst_lattice = max(worst_lattice, gap)
            assert gap <= 1e-12
            try:
                euler_factor(p, s)
            except SingularPointError as exc:
                assert exc.prime == p
            else:
                raise AssertionError(f"factor for p={p} at k={k} should be singular")
    print(f"\nACCEPTANCE 7 odd-multiple fixture vs singular lattice (i<=3, |k|<=3): "
          f"PASS (fixture points hit -1 within {worst_fixture:.2e}, lattice hits +1 "
          f"within {worst_lattice:.2e} and always raises)")


def test_acceptance_8_cli_determinism():
    commands = [
        ("eval", "--s", "3+0i", "--method", "reformulated", "--tol", "1e-8"),
        ("eval", "--s", "2.5+1i", "--method", "euler_product", "--tol", "1e-6",
         "--format", "json"),
        ("identity-check", "--i", "20", "--s", "0.5+14.1i"),
        ("converge", "--s", "4+0i", "--tol", "1e-10",
         "--methods", "dirichlet,euler_product,reformulated"),
        ("exclusion", "--i", "3", "--k-range", "-2..2", "--compare"),
        ("oracle-compare", "--s", "3+0i", "--i", "3", "--N", "2000", "--tol", "1e-8"),
    ]
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "zetasum", *argv],
                           capture_output=True, check=False)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr.decode()
        assert runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout, f"report differs for {argv}"
        assert runs[0].stdout
    print(f"\nACCEPTANCE 8 CLI determinism across {len(commands)} commands, "
          f"two runs each: PASS (byte-identical reports)")


# The six benchmark anchors; the last three sit where the phase error of
# n^{-s}, about u*|t|*(-zeta'(sigma)), exceeds the tolerance.
CERTIFICATE_ANCHORS = [(2, 1e-6), (2 + 10j, 1e-6), (3, 1e-10), (3 + 1e8j, 1e-10),
                       (2 + 1e12j, 1e-6), (4 + 1e14j, 1e-10)]


def certificate_grid(count, seed):
    rng = random.Random(seed)
    grid = []
    for _ in range(count):
        s = complex(round(rng.uniform(1.5, 3.5), 4), round(rng.uniform(-1e3, 1e3), 3))
        grid.append((s, float(f"{10 ** rng.uniform(-10, -5):.3g}")))
    return grid


def test_acceptance_9_certificates_hold_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    answered, refused, worst = 0, 0, 0.0
    for s, tol in CERTIFICATE_ANCHORS + certificate_grid(24, seed=20261018):
        reference = None
        for method in METHODS:
            try:
                result = zeta_eval(s, method, tol)
            except RuntimeError:
                refused += 1
                continue
            if reference is None:
                with mpmath.workdps(40):
                    reference = mpmath.zeta(s)
            error = float(abs(mpmath.mpc(result.value) - reference))
            assert error <= result.tail_error_bound <= tol, (s, tol, method)
            answered += 1
            worst = max(worst, error / result.tail_error_bound)
    assert answered >= 60
    print(f"\nACCEPTANCE 9 certified bounds vs mpmath (40 digits), 30 (s, tol) x 3 methods: "
          f"PASS ({answered} answered, true error <= {worst:.7f} x bound; {refused} refused)")
