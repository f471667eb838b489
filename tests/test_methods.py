"""Finite products and sums, their identity, tails, and adaptive evaluation."""

import importlib.util
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasum import kernel, methods, primes
from zetasum.kernel import (
    PowerOverflowError,
    SingularPointError,
    euler_factor,
    power_term,
    prime_power_term,
)
from zetasum.methods import (
    METHOD_DIRICHLET,
    METHOD_EULER_PRODUCT,
    METHOD_REFORMULATED,
    METHODS,
    NonConvergentError,
    TruncationSpec,
    convergence_trace,
    correction_coefficient,
    dirichlet_partial,
    euler_partial,
    identity_residual,
    induction_step_check,
    reform_partial,
    tail_bound,
    zeta_eval,
)
from zetasum.primes import first_primes, nth_prime, primes_up_to


# A block larger than any input the chunk-parametrised tests use, so that
# every fold there runs as one block, as it does at `methods._CHUNK`.
ONE_BLOCK = 1 << 20


# ----------------------------------------------------------------------
# exact-rational oracles (integer s only)

def product_fraction(i: int, s: int) -> Fraction:
    out = Fraction(1)
    for p in first_primes(i).tolist():
        out *= 1 / (1 - Fraction(1, p**s))
    return out


def sum_fraction(i: int, s: int) -> Fraction:
    plist = first_primes(i).tolist()
    total = Fraction(0)
    for k in range(i):
        term = Fraction(1, plist[k] ** s)
        for j in range(k, i):
            term *= 1 / (1 - Fraction(1, plist[j] ** s))
        total += term
    return total


def reform_naive(i: int, s: complex) -> complex:
    # O(i^2) double loop straight from the definition, scalar arithmetic only
    plist = first_primes(i).tolist()
    total = complex(0.0)
    for k in range(i):
        term = prime_power_term(plist[k], s)
        for j in range(k, i):
            term *= euler_factor(plist[j], s)
        total += term
    return total


def dirichlet_with_tail_oracle(sigma: float, N: int = 1_000_000) -> float:
    # independent reference for real sigma > 1: partial sum plus the
    # integral tail correction N^(1-sigma)/(sigma-1)
    n = np.arange(1, N + 1, dtype=np.float64)
    return float(np.power(n, -sigma).sum()) + N ** (1.0 - sigma) / (sigma - 1.0)


# ----------------------------------------------------------------------
# exact finite values

def test_product_fraction_oracle_spot_values():
    assert product_fraction(1, 3) == Fraction(8, 7)
    assert product_fraction(2, 3) == Fraction(108, 91)
    assert sum_fraction(1, 3) == Fraction(1, 7)
    assert sum_fraction(2, 3) == Fraction(17, 91)


@pytest.mark.parametrize(
    "i,s,frac",
    [
        (1, 3, Fraction(8, 7)),
        (2, 3, Fraction(108, 91)),
        (1, 1, Fraction(2)),
        (3, 2, Fraction(1, (1 - Fraction(1, 4))) * 1 / (1 - Fraction(1, 9)) * 1 / (1 - Fraction(1, 25))),
    ],
)
def test_euler_partial_exact_rationals(i, s, frac):
    expected = float(frac)
    got = euler_partial(i, s)
    assert got.imag == 0.0
    assert abs(got.real - expected) <= 1e-15 * abs(expected)


@pytest.mark.parametrize(
    "i,s,frac",
    [(1, 3, Fraction(1, 7)), (2, 3, Fraction(17, 91))],
)
def test_reform_partial_exact_rationals(i, s, frac):
    expected = float(frac)
    got = reform_partial(i, s)
    assert got.imag == 0.0
    assert abs(got.real - expected) <= 1e-15 * abs(expected)


def test_empty_conventions():
    assert euler_partial(0, 123.4 + 5j) == 1.0
    assert reform_partial(0, 2) == 0.0
    assert euler_partial(0, 0) == 1.0  # no factors, no singularity


def test_dirichlet_partial_values():
    assert dirichlet_partial(1, 2) == 1.0
    assert dirichlet_partial(2, 1) == 1.5
    expected = float(Fraction(49, 36))
    assert abs(dirichlet_partial(3, 2).real - expected) <= 1e-15 * expected
    with pytest.raises(ValueError):
        dirichlet_partial(0, 2)


def test_dirichlet_partial_any_s_allowed():
    # finite sum: no convergence requirement
    assert dirichlet_partial(4, 0) == 4.0
    got = dirichlet_partial(3, -1)
    assert abs(got - 6.0) <= 1e-14 * 6.0


def scalar_dirichlet(N: int, s) -> tuple[complex, float]:
    # The finite sum one power_term at a time, and the sum of the moduli.
    total, scale = complex(0.0), 0.0
    for n in range(1, N + 1):
        term = power_term(n, s)
        total += term
        scale += math.hypot(term.real, term.imag)  # abs() raises past max_double
    return total, scale


@pytest.mark.parametrize("chunk", [7, ONE_BLOCK])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 15, 16, 17, 31, 1000, 4097])
@pytest.mark.parametrize("s", [3, 1.5, 2.5 + 300j, 0.5 - 14.1j, -1.5 + 2j])
def test_dirichlet_partial_matches_scalar_reference(s, N, chunk, monkeypatch):
    # Odd cuts (3, 5, 17, 31, 4097) and chunks of 7 odd powers exercise the
    # window ends of the even/odd split.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    expected, scale = scalar_dirichlet(N, s)
    got = dirichlet_partial(N, s)
    assert abs(got - expected) <= 1e-13 * scale
    if complex(s).imag == 0.0:
        assert got.imag == 0.0


@pytest.mark.parametrize("chunk", [7, 64, ONE_BLOCK])
@pytest.mark.parametrize("s", [2, 3 + 10j, 1.7 - 900j])
def test_dirichlet_trace_steps_are_the_partial_sums(s, chunk, monkeypatch):
    # The trace and the public finite sum are one fold over the same cuts;
    # at a chunk of 7 most cuts lie past the head, in windows.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    for step in convergence_trace(s, METHOD_DIRICHLET, 1e-4):
        assert step.value == dirichlet_partial(step.terms_used, s)


@pytest.mark.parametrize("s", [2, 2.5 + 300j, 1.7 - 900j, 3 + 10j])
def test_dirichlet_partial_is_exact_to_rounding(s):
    mpmath = pytest.importorskip("mpmath")
    N = 8192
    with mpmath.workdps(40):
        z = mpmath.mpc(s)
        exact = mpmath.fsum(mpmath.power(n, -z) for n in range(1, N + 1))
        error = float(abs(mpmath.mpc(dirichlet_partial(N, s)) - exact))
    # Rounding level: the observed errors are at most 6.1e-15, while losing
    # even the smallest term, 8192^(-3) = 1.8e-12, would fail.
    assert error <= 2e-14


OVERFLOW_POINTS = [
    (-400, 6),  # even: 6^-s enters the fold only inside 2^-s * D(3)
    (-400 + 3j, 6),
    (-130.5 - 7j, 231),  # odd
    (-250.25 + 40j, 18),
    # |1210^-s| is past the double range but both parts of 1210^-s are
    # finite; 1211^-s is the first power with a part that is not.
    (-100 + 0.5j, 1211),
    # The phase -Im(s)*ln n overflows from n = 4 on.
    (2 + 1.5e308j, 4),
]


# float.hex of the real and imaginary parts, from the fold that summed each
# cut's odd powers from a call of its own, before the lowest cuts shared one:
# dirichlet_partial(N, s) for N = 2*chunk - 1, 2*chunk, 2*chunk + 1 and 2^20
# (s = 3, 1.7-900i at each N), then zeta_eval(s, "dirichlet", tol) for
# PINNED_EVALS, whose term counts are 2^20, 2^17, 2^15 and 2^11.
PINNED_EVALS = ((2, 1e-6), (2 + 10j, 1e-6), (2.5 + 300j, 1e-9), (1.7 - 900j, 1e-4))
PINNED_DIRICHLET = {
    7: (
        "0x1.3306733808225p+0 0x0.0p+0",
        "0x1.513641d49456dp-1 0x1.ce67a6e12c616p-3",
        "0x1.331e555d597cap+0 0x0.0p+0",
        "0x1.56f1bfb1b71fep-1 0x1.d0e16a5a9b5dap-3",
        "0x1.3331c06440881p+0 0x0.0p+0",
        "0x1.5b15dd5ca590ep-1 0x1.c4c8f6ce7adb4p-3",
        "0x1.33ba004efeb23p+0 0x0.0p+0",
        "0x1.6aa8e3cbc4f44p-1 0x1.ecc071ce48b3fp-3",
        "0x1.a51a562530fa6p+0 0x0.0p+0",
        "0x1.32aeee7a0df48p+0 -0x1.4448562e4c8d5p-4",
        "0x1.19dab5beb18e4p+0 -0x1.02eea25e781a7p-3",
        "0x1.6aa98a0ffadfap-1 0x1.ecbf40ba2027ap-3",
    ),
    64: (
        "0x1.33b7fc4b00676p+0 0x0.0p+0",
        "0x1.6a9b3082eac97p-1 0x1.f1606197ff016p-3",
        "0x1.33b8044b00676p+0 0x0.0p+0",
        "0x1.6abd7baf814bcp-1 0x1.f16239e87256ep-3",
        "0x1.33b80c1bbdeecp+0 0x0.0p+0",
        "0x1.6ad69c09ffa08p-1 0x1.f1bcee7ec9cdap-3",
        "0x1.33ba004effcfep+0 0x0.0p+0",
        "0x1.6aa8e3cbc4f44p-1 0x1.ecc071ce48b5cp-3",
        "0x1.a51a562530fd6p+0 0x0.0p+0",
        "0x1.32aeee7a0df4bp+0 -0x1.4448562e4c90ep-4",
        "0x1.19dab5beb18e3p+0 -0x1.02eea25e781a5p-3",
        "0x1.6aa98a0ffadf9p-1 0x1.ecbf40ba20278p-3",
    ),
    65536: (
        "0x1.33ba004ee061fp+0 0x0.0p+0",
        "0x1.6aa8de94bfe9ap-1 0x1.ecc056ee7f59cp-3",
        "0x1.33ba004ee0621p+0 0x0.0p+0",
        "0x1.6aa8de9fdfa57p-1 0x1.ecc056ba4b4bap-3",
        "0x1.33ba004ee0623p+0 0x0.0p+0",
        "0x1.6aa8deab16376p-1 0x1.ecc0568665f14p-3",
        "0x1.33ba004effe20p+0 0x0.0p+0",
        "0x1.6aa8e3cbc4f25p-1 0x1.ecc071ce48b5dp-3",
        "0x1.a51a562530fd2p+0 0x0.0p+0",
        "0x1.32aeee7a0df48p+0 -0x1.4448562e4c91bp-4",
        "0x1.19dab5beb18e0p+0 -0x1.02eea25e781a1p-3",
        "0x1.6aa98a0ffadf8p-1 0x1.ecbf40ba20278p-3",
    ),
}


@pytest.mark.parametrize("chunk", sorted(PINNED_DIRICHLET))
def test_dirichlet_values_keep_their_bits(chunk, monkeypatch):
    # Batching the lowest cuts' powers changes no bit: each cut sums the same
    # slice in the same pairwise order, on either side of the head's end.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    got = [dirichlet_partial(N, s) for N in (2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 1 << 20)
           for s in (3, 1.7 - 900j)]
    got += [zeta_eval(s, METHOD_DIRICHLET, tol).value for s, tol in PINNED_EVALS]
    assert [f"{v.real.hex()} {v.imag.hex()}" for v in got] == list(PINNED_DIRICHLET[chunk])


@pytest.mark.parametrize("chunk", [7, ONE_BLOCK])
@pytest.mark.parametrize("s, first_bad", OVERFLOW_POINTS)
def test_dirichlet_overflow_names_the_lowest_overflowing_n(s, first_bad, chunk, monkeypatch):
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    with pytest.raises(PowerOverflowError) as expected:
        scalar_dirichlet(first_bad, s)
    assert expected.value.prime == first_bad
    for N in (first_bad, first_bad + 1, 2 * first_bad - 1, 10_000):
        with pytest.raises(PowerOverflowError) as got:
            dirichlet_partial(N, s)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("chunk", [7, ONE_BLOCK])
@pytest.mark.parametrize("s, first_bad", OVERFLOW_POINTS)
def test_dirichlet_overflow_is_the_one_summing_every_power_raises(s, first_bad, chunk, monkeypatch):
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    with pytest.raises(PowerOverflowError) as expected:
        methods._power_terms(np.arange(1, 10_001), complex(s))
    assert expected.value.prime == first_bad
    for N in (first_bad, first_bad + 1, 2 * first_bad - 1, 10_000):
        with pytest.raises(PowerOverflowError) as got:
            dirichlet_partial(N, s)
        assert str(got.value) == str(expected.value)


def test_scalar_and_vectorised_powers_share_one_overflow_rule():
    # Finite exactly when both parts are: |1210^-s| > max_double here.
    z = -100 + 0.5j
    got = power_term(1210, z)
    expected = complex(methods._power_terms(np.array([1210.0]), z)[0])
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    assert math.isclose(got.real, expected.real, rel_tol=1e-13)
    assert math.isclose(got.imag, expected.imag, rel_tol=1e-13)
    with pytest.raises(PowerOverflowError):
        power_term(1211, z)
    with pytest.raises(PowerOverflowError):
        methods._power_terms(np.array([1211.0]), z)


@pytest.mark.parametrize("N, s", [
    (14322, -73.66478372246908),  # the sum overflows to inf
    (12489, -75.16881755167881 - 939.557245363289j),  # ... and to NaN
])
def test_dirichlet_sum_past_the_double_range_raises(N, s):
    # Every power is finite (_power_terms would raise otherwise); the sum is not.
    methods._power_terms(np.arange(1, N + 1), complex(s))
    with pytest.raises(PowerOverflowError) as got:
        dirichlet_partial(N, s)
    assert got.value.prime == N


@pytest.mark.parametrize("request_, message", [
    (lambda: dirichlet_partial(10, -400), "6^(-s)"),
    (lambda: dirichlet_partial(14322, -73.66478372246908), "the partial sum at cutoff 14322"),
    (lambda: euler_partial(3000, 2j), "the running Euler product at prime 14009"),
    (lambda: reform_partial(50, 1e-7), "the running Euler product at prime 227"),
])
def test_overflow_names_what_left_the_range(request_, message):
    with pytest.raises(PowerOverflowError) as got:
        request_()
    assert str(got.value).startswith(f"{message} exceeds the double-precision range at s = ")


@pytest.mark.parametrize("s, N", [(-295.8, 11), (-250.25 + 40j, 17)])
def test_dirichlet_window_flagged_near_overflow_still_sums(s, N, monkeypatch):
    # N^-s is finite but within a factor e of the double range, so the last
    # window is checked term by term and then folded as usual.
    monkeypatch.setattr(methods, "_CHUNK", 7)
    expected, scale = scalar_dirichlet(N, s)
    assert abs(dirichlet_partial(N, s) - expected) <= 1e-13 * scale


# ----------------------------------------------------------------------
# the identity and its induction step

def test_identity_residual_examples():
    z1 = abs(euler_partial(1, 3))
    assert identity_residual(1, 3) <= 1e-15 * max(1.0, z1)
    z2 = abs(euler_partial(2, 3))
    assert identity_residual(2, 3) <= 1e-14 * max(1.0, z2)
    assert identity_residual(100, 2 + 5j) <= 1e-11


def test_identity_residual_random_box():
    rng = random.Random(20260809)
    count = 0
    while count < 100:
        s = complex(rng.uniform(-3, 5), rng.uniform(-20, 20))
        from zetasum.kernel import in_exclusion_set

        if in_exclusion_set(s, 20) is not None:
            continue
        count += 1
        for i in (1, 5, 20):
            scale = max(1.0, abs(euler_partial(i, s)))
            assert identity_residual(i, s) <= 1e-10 * scale


@pytest.mark.parametrize("i", [1, 5, 17, 50])
@pytest.mark.parametrize("s", [3, 2.5, 2 + 1j, 4 - 3j, -1.5 + 7j])
def test_reform_partial_matches_naive_double_loop(i, s, monkeypatch):
    whole = euler_partial(i, s), reform_partial(i, s), identity_residual(i, s)
    # Blocks of 7 primes: up to 8 blocks, so the carry between them is used.
    monkeypatch.setattr(methods, "_CHUNK", 7)
    product, fast, residual = euler_partial(i, s), reform_partial(i, s), identity_residual(i, s)
    slow = reform_naive(i, s)
    scale = max(1.0, abs(slow))
    assert abs(whole[1] - slow) <= 1e-12 * scale
    assert abs(whole[0] - 1.0 - slow) <= 1e-12 * scale
    assert abs(fast - slow) <= 1e-12 * scale
    assert abs(fast - whole[1]) <= 1e-12 * scale
    assert abs(product - 1.0 - slow) <= 1e-12 * scale
    assert abs(product - whole[0]) <= 1e-12 * max(1.0, abs(whole[0]))
    assert abs(residual - whole[2]) <= 1e-12 * scale


def test_induction_step_examples():
    assert induction_step_check(1, 3) <= 1e-14
    assert induction_step_check(0, 2) <= 1e-15
    assert induction_step_check(50, 4 + 1j) <= 1e-12


def test_induction_step_propagates_singular():
    with pytest.raises(SingularPointError):
        induction_step_check(0, 0)  # p_1 factor undefined at s = 0


def test_partials_propagate_singular():
    with pytest.raises(SingularPointError):
        euler_partial(3, 1e-10)
    with pytest.raises(SingularPointError):
        reform_partial(3, 1e-10)


def test_partials_signal_overflowing_product():
    # every factor is ~1e7, so the 50-prime product leaves double range
    with pytest.raises(PowerOverflowError):
        euler_partial(50, 1e-7)


@pytest.mark.parametrize("chunk", [7, ONE_BLOCK])
@pytest.mark.parametrize("s", [2, 0.5 + 14.1j, 3 - 4j, -1.5 + 2j])
def test_identity_pass_is_the_two_partials_bit_for_bit(s, chunk, monkeypatch):
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    assert methods._identity(1000, s) == (euler_partial(1000, s), reform_partial(1000, s))


def test_identity_residual_reports_the_product_failure_first(monkeypatch):
    # With 7-prime blocks at s = 2i the sum first overflows in a lower block
    # than the product does; the residual reports the product's failure, as
    # computing the product before the sum would.
    monkeypatch.setattr(methods, "_CHUNK", 7)
    failures = []
    for partial in (euler_partial, reform_partial, identity_residual):
        with pytest.raises(PowerOverflowError) as excinfo:
            partial(3000, 2j)
        failures.append(excinfo.value.prime)
    assert failures == [14009, 12721, 14009]


@pytest.mark.parametrize("chunk", [7, 64, 1000, ONE_BLOCK])
def test_product_overflow_does_not_depend_on_the_chunk_size(chunk, monkeypatch):
    # The located prime is the first at which the running product, carried
    # across blocks, is not finite, wherever the block boundaries fall.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    with pytest.raises(PowerOverflowError) as excinfo:
        euler_partial(3000, 2j)
    assert excinfo.value.prime == 14009


@pytest.mark.parametrize("i, s", [(100_000, 0.05), (50, 1e-7)])
def test_sum_and_product_name_the_same_overflowing_prime(i, s):
    # 1 + S is the running product, so both folds locate its overflow alike.
    names = []
    for partial in (euler_partial, reform_partial):
        with pytest.raises(PowerOverflowError) as excinfo:
            partial(i, s)
        names.append(excinfo.value.prime)
    assert names[0] == names[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check, i, s", [(identity_residual, 100_000, 0.2 + 3j),
                                         (induction_step_check, 3000, 2j)])
def test_fold_overflow_raises_no_numpy_warning(check, i, s):
    with pytest.raises(PowerOverflowError):
        check(i, s)


@pytest.mark.parametrize("i", [0, 1, 20, 1000])
def test_induction_step_evaluates_each_of_its_primes_once(i, monkeypatch):
    # One pass: the first i primes through _identity, then p_{i+1} alone,
    # and no scalar power from the kernel.
    def refuse(*args):
        raise AssertionError("scalar kernel power called")

    monkeypatch.setattr(kernel, "power_term", refuse)
    seen = []
    power_terms = methods._power_terms

    def counted(n, z):
        seen.append(np.array(n))
        return power_terms(n, z)

    monkeypatch.setattr(methods, "_power_terms", counted)
    induction_step_check(i, 3 - 4j)
    assert np.array_equal(np.sort(np.concatenate(seen)), first_primes(i + 1))


@pytest.mark.parametrize("i", [0, 6, 7, 8, 1000])
@pytest.mark.parametrize("s", [3, 2 + 1j, 0.5 + 14.1j, -1.5 + 2j])
def test_induction_step_matches_the_scalar_reference(i, s, monkeypatch):
    # Blocks of 7 primes: p_{i+1} ends a block (i = 6), opens one (i = 7) or
    # follows an opened one (i = 8).
    monkeypatch.setattr(methods, "_CHUNK", 7)
    p = nth_prime(i + 1)
    after = euler_partial(i + 1, s)
    reference = abs(euler_factor(p, s) * (prime_power_term(p, s) + reform_partial(i, s))
                    + 1.0 - after)
    assert abs(induction_step_check(i, s) - reference) <= 1e-12 * max(1.0, abs(after))


def test_power_terms_meet_the_stated_rounding_premises():
    # The one premise of methods._rounding, which every certified bound and
    # oracle-compare allowance uses: log is within one ulp, and n^{-z} within
    # u*(3|z|*ln n + 6) relative.  The check below asserts the stronger
    # u*(3|z|*ln n + 4).  Should this fail, the premise stated there is wrong
    # for this platform.
    mpmath = pytest.importorskip("mpmath")
    u = 2.0 ** -53
    rng = np.random.default_rng(20261018)
    sample = np.exp(rng.uniform(math.log(2.0), 30 * math.log(2.0), 400)).astype(np.int64)
    n = np.unique(np.concatenate([[2, 1 << 30], sample]))
    logs = np.log(n.astype(np.float64))
    with mpmath.workdps(40):
        for k, ln in zip(n.tolist(), logs.tolist()):
            assert abs(mpmath.mpf(ln) - mpmath.log(k)) <= np.spacing(ln)
        sigmas = rng.uniform(0.5, 6.0, 40)
        heights = np.concatenate([np.zeros(10), 10.0 ** rng.uniform(-2.0, 7.0, 30)])
        for sigma, height in zip(sigmas, heights * rng.choice([-1.0, 1.0], 40)):
            z = complex(sigma, height)
            got = methods._power_terms(n, z)
            for k, value in zip(n.tolist(), got.tolist()):
                exact = mpmath.power(k, -mpmath.mpc(z))
                error = abs(mpmath.mpc(value) - exact) / abs(exact)
                assert error <= u * (3.0 * abs(z) * math.log(k) + 4.0), (k, z)


@pytest.mark.parametrize("i, s, error, prime", [
    (50, 1e-11, SingularPointError, 2),  # every block holds a singular prime
    (200, 1.5e-10, SingularPointError, 2),  # singular low blocks, overflowing high ones
    (50, 1e-7, PowerOverflowError, 227),  # the running product first overflows at 227
])
def test_reform_partial_reports_the_lowest_failing_block(i, s, error, prime, monkeypatch):
    # The forward fold checks blocks in ascending order, as the product does,
    # so with several failing blocks the lowest one is reported.
    monkeypatch.setattr(methods, "_CHUNK", 7)
    with pytest.raises(error) as excinfo:
        reform_partial(i, s)
    assert excinfo.value.prime == prime


# ----------------------------------------------------------------------
# tails

def test_tail_bound_formula_value():
    assert tail_bound(1, 3) == 0.25
    p5 = nth_prime(5)
    assert tail_bound(5, 2) == pytest.approx(2.0 / p5, rel=1e-15)


def test_tail_bound_monotone_in_index():
    values = [tail_bound(i, 2.5) for i in range(1, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_tail_bound_rejects_bad_sigma():
    for sigma in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            tail_bound(3, sigma)
    with pytest.raises(ValueError):
        tail_bound(0, 2.0)


def test_tail_bound_sums_over_primes_from_17_on():
    # p_7 = 17: from here on partial summation against pi(x) wins.
    for i, sigma in ((7, 2.0), (100, 1.5), (10_000, 3.0)):
        p = nth_prime(i)
        over_primes = p ** (1 - sigma) / math.log(p) * (1.25506 * sigma / (sigma - 1) - 1)
        assert tail_bound(i, sigma) == pytest.approx(over_primes / (1 - p ** -sigma), rel=1e-15)
        assert tail_bound(i, sigma) < 2 * p ** (1 - sigma) / (sigma - 1)


@pytest.mark.parametrize("sigma, x_max", [(2.0, 10**6), (3.0, 10**7), (4.0, 10**7)])
def test_tail_bound_covers_exact_prime_sums(sigma, x_max):
    # Exact sum of -log(1 - p^-sigma) over the primes in (x, Y], plus a bound
    # for p > Y that does not use pi(x): every prime past 5 lies in one of
    # the 8 classes prime to 30, and a class sums to at most
    # Y^-sigma + Y^(1-sigma)/(30*(sigma-1)) past Y.  At sigma = 2 that rest
    # exceeds the bound at x = 1e7, so that row stops at 1e6.
    p = first_primes(2_000_000).astype(np.float64)
    Y = p[-1]
    rest = 8 * (Y ** -sigma + Y ** (1 - sigma) / (30 * (sigma - 1))) / (1 - Y ** -sigma)
    logs = -np.log1p(-(p ** -sigma))
    after = np.cumsum(logs[::-1])[::-1]  # after[j]: the primes from p[j] on
    x = 17
    while x <= x_max:
        i = int(np.searchsorted(p, x, side="right"))  # p_i = p[i - 1] <= x
        exact = float(after[i]) + rest
        assert exact <= tail_bound(i, sigma)
        if x >= 1000:
            assert tail_bound(i, sigma) <= 3 * exact
        x *= 10 if x > 17 else 100 / 17


def test_dirichlet_tail_bound_holds_and_is_tight():
    mpmath = pytest.importorskip("mpmath")
    # The Euler-Maclaurin bound is the smaller one at every point here; at
    # s = 2 + 0.1i, N = 1000 the true tail reaches 99.8% of it.
    cases = [(2 + 0.1j, 1000), (1.5 + 3j, 10**4), (3 - 40j, 64), (2.2 + 900j, 4096),
             (1.1 + 0.01j, 10**5), (4 + 1e3j, 4096)]
    ratios = []
    with mpmath.workdps(40):
        for s, N in cases:
            bound = methods._dirichlet_tail(N, s)
            assert bound < N ** (1 - s.real) / (s.real - 1)
            tail = float(abs(mpmath.zeta(s, N + 1)))
            assert tail <= bound
            ratios.append(tail / bound)
    assert ratios[0] >= 0.99


def test_tail_bound_actually_bounds_the_tail():
    # big products as ground truth: |log(Z_big / Z_i)| <= tail_bound(i, sigma)
    sigma = 2.0
    big = euler_partial(20000, sigma).real
    for i in (1, 4, 16, 64, 256):
        small = euler_partial(i, sigma).real
        assert abs(math.log(big / small)) <= tail_bound(i, sigma)


# ----------------------------------------------------------------------
# adaptive evaluation

def test_zeta_eval_at_2_matches_oracles():
    result = zeta_eval(2, METHOD_REFORMULATED, 1e-6)
    assert abs(result.value - math.pi**2 / 6) <= 2e-6
    assert abs(result.value - dirichlet_with_tail_oracle(2.0)) <= 2e-6
    assert result.tail_error_bound <= 1e-6
    assert result.method == METHOD_REFORMULATED


def test_zeta_eval_at_3_matches_oracle():
    result = zeta_eval(3, METHOD_REFORMULATED, 1e-8)
    assert abs(result.value - dirichlet_with_tail_oracle(3.0)) <= 2e-8


def test_zeta_eval_dirichlet_method():
    result = zeta_eval(2.5, METHOD_DIRICHLET, 1e-6)
    assert result.method == METHOD_DIRICHLET
    assert abs(result.value - dirichlet_with_tail_oracle(2.5)) <= result.tail_error_bound + 1e-9


def test_zeta_eval_certified_against_oracle_at_each_sigma():
    for sigma, tol in ((2.0, 1e-6), (3.0, 1e-8), (4.0, 1e-8)):
        result = zeta_eval(sigma, METHOD_EULER_PRODUCT, tol)
        assert abs(result.value - dirichlet_with_tail_oracle(sigma)) <= tol + 1e-11


def test_dirichlet_trace_bounds_are_honest():
    for sigma in (2.0, 3.0):
        reference = dirichlet_with_tail_oracle(sigma)
        for step in convergence_trace(sigma, METHOD_DIRICHLET, 1e-5):
            assert abs(step.value - reference) <= step.tail_error_bound


def test_method_agreement_within_bounds():
    for s in (2, 3, 4, 2.5 + 10j):
        a = zeta_eval(s, METHOD_EULER_PRODUCT, 1e-7)
        b = zeta_eval(s, METHOD_REFORMULATED, 1e-7)
        assert abs(a.value - b.value) <= a.tail_error_bound + b.tail_error_bound


def test_zeta_eval_conjugate_symmetry():
    s = 2.5 + 3j
    for method in METHODS:
        plus = zeta_eval(s, method, 1e-8).value
        minus = zeta_eval(s.conjugate(), method, 1e-8).value
        assert abs(minus - plus.conjugate()) <= 1e-12 * abs(plus)


def test_zeta_eval_rejects_bad_requests():
    with pytest.raises(NonConvergentError):
        zeta_eval(1.0, METHOD_REFORMULATED, 1e-6)
    with pytest.raises(NonConvergentError):
        zeta_eval(0.5 + 14.1j, METHOD_DIRICHLET, 1e-6)
    with pytest.raises(ValueError):
        zeta_eval(2, METHOD_REFORMULATED, 0.0)
    with pytest.raises(RuntimeError):
        zeta_eval(2, METHOD_REFORMULATED, 1e-13)
    with pytest.raises(ValueError):
        zeta_eval(2, "secant", 1e-6)


def test_zeta_eval_infeasible_tolerance_is_a_clear_error():
    with pytest.raises(RuntimeError):
        zeta_eval(2, METHOD_EULER_PRODUCT, 1e-12)


PRODUCT_REFUSAL = (
    "certifying this tolerance needs more than the first 33554432 primes, and going "
    "further may need a sieve past the limit 1073741824; relax the tolerance or pick "
    "another method"
)


@pytest.mark.parametrize("request_, refusal", [
    # Rounding alone passes 1e-12 at 4096 primes, long before the sieve limit.
    (lambda: zeta_eval(2, METHOD_EULER_PRODUCT, 1e-12),
     "rounding alone may reach 1.141e-12 at s = (2+0j), above the tolerance 1.000e-12; "
     "relax the tolerance"),
    (lambda: zeta_eval(1.5, METHOD_REFORMULATED, 1e-6), PRODUCT_REFUSAL),
    (lambda: correction_coefficient(1, 1.5, TruncationSpec(tolerance=1e-6)), PRODUCT_REFUSAL),
    (lambda: zeta_eval(1.5, METHOD_EULER_PRODUCT, 1e-6), PRODUCT_REFUSAL),
], ids=["euler_product", "reformulated", "correction_coefficient", "euler_product_sigma_1.5"])
def test_unreachable_product_tolerance_is_refused_before_sieving(request_, refusal, monkeypatch):
    cache = primes.PrimeCache()
    monkeypatch.setattr(primes, "_default_cache", cache)
    with pytest.raises(RuntimeError) as excinfo:
        request_()
    assert str(excinfo.value) == refusal
    assert (len(cache), cache.source_limit) == (0, 1)


@pytest.mark.parametrize("sigma", [1.5, 2.0, 2.5, 3.0])
def test_real_product_rounding_bound_holds(sigma):
    mpmath = pytest.importorskip("mpmath")
    # For real s each prime is charged 2.5u in the product: 1/(1 - t) rounds
    # by at most 1.5u (an ulp argument) and each real product by u.
    n = 1 << 14
    zeta = methods._zeta_bounds(sigma)
    with mpmath.workdps(40):
        exact = mpmath.exp(mpmath.fsum(-mpmath.log1p(-mpmath.mpf(p) ** -sigma)
                                       for p in first_primes(n).tolist()))
        for method, got in ((METHOD_EULER_PRODUCT, euler_partial(n, sigma)),
                            (METHOD_REFORMULATED, 1.0 + reform_partial(n, sigma))):
            assert got.imag == 0.0
            error = float(abs(mpmath.mpf(got.real) - exact))
            assert error <= methods._rounding_of(complex(sigma), method, zeta)(n, abs(got))


@pytest.mark.parametrize("s, tol, method", [
    # The phase error alone, about u*|t|*(-zeta'(sigma)), exceeds tol.
    *[(s, tol, method) for s, tol in ((3 + 1e8j, 1e-10), (2 + 1e12j, 1e-6), (4 + 1e14j, 1e-10))
      for method in METHODS],
])
def test_rounding_above_the_tolerance_is_refused_before_any_work(s, tol, method, monkeypatch):
    cache = primes.PrimeCache()
    monkeypatch.setattr(primes, "_default_cache", cache)
    powers = []
    monkeypatch.setattr(methods, "_power_terms", lambda *args: powers.append(args))
    with pytest.raises(RuntimeError, match="^rounding alone may reach"):
        zeta_eval(s, method, tol)
    assert (len(cache), cache.source_limit, powers) == (0, 1, [])


def test_rounding_is_nondecreasing_in_count_and_magnitude():
    # The premise of the up-front refusal: once _rounding(count, floor)
    # exceeds the tolerance, so does every later step's bound.
    rng = random.Random(20261018)
    points = [complex(30.0, 0.0), complex(1.0 + 1e-9, 0.0)]
    for _ in range(150):
        sigma = 1.0 + 29.0 * rng.random() ** 3
        t = 0.0 if rng.random() < 0.2 else rng.choice((-1, 1)) * 10.0 ** rng.uniform(-2, 12)
        points.append(complex(sigma, t))
    counts = sorted({1 << k for k in range(32)} | {rng.randrange(1, 1 << 31) for _ in range(40)})
    magnitudes = [0.0, 0.5, 1.0, 3.0, 1e3]
    for z in points:
        zeta = methods._zeta_bounds(z.real)
        for method in METHODS:
            for magnitude in magnitudes:
                r = [methods._rounding_of(z, method, zeta)(c, magnitude) for c in counts]
                assert all(a <= b for a, b in zip(r, r[1:])), (z, method, magnitude)
            for count in counts:
                r = [methods._rounding_of(z, method, zeta)(count, m) for m in magnitudes]
                assert all(a <= b for a, b in zip(r, r[1:])), (z, method, count)


def test_tolerances_below_1e_12_are_certified_or_refused():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    answered = refused = 0
    with mpmath.workdps(40):
        for _ in range(150):
            sigma = rng.uniform(3.0, 25.0)
            s = complex(sigma, 0.0 if rng.random() < 0.25 else rng.uniform(-30.0, 30.0))
            tol = 10.0 ** rng.uniform(-16.0, -12.0)
            exact = mpmath.zeta(mpmath.mpc(s))
            for method in METHODS:
                try:
                    got = zeta_eval(s, method, tol)
                except RuntimeError as exc:
                    assert str(exc).startswith("rounding alone may reach")
                    refused += 1
                    continue
                error = float(abs(mpmath.mpc(got.value) - exact))
                assert error <= got.tail_error_bound <= tol, (s, tol, method)
                answered += 1
    assert answered > 0 and refused > 0


def test_rounding_is_the_reason_a_real_product_is_refused(monkeypatch):
    # The rounding bound passes the tolerance at 2^20 primes, long before the
    # sieve limit, so no later count could certify.
    cache = primes.PrimeCache()
    monkeypatch.setattr(primes, "_default_cache", cache)
    with pytest.raises(RuntimeError) as excinfo:
        zeta_eval(1.82129, METHOD_EULER_PRODUCT, 2.63215e-10)
    assert str(excinfo.value) == (
        "rounding alone may reach 2.910e-10 at s = (1.82129+0j), above the tolerance "
        "2.632e-10; relax the tolerance"
    )
    assert (len(cache), cache.source_limit) == (0, 1)


def test_sigma_1_5_at_1e_4_is_answered():
    # The integer-sum tail could not certify this below the sieve limit; the
    # prime-only tail needs 2^21 primes (a sieve to 3.5e7).
    got = zeta_eval(1.5, METHOD_EULER_PRODUCT, 1e-4)
    assert got.terms_used == 2**21
    assert abs(got.value - 2.612375348685488) <= got.tail_error_bound <= 1e-4


@pytest.mark.parametrize("s", [1.5 + 14.13j, 1.5, 2 + 10j, 3 - 4j])
def test_every_product_clears_the_refusal_floor(s):
    # The up-front walk rests on |truncated or tail product| >= _product_floor,
    # zeta(2 sigma)/zeta(sigma); the floor before it was (sigma-1)/sigma.
    sigma = complex(s).real
    spec = TruncationSpec(tolerance=1e-2)
    results = convergence_trace(s, METHOD_EULER_PRODUCT, 1e-2)
    results += [correction_coefficient(k, s, spec) for k in (2, 5, 50)]
    for result in results:
        assert abs(result.value) > (sigma - 1.0) / sigma
        assert abs(result.value) >= methods._product_floor(sigma, methods._zeta_bounds(sigma))


def test_feasible_tolerance_near_the_floor_is_still_answered():
    # sigma = 2.5, tol = 1e-10 is not ruled out by the floor or by rounding,
    # so it takes the doubling loop; the prime-only tail certifies it at
    # 2^17 primes, where the integer tail needed 2^19.
    for method in (METHOD_EULER_PRODUCT, METHOD_REFORMULATED):
        got = zeta_eval(2.5, method, 1e-10)
        assert got.terms_used == 131072
        assert got.tail_error_bound <= 1e-10
    got = correction_coefficient(1, 2.5, TruncationSpec(tolerance=1e-10))
    assert got.terms_used == 131072
    assert got.tail_error_bound <= 1e-10


def test_convergence_trace_steps_double_and_certify():
    trace = convergence_trace(3, METHOD_EULER_PRODUCT, 1e-8)
    counts = [step.terms_used for step in trace]
    assert counts == [2**j for j in range(len(counts))]
    assert trace[-1].tail_error_bound <= 1e-8
    reference = zeta_eval(3, METHOD_REFORMULATED, 1e-10).value
    for step in trace:
        assert abs(step.value - reference) <= step.tail_error_bound


@pytest.mark.parametrize("s", [3, 2.5 + 1j, 2 + 10j])
def test_reformulated_trace_is_the_folded_sum(s):
    trace = convergence_trace(s, METHOD_REFORMULATED, 1e-6)
    for step in trace:
        expected = 1.0 + reform_partial(step.terms_used, s)
        assert abs(step.value - expected) <= 1e-12 * abs(expected)
    product_counts = [step.terms_used for step in convergence_trace(s, METHOD_EULER_PRODUCT, 1e-6)]
    assert [step.terms_used for step in trace] == product_counts


def warm_eval_points(seed):
    """(s, tol) of the benchmark's warm_eval workload for `seed`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(s, tol) for s, tol, _ in inputs.warm_points(seed)]


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_eval_folds_only_the_counts_the_certificate_allows(seed, monkeypatch):
    # zeta_eval starts at the count the walk returns, so a product request
    # evaluates exactly terms_used powers, in one window (two when the first
    # certificate falls short), where convergence_trace folds every doubling;
    # a Dirichlet request, trace or not, is one fold, with one call for its
    # lowest cuts.
    power_terms = methods._power_terms
    sizes = []

    def counted(n, z):
        sizes.append(len(n))
        return power_terms(n, z)

    def one_fold(N, where):
        # The ceil(N/2) odd powers and 2^{-s}, the lowest cuts' in one call
        # (the only one up to N = 2*_CHUNK - 2), the rest in windows of _CHUNK.
        chunk = methods._CHUNK
        assert sum(sizes) == (N + 1) // 2 + 1, (where, sizes)
        assert len(sizes) <= 1 + -(-N // (2 * chunk)), (where, sizes)
        assert len(sizes) == 1 or N > 2 * chunk - 2, (where, sizes)

    monkeypatch.setattr(methods, "_power_terms", counted)
    windows = []
    for s, tol in warm_eval_points(seed):
        zeta = methods._zeta_bounds(s.real)
        for method in METHODS:
            sizes.clear()
            try:
                last = convergence_trace(s, method, tol)[-1]
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as excinfo:
                    zeta_eval(s, method, tol)
                assert str(excinfo.value) == str(exc)
                continue
            if method == METHOD_DIRICHLET:
                one_fold(last.terms_used, ("trace", s, tol))
            sizes.clear()
            got = zeta_eval(s, method, tol)
            assert got.terms_used == last.terms_used, (s, tol, method)
            if method == METHOD_DIRICHLET:
                assert (got.value, got.tail_error_bound) == (last.value, last.tail_error_bound)
                one_fold(got.terms_used, ("eval", s, tol))
                continue
            assert sum(sizes) == got.terms_used and len(sizes) <= 2, (s, tol, method, sizes)
            windows.append(len(sizes))
            rounding = sum(methods._rounding_of(s, method, zeta)(got.terms_used, abs(value))
                           for value in (got.value, last.value))
            assert abs(got.value - last.value) <= rounding, (s, tol, method)
    assert windows.count(1) > windows.count(2) > 0


@pytest.mark.parametrize("fold", [euler_partial, reform_partial])
def test_fold_memory_does_not_grow_with_the_number_of_primes(fold):
    # Each fold holds one block of _CHUNK primes at a time, so folding eight
    # blocks peaks about where folding one does.
    chunk = methods._CHUNK
    first_primes(8 * chunk)
    peaks = []
    for count in (chunk, 8 * chunk):
        tracemalloc.start()
        try:
            fold(count, 2 + 10j)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def certified_grid(count, seed):
    """Seeded (s, tol, k): Re(s) in (1, 12], most |Im s| <= 1e3 and some up
    to 1e14, tolerances 1e-15 to 1e-2, k for correction_coefficient."""
    rng = random.Random(seed)
    grid = []
    for _ in range(count):
        sigma = round(1.001 + 11.0 * rng.random() ** 2, 6)
        r = rng.random()
        if r < 0.2:
            t = 0.0
        else:
            t = round(rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 3 if r < 0.9 else 14), 6)
        grid.append((complex(sigma, t), float(f"{10 ** rng.uniform(-15, -2):.6g}"),
                     rng.randrange(1, 60)))
    return grid


def test_eval_matches_every_step_trace_and_holds_against_mpmath(monkeypatch):
    # zeta_eval and correction_coefficient answer and refuse what the
    # every-step loop does, with its terms_used and messages, and every
    # answer below |Im s| = 1e3 holds its bound against 40-digit mpmath.
    # Smaller limits keep the sieve, and this test's memory, small; the
    # refusals at them are compared like any other.
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(methods, "MAX_PRIME_LIMIT", 1 << 24)
    monkeypatch.setattr(methods, "MAX_DIRICHLET_TERMS", 1 << 22)
    outcomes = {"answered": 0, "refused": 0, "checked": 0}

    def outcome(run):
        try:
            return run()
        except RuntimeError as exc:
            return str(exc)

    def routes(s, tol, k):
        for method in METHODS:
            yield (method, lambda m=method: zeta_eval(s, m, tol),
                   lambda m=method: convergence_trace(s, m, tol)[-1])
        yield ("coefficient", lambda: correction_coefficient(k, s, TruncationSpec(tolerance=tol)),
               lambda: methods._trace(s, METHOD_EULER_PRODUCT, tol, 16, k - 1)[-1])

    with mpmath.workdps(40):
        for s, tol, k in certified_grid(420, seed=20261018):
            zeta = None
            for name, run, every_step in routes(s, tol, k):
                got, last = outcome(run), outcome(every_step)
                if isinstance(last, str):
                    assert got == last, (s, tol, name)
                    outcomes["refused"] += 1
                    continue
                assert got.terms_used == last.terms_used, (s, tol, name)
                outcomes["answered"] += 1
                if abs(s.imag) > 1e3:
                    continue
                if zeta is None:
                    zeta = mpmath.zeta(mpmath.mpc(s))
                exact = zeta
                if name == "coefficient":
                    for p in first_primes(k - 1).tolist():
                        exact *= 1 - mpmath.power(p, -mpmath.mpc(s))
                error = float(abs(mpmath.mpc(got.value) - exact))
                assert error <= got.tail_error_bound <= tol, (s, tol, name)
                outcomes["checked"] += 1
    assert min(outcomes.values()) >= 400, outcomes


def test_monotone_convergence_on_real_axis():
    sigma = 2.2
    values = [euler_partial(i, sigma).real for i in range(1, 121)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    ceiling = dirichlet_with_tail_oracle(sigma, 100_000) + tail_bound(120, sigma)
    assert values[-1] <= ceiling


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30, deadline=None)
def test_identity_holds_for_random_index(i):
    s = 1.5 + 0.7j
    scale = max(1.0, abs(euler_partial(i, s)))
    assert identity_residual(i, s) <= 1e-11 * scale


# ----------------------------------------------------------------------
# correction coefficients

def test_correction_coefficient_first_is_full_product():
    spec = TruncationSpec(tolerance=1e-6)
    got = correction_coefficient(1, 2, spec)
    assert abs(got.value - math.pi**2 / 6) <= 1e-6 + 1e-9
    assert got.tail_error_bound <= 1e-6
    assert got.method == METHOD_EULER_PRODUCT


def test_correction_coefficient_tight_tolerance_at_sigma_3():
    spec = TruncationSpec(tolerance=1e-8)
    got = correction_coefficient(1, 3, spec)
    assert abs(got.value - dirichlet_with_tail_oracle(3.0)) <= 1e-8 + 1e-12


def test_correction_coefficient_tight_tolerance_at_sigma_2():
    # the expensive corner: certifying 1e-8 at sigma=2 takes 2^21 primes
    spec = TruncationSpec(tolerance=1e-8)
    got = correction_coefficient(1, 2, spec)
    assert got.tail_error_bound <= 1e-8
    assert abs(got.value - math.pi**2 / 6) <= 1e-8


def test_correction_coefficient_tends_to_one():
    # for p_k > 1e4 at s = 2 the tail product sits within 2e-4 of 1
    k = len(primes_up_to(10**4)) + 1
    assert nth_prime(k) > 10**4
    got = correction_coefficient(k, 2, TruncationSpec(tolerance=1e-6))
    assert abs(got.value - 1.0) < 2e-4


def test_correction_coefficient_rejects_boundary():
    with pytest.raises(NonConvergentError):
        correction_coefficient(1, 1, TruncationSpec(tolerance=1e-6))


def test_truncation_spec_validation():
    for tolerance in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            TruncationSpec(tolerance=tolerance)
    assert TruncationSpec(tolerance=1e-15).tolerance == 1e-15
    with pytest.raises(ValueError):
        TruncationSpec(prime_index_i=0)
    with pytest.raises(ValueError):
        TruncationSpec(dirichlet_cutoff_N=0)
    spec = TruncationSpec()
    assert spec.tolerance >= 1e-14
