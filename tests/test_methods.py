"""Finite products and sums, their identity, tails, and adaptive evaluation."""

import importlib.util
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUNDARY
from scalar_reference import euler_factor, power_term, prime_power_term
from zetasum import kernel, methods, primes
from zetasum.kernel import PowerOverflowError, SingularPointError
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
    in_exclusion_set,
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
    assert dirichlet_partial(2, 2) == 1.25
    expected = float(Fraction(49, 36))
    assert abs(dirichlet_partial(3, 2).real - expected) <= 1e-15 * expected


def test_dirichlet_partial_refuses_boundary(no_work):
    # The series diverges there, so no power or cutoff array may be built.
    work = no_work("zetasum.methods._power_terms", "numpy.arange")
    for s in BOUNDARY:
        with pytest.raises(NonConvergentError,
                           match=r"^the Dirichlet partial sum requires Re\(s\) > 1"):
            dirichlet_partial(10, s)
    work.undo()
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        dirichlet_partial(0, 2)


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
@pytest.mark.parametrize("s", [3, 1.5, 2.5 + 300j, 1.001 - 14.1j, 1.05 + 2j,
                               0.5 - 14.1j, -1.5 + 2j])
def test_dirichlet_partial_matches_scalar_reference(s, N, chunk, monkeypatch):
    # Odd cuts (3, 5, 17, 31, 4097) and chunks of 7 odd powers exercise the
    # window ends of the even/odd split.  The fold's windows do not depend on
    # s, so at the two points with Re(s) <= 1, which `dirichlet_partial`
    # refuses, the fold itself is checked.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    expected, scale = scalar_dirichlet(N, s)
    z = complex(s)
    got = dirichlet_partial(N, s) if z.real > 1 else methods._dirichlet_fold(N, z)[-1]
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


@pytest.mark.parametrize("s, tol", [(2, 1e-6), (2 + 10j, 1e-8), (3.5 - 400j, 1e-10)])
def test_dirichlet_requests_never_enter_the_product_driver(s, tol, no_work):
    # A Dirichlet request is the feasibility walk and one fold: it builds no
    # product tail, head range or floor, and folds no prime block.
    no_work(*(f"zetasum.methods.{name}" for name in
              ("_trace", "_log_tail_of", "_head_range", "_product_floor", "_blocks")))
    got = zeta_eval(s, METHOD_DIRICHLET, tol)
    assert got.tail_error_bound <= tol
    steps = convergence_trace(s, METHOD_DIRICHLET, tol)
    assert steps[-1].tail_error_bound <= tol
    assert got.terms_used <= steps[-1].terms_used


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


def bits(v: complex) -> str:
    return f"{v.real.hex()} {v.imag.hex()}"


# float.hex of the real and imaginary parts, from the fold that summed each
# cut's odd powers from a call of its own, before the lowest cuts shared one:
# dirichlet_partial(N, s) for N = 2*chunk - 1, 2*chunk, 2*chunk + 1 and 2^20
# (s = 3, 1.7-900i at each N).  zeta_eval(s, "dirichlet", tol) for
# PINNED_EVALS, whose doubling counts are PINNED_EVAL_COUNTS, folds to a
# count past the doubling count before, and its value is that partial sum's.
PINNED_EVALS = ((2, 1e-6), (2 + 10j, 1e-6), (2.5 + 300j, 1e-9), (1.7 - 900j, 1e-4))
PINNED_EVAL_COUNTS = (2**20, 2**17, 2**15, 2**11)
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
    ),
}


@pytest.mark.parametrize("chunk", sorted(PINNED_DIRICHLET))
def test_dirichlet_values_keep_their_bits(chunk, monkeypatch):
    # Batching the lowest cuts' powers changes no bit: each cut sums the same
    # slice in the same pairwise order, on either side of the head's end.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    got = [dirichlet_partial(N, s) for N in (2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 1 << 20)
           for s in (3, 1.7 - 900j)]
    assert [bits(v) for v in got] == list(PINNED_DIRICHLET[chunk])
    for (s, tol), doubling in zip(PINNED_EVALS, PINNED_EVAL_COUNTS):
        got = zeta_eval(s, METHOD_DIRICHLET, tol)
        assert doubling // 2 < got.terms_used <= doubling
        assert bits(got.value) == bits(dirichlet_partial(got.terms_used, s))


@pytest.mark.parametrize("chunk", [7, ONE_BLOCK])
def test_dirichlet_phase_overflow_names_the_first_power_evaluated(chunk, monkeypatch):
    # At Re(s) > 1 only a phase can leave the double range: here -Im(s)*ln n
    # does from n = 4 on.  The fold evaluates 2^-s and the odd powers only,
    # so it names 5, and D(4) = 2^-s * D(2) + 1 + 3^-s is finite.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    s = 2 + 1.5e308j
    for N in (5, 10_000):
        with pytest.raises(PowerOverflowError, match=r"^5\^\(-s\) exceeds the double-precision range"):
            dirichlet_partial(N, s)
    got = dirichlet_partial(4, s)
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    # A certified request is refused on its rounding before any power.
    with pytest.raises(RuntimeError, match="rounding alone"):
        zeta_eval(s, METHOD_DIRICHLET, 1e-6)


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


OVERFLOW_ROWS = [
    (lambda: euler_partial(3000, 2j), "the running Euler product at prime 14009"),
    (lambda: reform_partial(50, 1e-7), "the prime-indexed sum at prime 227"),
    # The sum's terms leave the range at 1547 primes, where the product
    # (about 5e225) does not.
    (lambda: reform_partial(1547, 2j), "the prime-indexed sum at prime 12983"),
    (lambda: identity_residual(1547, 2j), "the prime-indexed sum at prime 12983"),
    (lambda: induction_step_check(1547, 2j), "the prime-indexed sum at prime 12983"),
]


@pytest.mark.parametrize("request_, message", OVERFLOW_ROWS)
def test_overflow_names_what_left_the_range(request_, message):
    with pytest.raises(PowerOverflowError) as got:
        request_()
    assert str(got.value).startswith(f"{message} exceeds the double-precision range at s = ")


def as_bits(value):
    """A result as hex, exactly: complex and float parts, and an
    EvaluationResult's value, terms_used and bound."""
    if isinstance(value, list):
        return [as_bits(v) for v in value]
    if isinstance(value, methods.EvaluationResult):
        return as_bits(value.value), value.terms_used, value.tail_error_bound.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    return repr(value)  # None, or a witness, whose float repr round-trips


def outcome(request, *args):
    """`as_bits` of what `request(*args)` returns, or the type and message
    of what it raises (a numpy RuntimeWarning raises under pytest)."""
    try:
        return as_bits(request(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def error_state_grid(sigmas, routes, heights=(0.0, 1e-45, -14.1, 1e3, 1e8)):
    """(request, *args) for `routes` at Re s in `sigmas` and Im s in
    `heights`: the certified requests at 1e-8, and the finite folds at a
    few sizes."""
    requests = []
    for s in (complex(sigma, t) for sigma in sigmas for t in heights):
        for method in routes:
            requests += [(zeta_eval, s, method, 1e-8), (convergence_trace, s, method, 1e-8)]
        if METHOD_DIRICHLET in routes:
            requests += [(dirichlet_partial, N, s) for N in (1, 2, 5, 100, 5000)]
            requests += [(in_exclusion_set, s, i) for i in (1, 7, 100)]
        if METHOD_EULER_PRODUCT in routes:
            requests += [(fold, i, s) for fold in (euler_partial, reform_partial) for i in (1, 2)]
    return requests


def same_under_raise(requests):
    with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):  # the default
        expected = [outcome(*request) for request in requests]
    with np.errstate(all="raise"):
        assert [outcome(*request) for request in requests] == expected
    return expected


def test_the_callers_error_state_changes_no_result():
    # Every public route at Re s from 1.01 to 400 and |Im s| up to 1e8, with
    # powers on both sides of `_power_terms`' rule for entering np.errstate
    # (Re s*ln n past 600, |Im s| below 1e-40, where a part of n^{-s} can
    # underflow at Im s = 1e-300), and the overflows above,
    # under numpy's default state and under all="raise": the same bits and
    # the same errors.  A dropped np.errstate where a flag can arise fails.
    # The prime folds at Re s = 400 are the next test's.
    requests = [(request,) for request, _ in OVERFLOW_ROWS]
    requests += error_state_grid((1.01, 1.5, 3.0, 20.0, 90.0), METHODS)
    requests += error_state_grid((400.0,), (METHOD_DIRICHLET,))
    requests += error_state_grid((1.01, 3.0, 400.0), (METHOD_DIRICHLET,), (1e-300,))
    expected = same_under_raise(requests)
    kinds = {row.split(":")[0] for row in expected if isinstance(row, str) and ": " in row}
    assert kinds == {"PowerOverflowError", "RuntimeError"}, kinds


def test_prime_folds_underflow_in_silence_under_any_error_state():
    # At large Re s a factor's imaginary part is tiny, and 1/(1 - p^{-s})
    # underflows in it.  Each fold holds its own np.errstate around its
    # blocks, so a caller's all="raise" changes nothing there either.
    products = (METHOD_EULER_PRODUCT, METHOD_REFORMULATED)
    requests = error_state_grid((400.0,), products)
    requests += error_state_grid((3.0, 90.0), products, (1e-300,))
    requests += [(euler_partial, 100, 90 + 1j), (identity_residual, 100, 90 + 1e3j),
                 (induction_step_check, 7, 400 + 1e-45j)]
    expected = same_under_raise(requests)
    assert not any("Error" in str(row) or "Warning" in str(row) for row in expected)


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
    # One pass: the first i primes through _identity, then p_{i+1} alone.
    seen = []
    power_terms = methods._power_terms

    def counted(n, z, *rows):
        seen.append(np.array(n))
        return power_terms(n, z, *rows)

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
    # The one premise of methods._rounding_of, which every certified bound and
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


def test_singular_scan_is_skipped_only_where_no_gap_can_reach_the_tolerance(monkeypatch):
    # `_blocks` skips its scan for 1 - 2^{-|sigma|} >= 2*tol.  For sigma > 0,
    # |1 - p^{-s}| >= 1 - p^{-sigma} >= 1 - 2^{-sigma}, for sigma < 0 it is
    # at least 2^{-sigma} - 1, which is larger, and the computed gap is
    # within about 1e-15 of the exact one, so just past the threshold every
    # gap clears tol.  Heights 2*pi*k/ln 2 put 2^{-s} on the positive real
    # axis, where its gap is least.
    tol = kernel.DEFAULT_SINGULAR_TOL
    threshold = -math.log2(1.0 - 2.0 * tol)
    p = first_primes(1 << 16)
    heights = [0.0, 1e3, -7.5e8, 1e15] + [2.0 * math.pi * k / math.log(2.0) for k in (1, -3, 10**6)]
    scans = []
    argmin = np.argmin
    monkeypatch.setattr(np, "argmin", lambda a: scans.append(a.size) or argmin(a))
    monkeypatch.setattr(methods, "_CHUNK", 1 << 15)
    for sigma, scanned in ((threshold * (1.0 + 1e-6), 0), (threshold * (1.0 - 1e-6), 2),
                           (-threshold * (1.0 + 1e-6), 0), (-threshold * (1.0 - 1e-6), 2)):
        for t in heights:
            z = complex(sigma, t)
            gap = np.abs(1.0 - methods._power_terms(p, z))
            assert gap.min() >= tol, (z, gap.min())
            scans.clear()
            for _ in methods._blocks(p, z):
                pass
            assert len(scans) == scanned, (z, scans)
    # Below the threshold the scan still fires where a gap is below tol.
    for sigma in (-math.log2(1.0 - 0.5 * tol), math.log2(1.0 - 0.5 * tol)):
        with pytest.raises(SingularPointError) as excinfo:
            euler_partial(3, complex(sigma, 2.0 * math.pi / math.log(2.0)))
        assert excinfo.value.prime == 2


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


def test_tail_bound_takes_the_theta_form_from_41_on():
    # p_7 = 17 and p_12 = 37 take partial summation against pi(x); from
    # p_13 = 41 on, the theta form is allowed, and it wins from p_20 = 71 on.
    def by_pi(p, sigma):
        return p ** (1 - sigma) / math.log(p) * (1.25506 * sigma / (sigma - 1) - 1) / (1 - p ** -sigma)

    def by_theta(p, sigma):
        inverse_log = 1 / math.log(p)
        primes_part = p ** (1 - sigma) * inverse_log * (
            1.01624 * (sigma + inverse_log) / (sigma - 1) - 1 + inverse_log)
        powers = p ** (1 - 2 * sigma) / (2 * (2 * sigma - 1) * (1 - p ** -sigma))
        return primes_part + powers

    for i, sigma in ((7, 2.0), (12, 3.0)):
        p = nth_prime(i)
        assert tail_bound(i, sigma) == pytest.approx(by_pi(p, sigma), rel=1e-15)
    assert tail_bound(13, 2.0) == pytest.approx(by_pi(41, 2.0), rel=1e-15)
    assert by_pi(41, 2.0) < by_theta(41, 2.0)
    for i, sigma in ((20, 2.0), (100, 1.5), (10_000, 3.0), (10**6, 1.2)):
        p = nth_prime(i)
        assert tail_bound(i, sigma) == pytest.approx(by_theta(p, sigma), rel=1e-15)
        assert tail_bound(i, sigma) < by_pi(p, sigma) < 2 * p ** (1 - sigma) / (sigma - 1)


@pytest.fixture(scope="module")
def primes_to_1e8():
    """Every prime up to 10^8, from one private sieve for the checks by
    exhaustion below; the shared cache stays as it was."""
    cache = primes.PrimeCache()
    cache.extend_to(methods._THETA_SQRT_LIMIT)
    return cache.primes


def test_theta_bounds_hold_at_every_prime_up_to_1e8(primes_to_1e8):
    # The three inequalities of Rosser & Schoenfeld the product tail rests
    # on, checked on [2, 10^8] by exhaustion.  theta is constant between
    # primes and t - theta(t), t*(1 - 1/ln t) grow with t, so the worst t
    # of [p_k, p_k+1) is p_k for theta(t) < t (and so < 1.01624*t) and just
    # below p_k+1 (or 10^8) for the two lower bounds.  np.log is within one
    # ulp, and np.cumsum adds in order, block after block onto the carry, so
    # the float theta at the k-th prime is within (k + 4)*u*theta of the
    # exact one.  Blocks of 2^20 primes keep the arrays small.
    limit = methods._THETA_SQRT_LIMIT
    p, block, carry = primes_to_1e8, 1 << 20, 0.0
    below, above = [], []
    for a in range(0, p.size, block):
        x = p[a : a + block + 1].astype(np.float64)  # this block and the next prime
        theta = carry + np.cumsum(np.log(x[:block]))
        carry = float(theta[-1])
        error = (np.arange(a + 5, a + 5 + theta.size)) * methods._U * theta
        t = x[1:] if x.size > block else np.append(x[1:], limit)
        assert np.all(theta + error < x[: theta.size])
        ratio = (t - (theta - error)) / np.sqrt(t)
        below.append((ratio.max(), t[np.argmax(ratio)]))
        start = int(np.searchsorted(x[: theta.size], methods._THETA_LOWER_FROM))
        gap = theta[start:] - error[start:] - t[start:] * (1.0 - 1.0 / np.log(t[start:]))
        above.append((gap.min(), t[start + np.argmin(gap)]))
    assert methods._THETA_UPPER > 1.0 and p[0] == 2 and methods._THETA_LOWER_FROM == 41
    assert max(below)[0] < methods._THETA_SQRT and min(above)[0] > 0.0
    assert (round(max(below)[0], 7), max(below)[1]) == (2.0528178, 1423.0)
    assert (round(min(above)[0], 2), min(above)[1]) == (0.40, 59.0)


def test_prime_ceiling_holds_at_every_prime_up_to_1e8(primes_to_1e8):
    # prime_ceiling(n) >= p_n at every n up to pi(10^8), by exhaustion: p_n
    # itself below 20, n(ln n + ln ln n - 1/2) to 39,016 and Dusart's form
    # from 39,017 on.  Each is at most 11 below 6 and n(ln n + ln ln n) from
    # 6 on, the forms `methods._last_ruled_out` inverts.
    p = primes_to_1e8
    n = np.arange(1, p.size + 1, dtype=np.float64)
    ceiling = np.fromiter(map(primes.prime_ceiling, range(1, p.size + 1)), np.float64, p.size)
    margin = ceiling - p
    assert p.size == 5_761_455 and (margin[:19] == 0.0).all()
    assert (round(margin[19:39016].min(), 3), int(np.argmin(margin[19:39016])) + 20) == (0.198, 25)
    assert margin[39016:].min() > 0.0
    assert (ceiling[:5] <= 11.0).all()
    assert (ceiling[5:] <= n[5:] * (np.log(n[5:]) + np.log(np.log(n[5:])))).all()


TAIL_PRIMES = 2_000_000


def prime_tails(s, cuts):
    """(x, an upper bound on |sum over p > x of log(1/(1 - p^{-s}))|) for
    each x in `cuts`: the modulus of the exact sum over the primes in (x, Y],
    Y the TAIL_PRIMES-th prime, plus a bound on the rest.

    The rest is at most the sum over p > Y of p^-sigma/(1 - Y^-sigma), and
    by partial summation against pi(t) < 1.25506*t/ln t, with pi(Y) =
    TAIL_PRIMES exactly, that sum is at most
    1.25506*sigma/((sigma-1)*ln Y)*Y^(1-sigma) - pi(Y)*Y^-sigma.
    Each log is its series to the fourth power (|p^{-s}| <= 50^-2 here),
    plus the sum of |p^{-s}|^5 for the rest of the series.
    """
    p = first_primes(TAIL_PRIMES).astype(np.float64)
    Y, sigma = p[-1], s.real
    rest = (1.25506 * sigma / ((sigma - 1) * math.log(Y)) * Y ** (1 - sigma)
            - TAIL_PRIMES * Y ** -sigma) / (1 - Y ** -sigma)
    t = np.exp(-s * np.log(p)) if s.imag else np.power(p, -sigma)
    after = np.cumsum((t + t * t * (0.5 + t * (1 / 3 + t / 4)))[::-1])[::-1]
    series = np.cumsum((np.abs(t) ** 5)[::-1])[::-1]
    for x in cuts:
        i = int(np.searchsorted(p, x, side="right"))  # p[i] is the first prime past x
        yield x, abs(complex(after[i])) + 2 * float(series[i]) + rest


@pytest.mark.parametrize("sigma, x_max", [(2.0, 10**6), (3.0, 10**7), (4.0, 10**7)])
def test_tail_bound_covers_exact_prime_sums(sigma, x_max):
    # At real s, tail_bound within a factor of 3 of the exact tail from
    # x = 1000 on.  Summed to 2e8 instead, the exact tail at sigma = 3,
    # x = 1e7 is 3.01e-16 against a bound of 3.83e-16.
    cuts = [17] + [10**k for k in range(2, 8) if 10**k <= x_max]
    for x, exact in prime_tails(complex(sigma), cuts):
        bound = methods._log_tail_of(complex(sigma))(x)
        assert exact <= bound, (x, exact, bound)
        if x >= 1000:
            assert bound <= 3 * exact, (x, exact, bound)
    i = len(primes_up_to(cuts[-1]))
    assert tail_bound(i, sigma) == methods._log_tail_of(complex(sigma))(nth_prime(i))


@pytest.mark.parametrize("s, x_max", [(2 + 0.5j, 5 * 10**5), (2 + 10j, 5 * 10**5),
                                      (2.5 - 40j, 5 * 10**5), (3.5 + 3j, 5 * 10**6),
                                      (3 + 1000j, 5 * 10**6)])
def test_phase_tail_covers_exact_prime_sums(s, x_max):
    # At complex s the phase form bounds |log| of the whole tail, and by
    # x_max it is below the sum-of-moduli bound.  Each x_max is the largest
    # of the cuts where the rest past the 2,000,000-th prime stays below
    # the bound.  Checked on sums to 2e8 for x up to 1e7, the tightest of
    # these points is 3.5+3i at x = 1e7, at 0.95 of the bound.
    cuts = [5 * 10**k for k in range(1, 7) if 5 * 10**k <= x_max]
    log_tail, moduli = methods._log_tail_of(s), methods._log_tail_of(complex(s.real))
    for x, exact in prime_tails(s, cuts):
        assert exact <= log_tail(x) <= moduli(x), (x, exact, log_tail(x))
    assert log_tail(x_max) < moduli(x_max)


def test_dirichlet_tail_bound_holds_and_is_tight():
    mpmath = pytest.importorskip("mpmath")
    # The Euler-Maclaurin bound is the smaller one at every point here; at
    # s = 2 + 0.1i, N = 1000 the true tail reaches 99.8% of it.
    cases = [(2 + 0.1j, 1000), (1.5 + 3j, 10**4), (3 - 40j, 64), (2.2 + 900j, 4096),
             (1.1 + 0.01j, 10**5), (4 + 1e3j, 4096)]
    ratios = []
    with mpmath.workdps(40):
        for s, N in cases:
            bound = methods._dirichlet_tail_of(s)(N)
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
    # The phase error alone, about u*|t|*(-zeta'(sigma)), exceeds tol.  At
    # 2+1.5e308i the phase Im(s)*ln p is not even finite.
    *[(s, tol, method) for s, tol in ((3 + 1e8j, 1e-10), (2 + 1e12j, 1e-6), (4 + 1e14j, 1e-10),
                                      (2 + 1.5e308j, 1e-6))
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


# (lo, hi, d) of `_zeta_bounds` and `_product_floor`, as hex.
ZETA_CONSTANT_BITS = {
    1.0001: (("0x1.5bdb79e5a2161p+1", "0x1.38849f54a9263p+13", "0x1.7d783ffb62208p+26"),
             "0x1.404801f73223ap-13"),
    1.5: (("0x1.ed3aaed14e925p+0", "0x1.4e6c0105a5ed7p+1", "0x1.f761ee18b012cp+1"),
          "0x1.d46d28c6a924dp-2"),
    2.0: (("0x1.870521b131047p+0", "0x1.a5233fcf4f229p+0", "0x1.e0236777e63fep-1"),
          "0x1.50afe39e357eap-1"),
    3.5: (("0x1.1ff5cd9f0aeffp+0", "0x1.207240a72cf1fp+0", "0x1.cf6888f606c0bp-4"),
          "0x1.ca3361f045f42p-1"),
    40.0: (("0x1.0000000001000p+0", "0x1.0000000001000p+0", "0x1.62e433451c8b5p-41"),
           "0x1.fffffffffe000p-1"),
}


@pytest.mark.parametrize("sigma", sorted(ZETA_CONSTANT_BITS))
def test_zeta_constants_keep_their_bits(sigma):
    # Every certified bound is built on these; a cheaper form of them must
    # not move a bit.
    zeta = methods._zeta_bounds(sigma)
    floor = methods._product_floor(sigma, zeta)
    assert (tuple(x.hex() for x in zeta), floor.hex()) == ZETA_CONSTANT_BITS[sigma]


def test_rounding_is_nondecreasing_in_count_and_magnitude():
    # The premise of the up-front refusal: once _rounding_of's bound at
    # (count, floor) exceeds the tolerance, so does every later step's bound.
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


def stepped_walk(z, method, tolerance, count, offset, magnitude, rounding_bound, tail):
    """The feasibility walk as it stepped every doubling count from `count`,
    the reference for `methods._walk_to_feasible`."""
    while True:
        if method == METHOD_DIRICHLET:
            if count > methods.MAX_DIRICHLET_TERMS:
                raise RuntimeError(
                    f"certifying this tolerance needs more than {methods.MAX_DIRICHLET_TERMS} "
                    "Dirichlet terms; relax the tolerance or pick another method"
                )
            truncation = tail(count)
        else:
            x = primes.prime_ceiling(offset + count)
            if x > methods.MAX_PRIME_LIMIT:
                raise RuntimeError(
                    f"certifying this tolerance needs more than the first "
                    f"{offset + count // 2} primes, and going further may need a sieve past "
                    f"the limit {methods.MAX_PRIME_LIMIT}; relax the tolerance or pick another method"
                )
            truncation = magnitude * methods._expm1(tail(x))
        rounding = rounding_bound(count, magnitude)
        if rounding > tolerance:
            raise RuntimeError(
                f"rounding alone may reach {rounding:.3e} at s = {z}, above the "
                f"tolerance {tolerance:.3e}; relax the tolerance"
            )
        if truncation + rounding <= tolerance:
            return count
        count *= 2


def walk_outcome(walk, *args):
    try:
        return "answer", walk(*args)
    except RuntimeError as exc:
        return str(exc).split(" ")[0], str(exc)


def test_walk_starts_past_the_counts_it_rules_out_and_ends_where_stepping_would():
    # The closed-form start skips only counts the stepped walk passes over,
    # so both return the same count or raise the same message; and at the
    # largest index `_last_ruled_out` names, the walk's own truncation
    # exceeds the tolerance.  Re(s) within 1e-4 of 1 drives the ruled-out
    # counts to the limits, where a root taken outside logs would overflow.
    # At complex s the walk takes the phase form, and the rule-out its own
    # threshold.
    rng = random.Random(20261019)
    tally = {}
    for _ in range(6000):
        if rng.random() < 0.2:
            sigma = 1.0 + 10.0 ** rng.uniform(-12.0, -4.0)
        else:
            sigma = 1.0001 + 38.9999 * rng.random() ** 3
        t = 0.0 if rng.random() < 0.3 else rng.choice((-1, 1)) * 10.0 ** rng.uniform(-3.0, 15.0)
        z = complex(sigma, t)
        method = rng.choice(METHODS)
        tolerance = 10.0 ** rng.uniform(-16.0, -1.0)
        count = 1 << rng.randrange(25)
        zeta = methods._zeta_bounds(sigma)
        if method == METHOD_DIRICHLET:
            # As `_checked_trace` calls it: the Dirichlet tail, taken at the count.
            offset, magnitude, tail = 0, 0.0, methods._dirichlet_tail_of(z)
        else:
            offset = 0 if rng.random() < 0.5 else int(10.0 ** rng.uniform(0.0, 6.0))
            floor = 1.0 if t == 0.0 else methods._product_floor(sigma, zeta)
            magnitude = rng.choice((floor, zeta[1], rng.uniform(floor, zeta[1])))
            tail = methods._log_tail_of(z)
        args = (z, method, tolerance, count, offset, magnitude,
                methods._rounding_of(z, method, zeta), tail)
        got = walk_outcome(methods._walk_to_feasible, *args)
        assert got == walk_outcome(stepped_walk, *args), args[:6]
        kind = (got[0], "dirichlet" if method == METHOD_DIRICHLET else "products")
        tally[kind] = tally.get(kind, 0) + 1
        n = methods._last_ruled_out(z, method, tolerance, magnitude)
        if n < 1:
            continue
        # Within the limits, so the walk's skip needs no limit check.
        if method == METHOD_DIRICHLET:
            assert n <= methods.MAX_DIRICHLET_TERMS, args[:6]
            assert tail(n) > tolerance, args[:6]
        else:
            x = primes.prime_ceiling(n)
            assert x <= methods.MAX_PRIME_LIMIT, args[:6]
            assert magnitude * methods._expm1(tail(x)) > tolerance, args[:6]
        if n - offset >= count:
            last = count << (((n - offset) // count).bit_length() - 1)
            if method == METHOD_DIRICHLET:
                assert last <= methods.MAX_DIRICHLET_TERMS, args[:6]
            else:
                assert primes.prime_ceiling(offset + last) <= methods.MAX_PRIME_LIMIT, args[:6]
            kind = ("skipped", got[0])
            tally[kind] = tally.get(kind, 0) + 1
    for kind in ("answer", "rounding", "certifying"):
        for route in ("dirichlet", "products"):
            assert tally.get((kind, route), 0) >= 100, tally
        # Skips that end in an answer, a rounding refusal, or at a limit.
        assert tally.get(("skipped", kind), 0) >= 100, tally


# bound / |error| against 40-digit mpmath, at most, for the Dirichlet route
# and the two product routes: about 1.2 times the measured ratio.
SLACK_CAPS = {(2, 1e-6): (1.2, 1.5), (2 + 10j, 1e-6): (1.2, 2.5), (3, 1e-10): (1.2, 1.7),
              (2.5 - 4j, 1e-8): (1.2, 1.5), (1.8 + 30j, 1e-5): (1.2, 13.5)}


@pytest.mark.parametrize("s, tol", sorted(SLACK_CAPS, key=str))
def test_each_routes_slack_is_capped(s, tol):
    # A later change that loosens a bound fails here, where no soundness
    # test would notice.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = mpmath.zeta(mpmath.mpc(s))
        for method in METHODS:
            got = zeta_eval(s, method, tol)
            slack = got.tail_error_bound / float(abs(mpmath.mpc(got.value) - exact))
            cap = SLACK_CAPS[s, tol][method != METHOD_DIRICHLET]
            assert 1.0 <= slack <= cap, (method, slack)


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
    # theta form first certifies past 2^19 primes, and the doubling count
    # after it is 2^20 (a sieve to 1.7e7).
    got = zeta_eval(1.5, METHOD_EULER_PRODUCT, 1e-4)
    assert convergence_trace(1.5, METHOD_EULER_PRODUCT, 1e-4)[-1].terms_used == 2**20
    assert 2**19 < got.terms_used <= 2**20
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


@pytest.mark.parametrize("s, tol", [(2 + 10j, 1e-8), (2.5 - 40j, 1e-9), (1.5 + 14.13j, 1e-4),
                                    (2.2 - 5j, 1e-9)])
def test_later_products_stay_inside_each_steps_floor_and_ceiling(s, tol, monkeypatch):
    # After a step at p_hi with modulus v and rounding r, `_trace` holds every
    # later modulus within (v - r)*exp(-b) and (v + r)*exp(b), with b the
    # sum-of-moduli bound at p_hi: a later value differs from this one by a
    # stretch of the tail, which the phase form does not cover.  Before the
    # first step the floor is the head's, which holds from the first prime on
    # (its ceiling from the eighth).  Checked against every partial product
    # up to the last step's count.
    floors = []
    walk = methods._walk_to_feasible
    monkeypatch.setattr(methods, "_walk_to_feasible", lambda *args: floors.append(args[5]) or walk(*args))
    trace = convergence_trace(s, METHOD_EULER_PRODUCT, tol)
    sigma = s.real
    moduli = methods._log_tail_of(complex(sigma))  # the sum-of-moduli bound
    rounding = methods._rounding_of(s, METHOD_EULER_PRODUCT, methods._zeta_bounds(sigma))
    factors = 1.0 / (1.0 - methods._power_terms(first_primes(trace[-1].terms_used), s))
    later = np.abs(np.cumprod(factors))  # later[c - 1]: the product over the first c primes
    lo, hi = methods._head_range(s, moduli)
    assert floors[0] == max(lo, methods._product_floor(sigma, methods._zeta_bounds(sigma)))
    assert lo <= later.min() and later[7:].max() <= hi, (lo, later.min(), later[7:].max(), hi)
    floor = floors[0]
    for step, walked in zip(trace[:-1], floors[1:]):
        c, v = step.terms_used, abs(step.value)
        r, x = rounding(c, v), nth_prime(c)
        b = moduli(x)
        floor = max(floor, (v - r) * math.exp(-b))
        assert walked == floor
        assert (v - r) * math.exp(-b) <= later[c:].min()
        assert later[c:].max() <= (v + r) * math.exp(b)
    # The phase form is the smaller bound there, so it is not what held them.
    x = nth_prime(trace[-2].terms_used)
    assert methods._log_tail_of(s)(x) < moduli(x)


def test_feasible_tolerance_near_the_floor_is_still_answered():
    # sigma = 2.5, tol = 1e-10 is not ruled out by the floor or by rounding,
    # so it takes the loop; the prime-only tail certifies it past 2^16
    # primes and by the doubling count 2^17, where the integer tail needed 2^19.
    for method in (METHOD_EULER_PRODUCT, METHOD_REFORMULATED):
        got = zeta_eval(2.5, method, 1e-10)
        assert 65536 < got.terms_used <= 131072
        assert got.tail_error_bound <= 1e-10
    got = correction_coefficient(1, 2.5, TruncationSpec(tolerance=1e-10))
    assert 65536 < got.terms_used <= 131072
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
    # zeta_eval computes each power once.  A Dirichlet request, trace or not,
    # is one fold, with one call for its lowest cuts, and zeta_eval's value is
    # the partial sum at its own terms_used.  A product request evaluates
    # exactly terms_used powers in at most one window per count the walk
    # returned, as the doubling loop folds one window per such count.  Every
    # answer certifies the trace's limit with at most the trace's terms_used.
    power_terms, blocks, walk = methods._power_terms, methods._blocks, methods._walk_to_feasible
    sizes, windows, walks = [], [], []

    def counted(n, z, *rows):
        sizes.append(len(n))
        return power_terms(n, z, *rows)

    def counted_blocks(p_all, z):
        windows.append(len(p_all))
        return blocks(p_all, z)

    def counted_walk(*args):
        walks.append(args[3])
        return walk(*args)

    def one_fold(N, where):
        # The ceil(N/2) odd powers and 2^{-s}, the lowest cuts' in one call
        # (the only one up to N = 2*_CHUNK - 2), the rest in windows of _CHUNK.
        chunk = methods._CHUNK
        assert sum(sizes) == (N + 1) // 2 + 1, (where, sizes)
        assert len(sizes) <= 1 + -(-N // (2 * chunk)), (where, sizes)
        assert len(sizes) == 1 or N > 2 * chunk - 2, (where, sizes)

    monkeypatch.setattr(methods, "_power_terms", counted)
    monkeypatch.setattr(methods, "_blocks", counted_blocks)
    monkeypatch.setattr(methods, "_walk_to_feasible", counted_walk)
    folds = []
    for s, tol in warm_eval_points(seed):
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
            for counts in (sizes, windows, walks):
                counts.clear()
            got = zeta_eval(s, method, tol)
            assert got.terms_used <= last.terms_used, (s, tol, method)
            assert abs(got.value - last.value) <= got.tail_error_bound + last.tail_error_bound
            if method == METHOD_DIRICHLET:
                one_fold(got.terms_used, ("eval", s, tol))
                assert bits(got.value) == bits(dirichlet_partial(got.terms_used, s))
                continue
            assert sum(sizes) == sum(windows) == got.terms_used, (s, tol, method, sizes)
            assert len(windows) <= len(walks), (s, tol, method, windows, walks)
            folds.append(len(windows))
    # Most requests certify at their first fold; some take the walk's next count.
    assert folds.count(1) > folds.count(2) > 0


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_eval_dirichlet_count_is_within_a_32nd_of_the_first_that_certifies(seed):
    # The closed form is the step's bound, so the count zeta_eval folds to
    # certifies, and the count max(1, c >> 5) before it does not, unless c is
    # the first count the trace tries.
    answered = 0
    for s, tol in warm_eval_points(seed):
        zeta = methods._zeta_bounds(s.real)
        rounding = methods._rounding_of(complex(s), METHOD_DIRICHLET, zeta)

        def bound(c):
            return methods._dirichlet_tail_of(complex(s))(c) + rounding(c, 0.0)

        try:
            got = zeta_eval(s, METHOD_DIRICHLET, tol)
        except RuntimeError:
            continue
        c = got.terms_used
        assert got.tail_error_bound == bound(c) <= tol, (s, tol)
        assert c == 16 or bound(c - max(1, c >> 5)) > tol, (s, tol, c)
        answered += 1
    assert answered >= 50


# Product requests that certify at their first fold, at a second one, at a
# power of two and off it (warm_eval seed 7), and tail products.
CACHE_POINTS = [(2, 1e-6), (2 + 10j, 1e-6), (3, 1e-10), (2.31189 + 696.634j, 3.26554e-08),
                (2.7632 - 477.284j, 1.67724e-10), (2.03361 + 822.197j, 3.72144e-06)]
CACHE_COEFFICIENTS = [(2, 2.5, 1e-8), (7, 2 + 10j, 1e-6), (40, 3 - 4j, 1e-9)]


def cache_routes(every_step):
    """(name, run) for every product request of CACHE_POINTS and
    CACHE_COEFFICIENTS, as zeta_eval and correction_coefficient run them or,
    with `every_step`, as the doubling loop does."""
    for s, tol in CACHE_POINTS:
        for method in (METHOD_EULER_PRODUCT, METHOD_REFORMULATED):
            if every_step:
                yield (s, method), lambda s=s, m=method, t=tol: convergence_trace(s, m, t)[-1]
            else:
                yield (s, method), lambda s=s, m=method, t=tol: zeta_eval(s, m, t)
    for k, s, tol in CACHE_COEFFICIENTS:
        if every_step:
            yield (s, k), lambda s=s, k=k, t=tol: methods._trace(
                complex(s), METHOD_EULER_PRODUCT, t, k - 1)[-1]
        else:
            yield (s, k), lambda s=s, k=k, t=tol: correction_coefficient(
                k, s, TruncationSpec(tolerance=t))


def test_eval_grows_the_cache_no_further_than_the_doubling_loop(monkeypatch):
    # The count each search finds depends only on primes the fold to the
    # walk's count needs anyway, so a fresh cache grows no further than it
    # does for the every-step loop.
    reached = {}
    for every_step in (True, False):
        for name, run in cache_routes(every_step):
            cache = primes.PrimeCache()
            monkeypatch.setattr(primes, "_default_cache", cache)
            run()
            reached.setdefault(name, []).append((len(cache), cache.source_limit))
    for name, (loop, eval_) in reached.items():
        assert eval_[0] <= loop[0] and eval_[1] <= loop[1], (name, loop, eval_)


def test_eval_does_not_depend_on_what_the_cache_holds(monkeypatch):
    grown = primes.PrimeCache()
    grown.extend_to_count(1 << 21)
    got = []
    for cache in (primes.PrimeCache(), grown):
        monkeypatch.setattr(primes, "_default_cache", cache)
        got.append([(bits(r.value), r.terms_used, r.tail_error_bound.hex())
                    for r in (run() for _, run in cache_routes(every_step=False))])
    assert got[0] == got[1]


@pytest.mark.parametrize("s, tol", [(2, 1e-6), (2 + 10j, 1e-6), (3, 1e-10), (2.5 - 4j, 1e-8)])
def test_a_failed_short_fold_resumes_the_walk(monkeypatch, s, tol):
    # Each search lands just past its bracket's low end, so its fold falls
    # short; the walk resumes from twice that count, every step folds
    # further than the last, and the answer still holds against mpmath.
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(methods, "_first_certifying", lambda lo, hi, certifies: lo + 1)
    with mpmath.workdps(40):
        exact = mpmath.zeta(mpmath.mpc(s))
    for method in (METHOD_EULER_PRODUCT, METHOD_REFORMULATED):
        counts = [step.terms_used for step in methods._checked_trace(s, method, tol, False)]
        assert len(counts) > 1 and all(a < b for a, b in zip(counts, counts[1:])), counts
        got = zeta_eval(s, method, tol)
        assert got.terms_used == counts[-1]
        error = float(abs(mpmath.mpc(got.value) - exact))
        assert error <= got.tail_error_bound <= tol, (method, counts)


@pytest.mark.parametrize("fold, s", [(euler_partial, 2 + 10j), (reform_partial, 2 + 10j),
                                     (identity_residual, 2 + 10j),
                                     (induction_step_check, 2 + 10j), (identity_residual, 3)],
                         ids=["euler_partial", "reform_partial", "identity_residual",
                              "induction_step_check", "identity_residual_at_real_s"])
def test_fold_memory_does_not_grow_with_the_number_of_primes(fold, s):
    # Every block, for one carry or both and at real s too, is folded in
    # this thread's four rows of _CHUNK entries, which one warm-up fold
    # grows.  A fold of eight blocks then allocates no block memory: its
    # peak stays far below one row's 1 MiB, and the rows do not grow.
    chunk = methods._CHUNK
    first_primes(8 * chunk + 1)
    fold(chunk, s)
    tracemalloc.start()
    try:
        fold(8 * chunk, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak
    assert [len(row) for row in methods._rows(0)[:4]] == [chunk] * 4


def test_folds_on_two_threads_match_the_sequential_ones():
    # Each thread folds in rows of its own, so folds of two blocks running
    # side by side give the bits they give one after another.
    requests = [(fold, i, s) for fold in (euler_partial, reform_partial, identity_residual)
                for i, s in ((70_000, 2 + 10j), (85_003, 0.75 + 123.4j), (100_000, 3),
                             (91_237, 0.5 - 7j))]
    requests.append((in_exclusion_set, 1j * math.tau / math.log(nth_prime(99_991)), 100_000))
    expected = [outcome(*request) for request in requests]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda request: outcome(*request), requests * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 2


# convergence_trace(2.65385+383.762i, "reformulated", 1.06261e-08), as hex:
# one of the traces whose bits change if t*suffix is written over t.
PINNED_REFORMULATED_TRACE = [
    (("0x1.d1fc26b3a1ca6p-1", "-0x1.d609d67172b7cp-4"), 1, "0x1.b82bffb727f9cp-2"),
    (("0x1.e4ae321a356cdp-1", "-0x1.36a9949b39766p-3"), 2, "0x1.aa6d300c232a7p-3"),
    (("0x1.e37d48aa67e7ep-1", "-0x1.46f9fdff39b3ap-3"), 4, "0x1.8516a87346710p-5"),
    (("0x1.e2d03103d4fafp-1", "-0x1.452ead00f6b78p-3"), 8, "0x1.4be0eca715700p-9"),
    (("0x1.e2a888d45ec00p-1", "-0x1.4471db646d254p-3"), 16, "0x1.683f0872145bfp-12"),
    (("0x1.e2af9a441218ep-1", "-0x1.4478b65c591edp-3"), 32, "0x1.f2730e6910e8dp-15"),
    (("0x1.e2aed3aea15bap-1", "-0x1.44766ce20a33ep-3"), 64, "0x1.804425116efacp-17"),
    (("0x1.e2aebed4285dfp-1", "-0x1.44766a85ae23ap-3"), 128, "0x1.42364f50835e3p-19"),
    (("0x1.e2aec248cc275p-1", "-0x1.4476710c27440p-3"), 256, "0x1.22750345de538p-21"),
    (("0x1.e2aec2bc85496p-1", "-0x1.4476746120de0p-3"), 512, "0x1.072884f34fce6p-23"),
    (("0x1.e2aec2bca0bf8p-1", "-0x1.447673d9e4ac9p-3"), 1024, "0x1.f512b21fd7989p-26"),
    (("0x1.e2aec2be5d6d0p-1", "-0x1.447673e3ea58cp-3"), 2048, "0x1.efdbbbb6480e7p-28"),
]


def test_reformulated_trace_bits_are_pinned():
    got = convergence_trace(2.65385 + 383.762j, METHOD_REFORMULATED, 1.06261e-08)
    assert as_bits(got) == PINNED_REFORMULATED_TRACE


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
    # every-step loop does, with at most its terms_used and with its
    # messages, a Dirichlet answer is the partial sum at its own terms_used,
    # and every answer below |Im s| = 1e3 holds its bound against 40-digit
    # mpmath.
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
               lambda: methods._trace(s, METHOD_EULER_PRODUCT, tol, k - 1)[-1])

    with mpmath.workdps(40):
        for s, tol, k in certified_grid(420, seed=20261018):
            zeta = None
            for name, run, every_step in routes(s, tol, k):
                got, last = outcome(run), outcome(every_step)
                if isinstance(last, str):
                    assert got == last, (s, tol, name)
                    outcomes["refused"] += 1
                    continue
                assert got.terms_used <= last.terms_used, (s, tol, name)
                if name == METHOD_DIRICHLET:
                    assert bits(got.value) == bits(dirichlet_partial(got.terms_used, s)), (s, tol)
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


# zeta_eval and convergence_trace at twelve points, as hex: for each
# method in METHODS order, the value's parts, terms_used and the bound (for
# a trace, its number of steps and its last step), or the type and message
# of the refusal.  They cover real and complex s, Dirichlet folds served
# from the head batch (3+1i, 2.5-4i) and through windows (2, 1.5), product
# requests that fold once and that fold twice (1.5, 2.5-4i), and a
# rounding refusal at a large-|Im s| anchor (3+1e8i).  A faster driver
# must not move a bit of them.
BIT_PINS = {
    ((2+0j), 1e-06): (
        "0x1.a51a55a10ffd5p+0 0x0.0p+0 1015808 0x1.0842111b1b195p-20",
        "17 steps, 0x1.a51a562530fd2p+0 0x0.0p+0 1048576 0x1.0000009be97adp-20",
        "0x1.a51a593f45611p+0 0x0.0p+0 15104 0x1.0b240d9b2fa5fp-20",
        "15 steps, 0x1.a51a5a6e4738ap+0 0x0.0p+0 16384 0x1.e4b1e71f0851dp-21",
        "0x1.a51a593f447d8p+0 0x0.0p+0 15104 0x1.0b23e8f0a49eep-20",
        "15 steps, 0x1.a51a5a6e46616p+0 0x0.0p+0 16384 0x1.e4b1978ec130ap-21",
    ),
    ((3+1j), 0.001): (
        "0x1.1ba6dc1cfd9d5p+0 -0x1.3076a11568b4cp-3 22 0x1.fe419e70e8d14p-11",
        "2 steps, 0x1.1b85a97fcf3c9p+0 -0x1.3052debdac3f6p-3 32 0x1.da7b5c61a2236p-12",
        "0x1.1b812842e7c28p+0 -0x1.2ff47cdb17dc2p-3 8 0x1.e6af75f93a731p-11",
        "4 steps, 0x1.1b812842e7c28p+0 -0x1.2ff47cdb17dc1p-3 8 0x1.e6af75f93a731p-11",
        "0x1.1b812842e7c2ap+0 -0x1.2ff47cdb17dc1p-3 8 0x1.e6af75f930ff5p-11",
        "4 steps, 0x1.1b812842e7c2ap+0 -0x1.2ff47cdb17dc2p-3 8 0x1.e6af75f930ff5p-11",
    ),
    ((2.5-4j), 1e-08): (
        "0x1.b4553cb66a0a7p-1 0x1.597eb86ba9f50p-9 81920 0x1.570a7609849ccp-27",
        "14 steps, 0x1.b4553c8107779p-1 0x1.597f14ad736e0p-9 131072 0x1.52fe9d9761f19p-28",
        "0x1.b4553cb216bb3p-1 0x1.597edf3e46292p-9 2176 0x1.4fcb1895226c8p-27",
        "13 steps, 0x1.b4553c6056fa8p-1 0x1.597ef729a6b77p-9 4096 0x1.9b6bd4a9d04e5p-29",
        "0x1.b4553cb2168f8p-1 0x1.597edf3e46294p-9 2176 0x1.4fc7e2318913cp-27",
        "13 steps, 0x1.b4553c6056d61p-1 0x1.597ef729a6bb0p-9 4096 0x1.9b539955f4d4dp-29",
    ),
    ((1.5+0j), 0.0045): (
        "0x1.4dd007a71c526p+1 0x0.0p+0 200704 0x1.24924924a0ed3p-8",
        "15 steps, 0x1.4de250c7bd896p+1 0x0.0p+0 262144 0x1.000000000f217p-8",
        "0x1.4df9d3d7592bbp+1 0x0.0p+0 2240 0x1.219a156a3c76ep-8",
        "13 steps, 0x1.4e1bee0ba5b05p+1 0x0.0p+0 4096 0x1.7fba6c3888f15p-9",
        "0x1.4df9d3d7592c5p+1 0x0.0p+0 2240 0x1.219a156ae2846p-8",
        "13 steps, 0x1.4e1bee0ba5b01p+1 0x0.0p+0 4096 0x1.7fba6c3adad31p-9",
    ),
    ((2.35666-475.125j), 4.1424e-07): (
        "0x1.d0ce5dec51e58p-1 0x1.a0ee44a89e426p-4 1216 0x1.bbeaecd83c84bp-22",
        "8 steps, 0x1.d0ce58b77031bp-1 0x1.a0ee65d6adea1p-4 2048 0x1.feb42f666789bp-24",
        "0x1.d0ce59b08f674p-1 0x1.a0ee568678b1cp-4 1152 0x1.a78fe6a565e59p-22",
        "12 steps, 0x1.d0ce59d5f318dp-1 0x1.a0ee565aa6a8ap-4 2048 0x1.425c92e3587c5p-23",
        "0x1.d0ce59b08f578p-1 0x1.a0ee568678b0fp-4 1152 0x1.a78fdf9143509p-22",
        "12 steps, 0x1.d0ce59d5f2fd8p-1 0x1.a0ee565aa6a97p-4 2048 0x1.425c738bd001cp-23",
    ),
    ((2.59671+784.934j), 1e-07): (
        "0x1.c84b42128ecf0p-1 0x1.89c916e28c990p-7 1344 0x1.a04e6c00a529ap-24",
        "8 steps, 0x1.c84b422c721fdp-1 0x1.89c8ef2bf80c0p-7 2048 0x1.b5cbbbe03fde7p-26",
        "0x1.c84b4249a74dbp-1 0x1.89c901938fa74p-7 704 0x1.a891a1d9154e9p-24",
        "11 steps, 0x1.c84b423edb668p-1 0x1.89c8fd41c8dd4p-7 1024 0x1.92989f7441afdp-25",
        "0x1.c84b4249a7442p-1 0x1.89c901938fa82p-7 704 0x1.a891836818fcdp-24",
        "11 steps, 0x1.c84b423edb5b3p-1 0x1.89c8fd41c8debp-7 1024 0x1.9298395a116aep-25",
    ),
    ((3+100000000j), 1e-10): (
        "RuntimeError: rounding alone may reach 6.600e-09 at s = (3+100000000j), above the "
        "tolerance 1.000e-10; relax the tolerance",
        "RuntimeError: rounding alone may reach 6.600e-09 at s = (3+100000000j), above the "
        "tolerance 1.000e-10; relax the tolerance",
        "RuntimeError: rounding alone may reach 5.523e-09 at s = (3+100000000j), above the "
        "tolerance 1.000e-10; relax the tolerance",
        "RuntimeError: rounding alone may reach 5.523e-09 at s = (3+100000000j), above the "
        "tolerance 1.000e-10; relax the tolerance",
        "RuntimeError: rounding alone may reach 7.860e-09 at s = (3+100000000j), above the "
        "tolerance 1.000e-10; relax the tolerance",
        "RuntimeError: rounding alone may reach 7.860e-09 at s = (3+100000000j), above the "
        "tolerance 1.000e-10; relax the tolerance",
    ),
    ((3+0j), 1e-10): (
        "0x1.33ba004e95632p+0 0x0.0p+0 71680 0x1.ac14ed8c0dd45p-34",
        "14 steps, 0x1.33ba004ee0621p+0 0x0.0p+0 131072 0x1.0030aca9ebfedp-35",
        "0x1.33ba004eb6dd1p+0 0x0.0p+0 3136 0x1.a57e81d38a769p-34",
        "13 steps, 0x1.33ba004ed92b7p+0 0x0.0p+0 4096 0x1.c5b8cb66043c5p-35",
        "0x1.33ba004eb3060p+0 0x0.0p+0 3072 0x1.b5776bf3c1f33p-34",
        "13 steps, 0x1.33ba004ed8eedp+0 0x0.0p+0 4096 0x1.bcca81eb52f95p-35",
    ),
    ((4.951+0j), 0.00021): (
        "0x1.09d17eb686e47p+0 0x0.0p+0 16 0x1.28e3b4e07e964p-18",
        "1 steps, 0x1.09d17eb686e47p+0 0x0.0p+0 16 0x1.28e3b4e07e964p-18",
        "0x1.09d16f0c64c65p+0 0x0.0p+0 5 0x1.52b4d64af616bp-15",
        "4 steps, 0x1.09d1ba799ae49p+0 0x0.0p+0 8 0x1.e09540cb6f4c9p-20",
        "0x1.09d16f0c64c67p+0 0x0.0p+0 5 0x1.52b4d64ab2b1cp-15",
        "4 steps, 0x1.09d1ba799ae49p+0 0x0.0p+0 8 0x1.e09540be5ca13p-20",
    ),
    ((6-0.5j), 1e-12): (
        "0x1.04206f1aaae01p+0 0x1.9a0ccf6ae7f5bp-8 184 0x1.0e5d3798e60e8p-40",
        "5 steps, 0x1.04206f1aaa22dp+0 0x1.9a0ccf6b488a8p-8 256 0x1.b66d4923889e0p-43",
        "0x1.04206f1aaa4b1p+0 0x1.9a0ccf6b25182p-8 37 0x1.1670b847652edp-40",
        "7 steps, 0x1.04206f1aa9f55p+0 0x1.9a0ccf6b556b2p-8 64 0x1.323c9663a269fp-44",
        "0x1.04206f1aaa4afp+0 0x1.9a0ccf6b25182p-8 37 0x1.0f87f69268d1ap-40",
        "7 steps, 0x1.04206f1aa9f54p+0 0x1.9a0ccf6b556afp-8 64 0x1.eda47dcbb657fp-46",
    ),
    ((1.8+30j), 1e-05): (
        "0x1.907d299d08985p-1 -0x1.391adba272a4cp-2 25600 0x1.4cc3c9bef6fa0p-17",
        "12 steps, 0x1.907c063e2377dp-1 -0x1.3919b640c3b20p-2 32768 0x1.111848602004ap-17",
        "0x1.907cf212c3d67p-1 -0x1.3918634db40e2p-2 2688 0x1.37d2c9a570c73p-17",
        "13 steps, 0x1.907cd55f541a4p-1 -0x1.39187fd003a4cp-2 4096 0x1.4a219f74654c7p-18",
        "0x1.907cf212c3da7p-1 -0x1.3918634db40d1p-2 2688 0x1.37d2ccacfbd50p-17",
        "13 steps, 0x1.907cd55f540b4p-1 -0x1.39187fd003aa3p-2 4096 0x1.4a21a89bf3972p-18",
    ),
    ((1.05+0j), 0.001): (
        "RuntimeError: certifying this tolerance needs more than 1073741824 Dirichlet terms; "
        "relax the tolerance or pick another method",
        "RuntimeError: certifying this tolerance needs more than 1073741824 Dirichlet terms; "
        "relax the tolerance or pick another method",
        "RuntimeError: certifying this tolerance needs more than the first 33554432 primes, "
        "and going further may need a sieve past the limit 1073741824; relax the tolerance or "
        "pick another method",
        "RuntimeError: certifying this tolerance needs more than the first 33554432 primes, "
        "and going further may need a sieve past the limit 1073741824; relax the tolerance or "
        "pick another method",
        "RuntimeError: certifying this tolerance needs more than the first 33554432 primes, "
        "and going further may need a sieve past the limit 1073741824; relax the tolerance or "
        "pick another method",
        "RuntimeError: certifying this tolerance needs more than the first 33554432 primes, "
        "and going further may need a sieve past the limit 1073741824; relax the tolerance or "
        "pick another method",
    ),
}


@pytest.mark.parametrize("s, tol", sorted(BIT_PINS, key=str))
def test_requests_keep_their_bits(s, tol):
    def row(result):
        value, terms, bound = as_bits(result)
        return f"{value[0]} {value[1]} {terms} {bound}"

    got = []
    for method in METHODS:
        for request in (zeta_eval, convergence_trace):
            try:
                result = request(s, method, tol)
            except RuntimeError as exc:
                got.append(f"RuntimeError: {exc}")
                continue
            got.append(row(result) if request is zeta_eval
                       else f"{len(result)} steps, {row(result[-1])}")
    assert tuple(got) == BIT_PINS[s, tol]


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


@pytest.mark.parametrize("k, s, tol", [(1, 3, 1e-2), (3, 4 - 2j, 1e-4), (5, 2.5, 1e-3),
                                        (1, 6, 1e-5)])
def test_correction_coefficient_starts_at_one_prime(k, s, tol):
    # A loose request certifies before 16 primes, and holds against 40-digit
    # zeta(s) times the factors 1 - p_j^{-s} for j < k.
    mpmath = pytest.importorskip("mpmath")
    got = correction_coefficient(k, s, TruncationSpec(tolerance=tol))
    assert got.terms_used < 16
    with mpmath.workdps(40):
        exact = mpmath.zeta(mpmath.mpc(s))
        for p in first_primes(k - 1).tolist():
            exact *= 1 - mpmath.power(p, -mpmath.mpc(s))
        error = float(abs(mpmath.mpc(got.value) - exact))
    assert error <= got.tail_error_bound <= tol


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
    with pytest.raises(ValueError, match="dirichlet_cutoff_N must be >= 2"):
        TruncationSpec(dirichlet_cutoff_N=1)
    assert TruncationSpec(dirichlet_cutoff_N=2).dirichlet_cutoff_N == 2
    spec = TruncationSpec()
    assert spec.tolerance >= 1e-14
    # The walk's own rule: an index whose prime ceiling passes the sieve
    # limit is refused in O(1), and so is a cutoff whose partition table
    # would pass MAX_PARTITION_CUTOFF.
    last = 54_385_774
    assert primes.prime_ceiling(last) <= methods.MAX_PRIME_LIMIT < primes.prime_ceiling(last + 1)
    spec = TruncationSpec(prime_index_i=last, dirichlet_cutoff_N=methods.MAX_PARTITION_CUTOFF)
    assert (spec.prime_index_i, spec.dirichlet_cutoff_N) == (last, 1 << 24)
    with pytest.raises(ValueError, match="may need a sieve past the limit 1073741824"):
        TruncationSpec(prime_index_i=last + 1)
    with pytest.raises(ValueError, match="dirichlet_cutoff_N must be <= 16777216"):
        TruncationSpec(dirichlet_cutoff_N=methods.MAX_PARTITION_CUTOFF + 1)
