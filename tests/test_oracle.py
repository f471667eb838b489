"""Brute-force cross-checks: smooth sums and smallest-prime-factor partitions."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from scalar_reference import power_term, smallest_prime_factor
from zetasum import methods, oracle
from zetasum.methods import (
    METHOD_DIRICHLET,
    METHOD_EULER_PRODUCT,
    NonConvergentError,
    TruncationSpec,
    dirichlet_partial,
    euler_partial,
)
from zetasum.oracle import (
    coefficient_crosscheck,
    compare,
    smooth_sum_oracle,
    spf_partition_sum,
)
from zetasum.primes import first_primes, primes_up_to, smooth_numbers


def scalar_partition(s, N: int) -> dict[int, complex]:
    """The partition rows one n at a time: trial division and the scalar
    power, independent of the oracle's sieve and vectorised powers."""
    rows: dict[int, complex] = {}
    for n in range(2, N + 1):
        p = smallest_prime_factor(n)
        rows[p] = rows.get(p, complex(0.0)) + power_term(n, s)
    return dict(sorted(rows.items()))


def test_smooth_sum_geometric_closed_form():
    # powers of two up to 2^20 at s = 2: a finite geometric series
    expected = float(sum(Fraction(1, 4**e) for e in range(21)))
    assert expected == float((1 - Fraction(1, 4**21)) / (1 - Fraction(1, 4)))
    got = smooth_sum_oracle(1, 2, 2**20)
    assert got.imag == 0.0
    assert abs(got.real - expected) <= 1e-13 * expected


def test_smooth_sum_approaches_euler_partial():
    product = euler_partial(2, 3)
    got = smooth_sum_oracle(2, 3, 10**6)
    assert abs(got - product) <= 1e-5
    assert abs(got - float(Fraction(108, 91))) <= 1e-5


def test_smooth_sum_bound_one():
    assert smooth_sum_oracle(1, 2, 1) == 1.0


def test_smooth_sum_monotone_in_bound():
    values = [smooth_sum_oracle(3, 2.5, 10**e).real for e in range(0, 6)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= euler_partial(3, 2.5).real + 1e-12


# Points the identity, and the Euler product it rearranges, do not reach.
BOUNDARY = [1, 0.5 + 14.1j, -100, -400 + 3j]


@pytest.fixture
def no_work(monkeypatch):
    # The sieve and the rank table fail, for a refusal that must come first.
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(np, "full", forbidden)
    monkeypatch.setattr(oracle.primes, "primes_up_to", forbidden)
    return monkeypatch


def test_smooth_sum_rejects_boundary(no_work):
    for s in BOUNDARY:
        with pytest.raises(NonConvergentError, match=r"^the smooth-number sum requires Re\(s\) > 1"):
            smooth_sum_oracle(2, s, 100)
        with pytest.raises(NonConvergentError, match=r"^the partition requires Re\(s\) > 1"):
            spf_partition_sum(s, 100)
    no_work.undo()
    with pytest.raises(ValueError):
        smooth_sum_oracle(2, 2, 0)


def test_partition_rows_hand_sums():
    table = spf_partition_sum(3, 10)
    # evens up to 10: 2, 4, 6, 8, 10
    expected_two = float(sum(Fraction(1, n**3) for n in (2, 4, 6, 8, 10)))
    assert expected_two == float(Fraction(256103, 1728000))
    assert abs(table.row(2).real - expected_two) <= 1e-14
    # 7 is the only n <= 10 with smallest prime factor 7
    assert abs(table.row(7).real - 7.0**-3) <= 1e-16
    assert table.primes.tolist() == [2, 3, 5, 7]
    assert table.cutoff_N == 10


def test_partition_is_exhaustive_small():
    table = spf_partition_sum(3, 10)
    reference = dirichlet_partial(10, 3)
    assert abs(1.0 + table.total() - reference) <= 1e-15 * abs(reference)


@pytest.mark.parametrize("N", [100, 1000, 10_000])
@pytest.mark.parametrize("s", [2, 3, 2 + 1j])
def test_partition_is_exhaustive(N, s):
    table = spf_partition_sum(s, N)
    reference = dirichlet_partial(N, s)
    assert abs(1.0 + table.total() - reference) <= 1e-12 * abs(reference)


def test_partition_rows_match_independent_sieve():
    N, s = 2000, 2.5 + 1.5j
    expected = scalar_partition(s, N)
    table = spf_partition_sum(s, N)
    assert table.primes.tolist() == list(expected)
    for p, value in expected.items():
        assert abs(table.row(p) - value) <= 1e-13 * max(1.0, abs(value))


@pytest.mark.parametrize("N", [2, 3, 4, 49, 121, 2 * 3 * 5 * 7 * 11])
@pytest.mark.parametrize("s", [3, 2 - 5j])
def test_partition_edge_cutoffs_match_scalar_reference(N, s):
    # 2 and 3 have no base prime; at 4, 49 and 121 the largest base prime's
    # only mark is N itself; 2310 is the product of the first five primes.
    expected = scalar_partition(s, N)
    table = spf_partition_sum(s, N)
    assert table.primes.tolist() == primes_up_to(N) == list(expected)
    for p, value in expected.items():
        assert abs(table.row(p) - value) <= 1e-13 * abs(value)
        assert (table.row(p).imag == 0.0) == (complex(s).imag == 0.0)


def test_partition_past_its_memory_budget_is_refused_before_any_table(no_work):
    # The rank table grows with N (about 128 MB at 2^24), so a larger N is
    # refused before the sieve or the table starts.
    limit = methods.MAX_PARTITION_CUTOFF
    for s in (3, 2 - 5j):
        with pytest.raises(ValueError, match=f"N must be <= {limit}$"):
            spf_partition_sum(s, limit + 1)
    no_work.undo()
    assert spf_partition_sum(3, 1000).cutoff_N == 1000


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("N", [2, 3, 4, 50, 1000])
def test_partition_rows_sum_in_ascending_n_within_each_chunk(monkeypatch, chunk, N):
    # The documented order, to the bit: each chunk's terms of a row added
    # one by one from 0.0, then the chunk totals added in chunk order, so
    # rows of primes past isqrt(N) are their one term.
    monkeypatch.setattr(methods, "_CHUNK", chunk)
    s = 2 - 5j
    rows: dict[int, list[float]] = {}
    for a in range(2, N + 1, chunk):
        n = list(range(a, min(N + 1, a + chunk)))
        within: dict[int, list[float]] = {}
        for m, t in zip(n, methods._power_terms(np.array(n, dtype=np.float64), complex(s))):
            part = within.setdefault(smallest_prime_factor(m), [0.0, 0.0])
            part[0] += t.real
            part[1] += t.imag
        for p, (re, im) in within.items():
            row = rows.setdefault(p, [0.0, 0.0])
            row[0] += re
            row[1] += im
    table = spf_partition_sum(s, N)
    assert table.primes.tolist() == sorted(rows)
    for p, (re, im) in rows.items():
        assert (table.row(p).real, table.row(p).imag) == (re, im)


def test_partition_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    s, N = 2 + 3.5j, 5000
    whole = spf_partition_sum(s, N)
    monkeypatch.setattr(methods, "_CHUNK", 7)
    chunked = spf_partition_sum(s, N)
    assert chunked.primes.tolist() == whole.primes.tolist()
    for p, value in zip(whole.primes, whole.sums):
        assert abs(chunked.row(p) - value) <= 1e-13 * abs(value)


@pytest.mark.parametrize("i, s, bound", [(3, 2.5, 10**5), (20, 2 + 10j, 10**4), (5, 1.5 - 3j, 777)])
def test_smooth_sum_matches_scalar_reference(i, s, bound):
    expected = complex(0.0)
    for n in smooth_numbers(i, bound):
        expected += power_term(n, s)
    got = smooth_sum_oracle(i, s, bound)
    assert abs(got - expected) <= 1e-13 * abs(expected)
    assert (got.imag == 0.0) == (complex(s).imag == 0.0)


@pytest.mark.parametrize("i, s, bound, re, im", [
    (20, 2.5 + 3j, 10**5, "0x1.b80392403abf5p-1", "-0x1.95b455e472811p-4"),
    (3, 3.0, 10**4, "0x1.32463d29f13dap+0", "0x0.0p+0"),
    (7, 2 - 5j, 10**9, "0x1.b4c802f60012ep-1", "-0x1.985aa633b3347p-4"),
    (2, 1.5, 2**63 - 1, "0x1.ea62c71022c1cp+0", "0x0.0p+0"),
    (1, 2 + 7j, 2**63, "0x1.f1b6f75cb6061p-1", "0x1.fea37d5185a81p-3"),
])
def test_smooth_sum_bits_are_pinned(i, s, bound, re, im):
    # Exact bits over int64 smooth numbers and, at bound 2^63, over Python ints.
    got = smooth_sum_oracle(i, s, bound)
    assert (got.real.hex(), got.imag.hex()) == (re, im)


def test_partition_table_holds_two_read_only_arrays():
    N = 10**6
    primes_up_to(math.isqrt(N))  # grow the shared prime cache outside the trace
    tracemalloc.start()
    try:
        table = spf_partition_sum(3, N)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int64 primes and complex128 sums: 24 bytes a row, not a dict's ~97.
    assert held <= 32 * table.primes.size
    assert table.primes.dtype == np.int64 and table.sums.dtype == np.complex128
    assert table.primes.tolist() == primes_up_to(N)
    for array in (table.primes, table.sums):
        with pytest.raises(ValueError):
            array[0] = 0


def test_partition_row_of_a_non_prime_or_past_the_cutoff_is_zero():
    table = spf_partition_sum(2.5 + 3j, 100)
    for p in (101, 103, 4, 91, 1):
        assert table.row(p) == 0j
    assert table.row(97) == table.sums[-1] != 0j
    assert type(table.row(97)) is type(table.row(1)) is complex


@pytest.mark.parametrize("N", [2, 10**4, 10**5])
@pytest.mark.parametrize("s", [3, 2.5 + 3j])
def test_partition_total_adds_rows_left_to_right(s, N):
    # The order partition_identity's bytes rest on; a pairwise sum differs.
    table = spf_partition_sum(s, N)
    expected = 0j
    for value in table.sums.tolist():
        expected += value
    got = table.total()
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_partition_validates_cutoff():
    with pytest.raises(ValueError):
        spf_partition_sum(3, 1)


def test_crosscheck_within_stated_tails():
    spec = TruncationSpec(tolerance=1e-8)
    residual = coefficient_crosscheck(1, 3, 10**5, spec)
    assert residual <= 1e-4  # generous envelope
    assert residual <= spec.tolerance + (10**5) ** (1.0 - 3.0) / (3.0 - 1.0)

    spec4 = TruncationSpec(tolerance=1e-10)
    residual = coefficient_crosscheck(3, 4, 10**5, spec4)
    assert residual <= 1e-8


def test_crosscheck_small_cutoff_has_large_but_bounded_residual():
    spec = TruncationSpec(tolerance=1e-6)
    residual = coefficient_crosscheck(1, 2, 10, spec)
    allowed = spec.tolerance + 10 ** (1.0 - 2.0) / (2.0 - 1.0)
    assert 1e-3 < residual <= allowed


def test_crosscheck_rejects_boundary(no_work):
    spec = TruncationSpec(tolerance=1e-6)
    for s in BOUNDARY:
        with pytest.raises(NonConvergentError, match=r"^the tail product requires Re\(s\) > 1"):
            coefficient_crosscheck(1, s, 100, spec)


@pytest.mark.parametrize("s, i, N", [(3, 3, 2000), (2 + 50j, 5, 30_000), (2.5 - 7j, 7, 5000)])
def test_compare_coefficient_rows_equal_coefficient_crosscheck(s, i, N):
    spec = TruncationSpec(prime_index_i=i, dirichlet_cutoff_N=N, tolerance=1e-8)
    rows = compare(s, spec)
    assert [row[:2] for row in rows] == (
        [("smooth_vs_product", i), ("partition_identity", 0)]
        + [("coefficient_crosscheck", k) for k in range(1, min(5, i) + 1)]
    )
    for _, k, err, _ in rows[2:]:
        assert err == coefficient_crosscheck(k, s, N, spec)


def test_compare_rejects_boundary_in_the_smooth_sum():
    with pytest.raises(NonConvergentError, match="smooth-number sum"):
        compare(1, TruncationSpec(prime_index_i=3, dirichlet_cutoff_N=100))


def test_cross_method_triangle():
    from zetasum.methods import METHOD_DIRICHLET, METHOD_REFORMULATED, zeta_eval

    for s in (2, 3, 4):
        a = zeta_eval(s, METHOD_DIRICHLET, 1e-6)
        b = zeta_eval(s, METHOD_REFORMULATED, 1e-6)
        assert abs(a.value - b.value) <= a.tail_error_bound + b.tail_error_bound


def test_row_primes_are_exactly_primes_up_to_cutoff():
    table = spf_partition_sum(2, 60)
    assert table.primes.tolist() == primes_up_to(60)


def test_allowance_rounding_parts_cover_the_true_error():
    # The rounding part of every oracle-compare allowance, built from
    # methods' one rounding model, against 40-digit values of the smooth sum,
    # the i-prime product, the partition total and its p = 2 row, and the
    # Dirichlet reference.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    for _ in range(8):
        s = complex(rng.uniform(1.2, 5.0), rng.choice([0.0, rng.uniform(-1e3, 1e3)]))
        i, N = rng.randint(1, 40), rng.randint(2, 30_000)
        zeta = methods._zeta_bounds(s.real)
        product = euler_partial(i, s)
        table = spf_partition_sum(s, N)
        table_rounding = methods._power_sum_rounding(s, table.addition_depth(), zeta)
        with mpmath.workdps(40):
            z = mpmath.mpc(s)

            def exact_dirichlet(x):
                return mpmath.zeta(z) - mpmath.zeta(z, x + 1)

            cases = [
                (smooth_sum_oracle(i, s, N),
                 mpmath.fsum(mpmath.power(n, -z) for n in smooth_numbers(i, N)),
                 methods._power_sum_rounding(s, methods._pairwise_depth(N), zeta)),
                (product,
                 mpmath.fprod(1 / (1 - mpmath.power(p, -z)) for p in first_primes(i).tolist()),
                 methods._rounding_of(s, METHOD_EULER_PRODUCT, zeta)(i, abs(product))),
                (1.0 + table.total(), exact_dirichlet(N), table_rounding),
                (table.row(2), mpmath.power(2, -z) * exact_dirichlet(N // 2), table_rounding),
                (dirichlet_partial(N, s), exact_dirichlet(N),
                 methods._rounding_of(s, METHOD_DIRICHLET, zeta)(N, 0.0)),
            ]
            for computed, exact, bound in cases:
                error = float(abs(mpmath.mpc(computed) - exact))
                assert error <= bound, (s, i, N, error, bound)
