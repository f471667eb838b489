"""Prime generation, caching, and smooth numbers."""

import math
import sys
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from itertools import count, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import smallest_prime_factor
from zetasum import primes
from zetasum.primes import PrimeCache, first_primes, nth_prime, primes_up_to, smooth_numbers


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_division_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_division_is_prime(n)]


@pytest.fixture
def cache(monkeypatch):
    # A fresh cache installed as the shared one, which every helper reads.
    fresh = PrimeCache()
    monkeypatch.setattr(primes, "_default_cache", fresh)
    return fresh


def test_primes_up_to_trivial(cache):
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert primes_up_to(0) == []
    assert primes_up_to(2) == [2]


def test_primes_up_to_100_matches_trial_division(cache):
    got = primes_up_to(100)
    assert got == trial_division_primes(100)
    assert len(got) == 25
    assert got[-1] == 97


def test_primes_up_to_larger_range_matches_trial_division(cache):
    assert primes_up_to(3000) == trial_division_primes(3000)


def test_nth_prime(cache):
    assert nth_prime(1) == 2
    assert nth_prime(4) == 7
    assert nth_prime(25) == 97
    with pytest.raises(ValueError):
        nth_prime(0)


def test_nth_prime_agrees_with_primes_up_to(cache):
    listed = primes_up_to(1000)
    for k in (1, 2, 10, len(listed)):
        assert nth_prime(k) == listed[k - 1]


@given(limit=st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_primes_up_to_complete_and_sound(limit):
    got = primes_up_to(limit)
    assert got == trial_division_primes(limit)


def test_cache_grows_monotonically(cache):
    cache.extend_to(50)
    first = cache.primes.tolist()
    limit_before = cache.source_limit
    cache.extend_to(5000)
    assert cache.primes.tolist()[: len(first)] == first
    assert cache.source_limit >= 5000 > limit_before
    arr = cache.primes
    assert arr[0] == 2
    assert all(a < b for a, b in zip(arr.tolist(), arr.tolist()[1:]))


@pytest.mark.parametrize("targets", [
    [0, 2, 3, 10, 255, 257, 10_000, 100_003],
    [1, 3, 4, 127, 128, 129, 130, 4_096, 65_537],
    [100_003],
])
def test_segmented_sieve_at_its_edges(targets, monkeypatch):
    # 64 odd numbers per segment, so the targets start and end segments at
    # both parities and the largest spans hundreds of them.  _grow is driven
    # directly so that each target, not the doubling policy, ends the sieve.
    monkeypatch.setattr(primes, "_SEGMENT", 64)
    reference = trial_division_primes(max(targets))
    cache = PrimeCache()
    for target in targets:
        cache._grow(target)
        assert cache.source_limit == max(target, 1)
        assert cache.primes.tolist() == reference[: bisect_right(reference, target)]
        assert not cache.primes.flags.writeable


def grow_together(barrier, cache):
    barrier.wait(timeout=30)
    cache.extend_to(3_000_000)


def test_concurrent_growth_matches_a_single_sieve():
    # Four threads released together into one cache's growth: without the
    # lock each sieves the same range and the published array is corrupted.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):
                cache = PrimeCache()
                barrier = threading.Barrier(4)
                for future in [pool.submit(grow_together, barrier, cache) for _ in range(4)]:
                    future.result(timeout=60)
                assert (np.diff(cache.primes) > 0).all()
                fresh = PrimeCache()
                fresh.extend_to(cache.source_limit)
                assert fresh.source_limit == cache.source_limit
                assert np.array_equal(cache.primes, fresh.primes)
    finally:
        sys.setswitchinterval(previous)


def test_smallest_prime_factor(cache):
    assert smallest_prime_factor(12, cache) == 2
    assert smallest_prime_factor(35, cache) == 5
    assert smallest_prime_factor(97, cache) == 97
    for bad in (1, 0, -7):
        with pytest.raises(ValueError):
            smallest_prime_factor(bad, cache)


@given(n=st.integers(min_value=2, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_smallest_prime_factor_divides_and_is_minimal(n):
    p = smallest_prime_factor(n)
    assert n % p == 0
    assert trial_division_is_prime(p)
    for q in range(2, p):
        assert n % q != 0


def smooth_by_filtering(i: int, bound: int) -> list[int]:
    allowed = list(islice(filter(trial_division_is_prime, count(2)), i))
    out = []
    for n in range(1, bound + 1):
        m = n
        for p in allowed:
            while m % p == 0:
                m //= p
        if m == 1:
            out.append(n)
    return out


def test_smooth_numbers_examples(cache):
    assert smooth_numbers(1, 8).tolist() == [1, 2, 4, 8]
    assert smooth_numbers(2, 10).tolist() == [1, 2, 3, 4, 6, 8, 9]
    assert smooth_numbers(1, 1).tolist() == [1]


@pytest.mark.parametrize("call, message", [
    (lambda: first_primes(-1), "count must be >= 0"),
    (lambda: smooth_numbers(0, 10), "i must be >= 1"),
    (lambda: smooth_numbers(1, 0), "bound must be >= 1"),
], ids=["first_primes", "smooth_numbers_i", "smooth_numbers_bound"])
def test_counts_and_bounds_below_their_floor_are_refused(cache, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert cache.source_limit == 1  # nothing sieved


def test_smooth_numbers_read_no_prime_past_the_bound(cache):
    # The 25 primes <= 100 are all a bound of 100 admits, so a million more
    # change nothing and must not be sieved.
    assert np.array_equal(smooth_numbers(10**6, 100), smooth_numbers(25, 100))
    assert cache.source_limit <= 256


@pytest.mark.parametrize("i,bound", [(1, 300), (2, 500), (3, 500), (4, 210)])
def test_smooth_numbers_match_filtering(cache, i, bound):
    assert smooth_numbers(i, bound).tolist() == smooth_by_filtering(i, bound)


def smooth_by_products(i: int, bound: int) -> list[int]:
    # The scalar construction smooth_numbers vectorises: every number found
    # so far times p, p^2, ... while <= bound, prime by prime, in Python ints.
    values = [1]
    for p in islice(filter(trial_division_is_prime, count(2)), i):
        if p > bound:
            break
        more = []
        for v in values:
            w = v * p
            while w <= bound:
                more.append(w)
                w *= p
        values.extend(more)
    return sorted(values)


@pytest.mark.parametrize("i,bound", [(20, 10**5), (7, 10**9), (1, 2**63 - 1), (1, 2**63),
                                     (2, 10**25), (30, 97)])
def test_smooth_numbers_match_the_scalar_products(cache, i, bound):
    # Past int64 (2^63 and up) the array holds Python ints; the list is the same.
    got = smooth_numbers(i, bound)
    assert got.dtype == (np.int64 if bound <= 2**63 - 1 else object)
    assert got.tolist() == smooth_by_products(i, bound)
    assert {type(n) for n in got.tolist()} == {int}


def test_smooth_numbers_membership_follows_spf_chain(cache):
    bound, i = 400, 3
    p_i = nth_prime(i)
    members = set(smooth_numbers(i, bound).tolist())
    for n in range(1, bound + 1):
        m = n
        while m > 1:
            p = smallest_prime_factor(m, cache)
            if p > p_i:
                break
            m //= p
        assert (n in members) == (m == 1)


def test_default_cache_in_memory_without_env(monkeypatch, tmp_path):
    # The shared cache never reads or writes a file: a ZETA_PRIME_CACHE
    # setting left over from older versions, even one naming a gapped list,
    # changes nothing.
    stale = tmp_path / "stale.txt"
    stale.write_text("2\n3\n7\n11\n")
    monkeypatch.setenv("ZETA_PRIME_CACHE", str(stale))
    before = primes.default_cache()
    assert isinstance(before, PrimeCache)
    primes.reset_default_cache()
    try:
        assert primes.default_cache() is not before
        assert len(primes.default_cache()) == 0
        assert primes_up_to(12) == [2, 3, 5, 7, 11]
        assert stale.read_text() == "2\n3\n7\n11\n"
    finally:
        primes.reset_default_cache()


@pytest.mark.parametrize("helper, reach", [
    (lambda: first_primes(100), 541),
    (lambda: primes_up_to(1000), 1000),
    (lambda: nth_prime(100), 541),
    (lambda: smooth_numbers(100, 10**4), 541),
], ids=["first_primes", "primes_up_to", "nth_prime", "smooth_numbers"])
def test_each_helper_reads_and_grows_the_installed_cache(monkeypatch, helper, reach):
    # The helpers look the shared cache up at every call: each sieves into
    # whichever cache is installed then, and leaves the one before it alone.
    first, second = PrimeCache(), PrimeCache()
    monkeypatch.setattr(primes, "_default_cache", first)
    expected = helper()
    grown = (len(first), first.source_limit)
    assert first.source_limit >= reach
    monkeypatch.setattr(primes, "_default_cache", second)
    assert np.array_equal(helper(), expected)
    assert (len(second), second.source_limit) == grown
    assert (len(first), first.source_limit) == grown


def test_count_estimate_reaches_the_nth_prime():
    # extend_to_count sieves once only if its target for `count`,
    # prime_ceiling(count) + 16, is at least p_count: p_n itself below 20,
    # n(ln n + ln ln n - 1/2) below 39017 and Dusart's sharper
    # n(ln n + ln ln n - 0.9484) from 39017 on.
    sieved = PrimeCache()
    sieved.extend_to_count(1 << 20)
    counts = sorted({*range(6, (1 << 20) + 1, 7), 39016, 39017, 1 << 20})
    limits = np.array([int(primes.prime_ceiling(c)) + 16 for c in counts])
    assert (limits >= sieved.primes[np.array(counts) - 1]).all()
    # p_{2^24} = 310,248,241: the target overshoots it by under 0.04%.
    assert 310_248_241 <= int(primes.prime_ceiling(1 << 24)) + 16 <= 310_248_241 * 1.0004
