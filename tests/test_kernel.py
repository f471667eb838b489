"""The singular lattice and `kernel`'s errors, the membership test that
asks the folds' own singular rule (`methods.in_exclusion_set`), and the
scalar reference powers and reciprocal factors (`scalar_reference`) that the
library's vectorised powers are checked against."""

import csv
import io
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalar_reference import euler_factor, power_term, prime_power_term
from zetasum import cli, kernel, methods
from zetasum.kernel import (
    DEFAULT_SINGULAR_TOL,
    PowerOverflowError,
    SingularPointError,
    explicit_exclusion_point,
    explicit_exclusion_points,
    singular_point,
)
from zetasum.methods import euler_partial, in_exclusion_set
from zetasum.primes import first_primes

SMALL_PRIMES = first_primes(50).tolist()


def test_power_term_trivial_values():
    assert prime_power_term(2, 1) == 0.5
    assert prime_power_term(2, 0) == 1.0
    expected = float(Fraction(1, 9))
    got = prime_power_term(3, 2)
    assert got.imag == 0.0
    assert abs(got.real - expected) <= 1e-15 * expected


def test_power_term_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_power_term(1, 2)
    with pytest.raises(ValueError):
        power_term(0, 2)
    with pytest.raises(ValueError):
        power_term(2, complex(float("nan"), 0))
    with pytest.raises(ValueError):
        power_term(2, complex(0, float("inf")))


def test_power_term_overflow_signals_with_prime():
    with pytest.raises(PowerOverflowError) as info:
        prime_power_term(99991, -80)
    assert info.value.prime == 99991


@given(
    p=st.sampled_from(SMALL_PRIMES),
    re=st.floats(min_value=-80, max_value=80),
    im=st.floats(min_value=-50, max_value=50),
)
@settings(max_examples=200)
def test_power_term_magnitude_is_real_power(p, re, im):
    if abs(re) * math.log(p) > 700:
        return
    got = prime_power_term(p, complex(re, im))
    expected = p ** -re
    assert abs(abs(got) - expected) <= 1e-14 * expected


@given(
    p=st.sampled_from(SMALL_PRIMES),
    re=st.floats(min_value=-20, max_value=20),
    im=st.floats(min_value=-100, max_value=100),
)
@settings(max_examples=200)
def test_power_term_conjugate_symmetry(p, re, im):
    s = complex(re, im)
    assert prime_power_term(p, s.conjugate()) == prime_power_term(p, s).conjugate()


def test_euler_factor_values():
    assert euler_factor(2, 1) == 2.0
    expected = float(Fraction(8, 7))
    got = euler_factor(2, 3)
    assert abs(got - expected) <= 1e-15 * expected


def test_euler_factor_singular_at_zero():
    with pytest.raises(SingularPointError) as info:
        euler_factor(2, 0)
    assert info.value.prime == 2
    assert info.value.gap == 0.0


def test_euler_factor_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        euler_factor(2, 3, tol=0.0)


@given(
    p=st.sampled_from(SMALL_PRIMES),
    re=st.floats(min_value=-3, max_value=5),
    im=st.floats(min_value=-20, max_value=20),
)
@settings(max_examples=200)
def test_euler_factor_inverts_one_minus_term(p, re, im):
    s = complex(re, im)
    try:
        f = euler_factor(p, s)
    except SingularPointError:
        return
    t = prime_power_term(p, s)
    assert abs(f * (1.0 - t) - 1.0) <= 1e-13


def test_in_exclusion_set_witness_examples():
    w = in_exclusion_set(0, 1)
    assert w is not None and (w.prime, w.k) == (2, 0) and w.distance == 0.0

    s = singular_point(2, 1)
    w = in_exclusion_set(s, 1)
    assert w is not None and (w.prime, w.k) == (2, 1)
    # direct evaluation confirms the factor really is singular there
    assert abs(prime_power_term(2, s) - 1.0) < DEFAULT_SINGULAR_TOL

    assert in_exclusion_set(2, 5) is None


def test_in_exclusion_set_full_lattice():
    for j in range(1, 11):
        p = SMALL_PRIMES[j - 1]
        for k in range(-100, 101):
            w = in_exclusion_set(singular_point(p, k), j)
            assert w is not None
            assert w.distance <= DEFAULT_SINGULAR_TOL


@given(
    re=st.floats(min_value=-5, max_value=5),
    im=st.floats(min_value=-50, max_value=50),
)
@example(re=2.0 * DEFAULT_SINGULAR_TOL, im=2.0 * math.pi / math.log(2))
@example(re=-2.0 * DEFAULT_SINGULAR_TOL, im=0.0)
@example(re=2.0 * DEFAULT_SINGULAR_TOL, im=-100.0 * math.pi / math.log(3))
@settings(max_examples=100)
def test_in_exclusion_set_none_off_axis(re, im):
    # Every gap |1 - p^{-s}| is at least 1 - 2^{-2*tol}, about 1.386*tol,
    # once |Re s| >= 2*tol.
    if abs(re) < 2.0 * DEFAULT_SINGULAR_TOL:
        return
    assert in_exclusion_set(complex(re, im), 10) is None


def _refused_prime(i, s):
    """The prime at which `euler_partial`(i, s) refuses a factor, or None."""
    try:
        euler_partial(i, s)
    except SingularPointError as exc:
        return exc.prime
    return None


# A rectangle test (|Re s| <= tol and Im s within tol/ln p of the lattice)
# answers these four the other way.  The first two lie outside the rectangles
# but inside the disc |s - s_k| < tol/ln p around a lattice point of 2, where
# the fold refuses; the last two lie inside a rectangle but outside its disc.
NAMED_NEAR_LATTICE = {
    "past_the_rectangle_of_2": (1.2e-9, 2, True),
    "past_the_rectangle_of_2_left": (-1.2e-9, 2, True),
    "in_the_rectangle_of_3": (complex(9.5e-10, 2.0 * math.pi / math.log(3)), 2, False),
    "in_the_corner_of_2": (complex(9e-10, 2.0 * math.pi / math.log(2) + 9e-10 / math.log(2)),
                           1, False),
}


@pytest.mark.parametrize("name", sorted(NAMED_NEAR_LATTICE))
def test_in_exclusion_set_named_points(name):
    s, i, member = NAMED_NEAR_LATTICE[name]
    assert (_refused_prime(i, s) is not None) is member
    assert (in_exclusion_set(s, i) is not None) is member


def test_in_exclusion_set_agrees_with_the_fold():
    # 3,000 points within 3*tol in Re and 3*tol/ln p in Im of singular_point(p, k),
    # p among the first 10 primes and k in -50..50, tested over the first i
    # primes, i from p's index to 10.  The folds refuse at about 150 of them.
    tol = DEFAULT_SINGULAR_TOL
    rng = random.Random(20261020)
    refused = 0
    for _ in range(3000):
        j = rng.randint(1, 10)
        p, i = SMALL_PRIMES[j - 1], rng.randint(j, 10)
        s = singular_point(p, rng.randint(-50, 50)) + complex(
            rng.uniform(-3.0, 3.0) * tol, rng.uniform(-3.0, 3.0) * tol / math.log(p))
        prime = _refused_prime(i, s)
        refused += prime is not None
        # A member exactly where the fold refuses, witnessed by its prime.
        w = in_exclusion_set(s, i)
        assert (None if w is None else w.prime) == prime, (s, i)
    assert 100 < refused < 200


def test_in_exclusion_set_names_the_same_witness_in_blocks_of_any_size(monkeypatch):
    # The scan reads its primes `_CHUNK` at a time.  Blocks of 3 primes name
    # the witness one block names, ties included: at s = 0 every gap is 0,
    # and the smallest prime wins.
    rng = random.Random(28)
    points = [(0j, 10, DEFAULT_SINGULAR_TOL), (1e-10 + 5j, 10, 0.5)]
    for _ in range(300):
        j = rng.randint(1, 10)
        s = singular_point(SMALL_PRIMES[j - 1], rng.randint(-50, 50)) + complex(
            rng.uniform(-3.0, 3.0) * 1e-9, rng.uniform(-3.0, 3.0) * 1e-9)
        points.append((s, rng.randint(j, 10), rng.choice((1e-9, 1e-3))))
    expected = [in_exclusion_set(*point) for point in points]
    assert expected[0].prime == 2 and sum(w is not None for w in expected) > 50
    monkeypatch.setattr(methods, "_CHUNK", 3)
    assert [in_exclusion_set(*point) for point in points] == expected


def test_in_exclusion_set_memory_does_not_grow_with_the_number_of_primes():
    # Near Re s = 0 every gap is scanned, one block at a time, through this
    # thread's rows: eight blocks peak far below one row's 1 MiB.
    chunk = methods._CHUNK
    first_primes(8 * chunk)
    in_exclusion_set(1e-10 + 5j, chunk)
    tracemalloc.start()
    try:
        in_exclusion_set(1e-10 + 5j, 8 * chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_in_exclusion_set_covers_every_singular_row_of_the_report(capsys):
    assert cli.main(["exclusion", "--i", "10", "--k-range", "-50..50"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    singular = [row for row in rows if row["singular"] == "true"]
    assert len(singular) == len(rows) == 10 * 101
    for row in singular:
        w = in_exclusion_set(complex(float(row["s_re"]), float(row["s_im"])), 10)
        assert w is not None, row


def test_in_exclusion_set_phase_overflow_is_the_folds():
    # 7 is the first of the first 10 primes whose phase 1e308*ln p passes
    # the double range.
    s = complex(0.0, 1e308)
    with pytest.raises(PowerOverflowError) as fold:
        euler_partial(10, s)
    with pytest.raises(PowerOverflowError) as member:
        in_exclusion_set(s, 10)
    assert member.value.prime == fold.value.prime == 7
    assert str(member.value) == str(fold.value)


def test_witness_distance_within_tolerance_for_inscribed_points():
    tol = 1e-9
    for p in (2, 3, 5):
        ln_p = math.log(p)
        base = singular_point(p, 3)
        s = complex(0.5 * tol, base.imag + 0.3 * tol / ln_p)
        w = in_exclusion_set(s, 3, tol)
        assert w is not None
        assert w.distance <= tol * math.sqrt(1.0 + 1.0 / ln_p**2)


def test_in_exclusion_set_validates_arguments():
    with pytest.raises(ValueError):
        in_exclusion_set(0, 0)
    with pytest.raises(ValueError):
        in_exclusion_set(0, 1, tol=-1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: singular_point(1, 0), "p must be >= 2"),
    (lambda: explicit_exclusion_point(1, 0), "p must be >= 2"),
    (lambda: explicit_exclusion_points(0, range(1)), "i must be >= 1"),
], ids=["singular_point", "explicit_exclusion_point", "explicit_exclusion_points"])
def test_lattice_fixtures_validate_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_explicit_exclusion_points_examples():
    pts = explicit_exclusion_points(1, range(0, 1))
    assert pts == [complex(0.0, math.pi / math.log(2))]
    pts = explicit_exclusion_points(1, range(-1, 0))
    assert pts == [complex(0.0, -math.pi / math.log(2))]


def test_explicit_point_is_not_singular():
    s = explicit_exclusion_point(2, 0)
    t = prime_power_term(2, s)
    assert abs(t + 1.0) <= 1e-12
    assert abs(1.0 - t) > 1.0  # far from the singular condition
    assert euler_factor(2, s) is not None  # does not raise


def test_explicit_points_hit_minus_one_across_grid():
    for j in range(1, 11):
        p = SMALL_PRIMES[j - 1]
        for k in range(-10, 11):
            s = explicit_exclusion_point(p, k)
            assert abs(prime_power_term(p, s) + 1.0) <= 1e-12


def test_explicit_points_ordering_and_count():
    pts = explicit_exclusion_points(3, range(-2, 3))
    assert len(pts) == 15
    regenerated = [
        explicit_exclusion_point(p, k)
        for p in (2, 3, 5)
        for k in range(-2, 3)
    ]
    assert pts == regenerated


def test_as_complex_passthrough():
    assert kernel.as_complex(2) == complex(2.0, 0.0)
    assert kernel.as_complex(1.5 - 2j) == 1.5 - 2j
