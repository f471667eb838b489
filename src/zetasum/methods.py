"""Finite Euler products over primes, the equivalent prime-indexed sums,
plain Dirichlet partial sums, and certified evaluation of zeta(s) for
Re(s) > 1.

One vectorised n^{-s} (`_power_terms`) serves every route.  Over primes,
one block iterator (`_blocks`) yields p, t = p^{-s} and f = 1/(1 - t) chunk
by chunk, with the overflow and singular-point checks, and one fold
(`_fold`) consumes it: it multiplies the factors into the running product,
folds the prime-indexed sum forward by the paper's induction step
S_{i+1} = f_{i+1}*(t_{i+1} + S_i), or both in one pass, as `_identity`
asks.  `oracle`'s sums and coefficient checks and the `exclusion` report
take their powers from `_power_terms` too, the last two one power at a
time; the library has no other n^{-s}.  Every fold works in cache-sized
blocks of `_CHUNK` terms, so its memory does not grow with the number of
terms.  The prime blocks, `in_exclusion_set`'s scan and `oracle`'s
partition chunks are computed in place, in one workspace per thread
(`_rows`): four complex rows that grow to the largest block the thread has
folded, so a warm fold allocates no block memory and takes no page faults.

`_power_terms` checks finiteness in O(1).  With Re z >= 0 every |n^{-z}|
is at most 1, and with |Im z|*ln n_max below 1e308 (room for the ulp by
which `np.log` may differ from `math.log`) every phase is finite, so every
power is.  Only an input that fails this rule has its powers scanned, for
the first n whose power is not finite.  It enters `np.errstate` only where
a flag can arise, and none can where also Re z*ln n_max <= 600 and
neither Re z nor |Im z| lies in (0, 1e-40).  Then each part of -z*ln n is
0 or at least 6.9e-41 in modulus, and each part of exp(-z*ln n) is 0 or
at least e^-600*5.8e-41: |sin y| >= 0.84|y| for |y| <= 1, and no double
lies nearer a nonzero multiple of pi/2 than about 4e-19, the worst case of
argument reduction.  So nothing overflows or underflows.  A sum of powers
needs no `np.errstate` either: an addition whose result is that small is
exact, so none underflows.  `_fold`, and `induction_step_check` for the
block it reads itself, enter `np.errstate(all="ignore")` once per call,
around all their blocks: at large Re s a factor's imaginary part can be so
small that the division and the products underflow in it, and at Re s <= 1
a fold can overflow, which `_checked_fold` then locates.  No result
depends on the caller's floating-point error state.

The Dirichlet sum D(x) = sum_{n <= x} n^{-s} uses the first Euler factor
as a finite identity: every even n <= x is 2m with m <= floor(x/2), so
D(x) = 2^{-s}*D(floor(x/2)) + O(x) with O(x) the odd-n part.  One fold from
0 up the cuts x = N >> k evaluates only the odd powers and returns D at
every cut (`_dirichlet_fold`).  The lowest cuts' odd powers and 2^{-s} come
from one call, the head batch of at most one block, so a request's fixed
cost is paid once, not once per cut.

Each certified request computes what depends on s and the method alone
once: `_zeta_bounds`, the constants of the closed form for rounding
(`_rounding_of`) and, for a product, those of the tail (`_log_tail_of`).
`_walk_to_feasible` then evaluates them at the doubling counts from the
first that a closed-form lower bound on the truncation does not rule out
(`_last_ruled_out`).  At complex s a product request also takes the first
eight Euler factors in scalar arithmetic, for a floor and a ceiling on the
modulus of every later value (`_head_range`).  With Re(s) > 1 no factor
1 - p^{-s} can come near 0, so `_blocks` skips its singular-point scan.
That scan is the library's one singular rule: `in_exclusion_set` asks it
too, so s is a member exactly where a fold refuses a factor.

The two product methods and the tail products share one driver
(`_trace`), and every request takes it in one shape: from one prime, with
one prime window per step, and with every step that falls short resuming
the feasibility walk.  Each step folds its new primes into a running
product or sum, records the value at the count reached together with an
honest upper bound on its distance to the limit, and stops once that
bound drops below the requested tolerance.  A Dirichlet request needs none
of the driver's state: its bound does not depend on the value, so it is
the feasibility walk and one `_dirichlet_fold` (`_checked_trace`).
`convergence_trace` records every doubling count; `zeta_eval` and
`correction_coefficient` fold to a count within 1/32 of the first that
certifies, found by bisecting a closed form between two doubling counts
(`_first_certifying`), so their terms_used is at most `convergence_trace`'s
last and their values differ from its in the last digits.  Every bound is
truncation plus rounding.  The product tail is a sum over primes only,
bounded by partial summation against Rosser & Schoenfeld's bounds on
Chebyshev's theta(x), and at complex s by a phase form that sees the
cancellation between the p^{-s} (`_log_tail_of`).  The Dirichlet tail is
the smaller of the integral bound and a second-order Euler-Maclaurin bound
(`_dirichlet_tail_of`).  Rounding is one closed form per step
(`_rounding_of`): the error of each power, mostly in its phase, plus the
roundings a term meets on its way through the fold.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import primes
from .kernel import (
    DEFAULT_SINGULAR_TOL,
    ExclusionWitness,
    PowerOverflowError,
    SingularPointError,
    as_complex,
)

METHOD_DIRICHLET = "dirichlet"
METHOD_EULER_PRODUCT = "euler_product"
METHOD_REFORMULATED = "reformulated"
METHODS = (METHOD_DIRICHLET, METHOD_EULER_PRODUCT, METHOD_REFORMULATED)

# Certified runs refuse to grow past these; the honest cost of tighter
# requests (especially with Re(s) barely above 1) explodes without bound.
MAX_PRIME_LIMIT = 1 << 30
MAX_DIRICHLET_TERMS = 1 << 30

# `oracle.spf_partition_sum` holds a rank table of N + 1 int32 entries and
# pi(N) rows, so its memory grows with N where the Dirichlet folds do not:
# `oracle-compare --s 3 --N N` peaked at 38.7 MB and 0.27 s for N = 2^20,
# and 127.8 MB and 0.9 s for N = 2^24 (one child, 2-core x86), about 6 MB
# per 2^20 more, so 2^30 would take about 6 GB.  Cutoffs past 2^24 are refused.
MAX_PARTITION_CUTOFF = 1 << 24

# Terms per block in every vectorised fold, and integers per block in
# `oracle`'s partition.  A block of 2^16 primes keeps its powers and factors
# in 2 MiB, about one core's L2 cache.  They live in the thread's rows
# (`_rows`), which are live only inside one `_blocks`/`_fold` pass, one
# `in_exclusion_set` scan or one partition chunk; a thread that has folded
# a full block keeps its four rows, 4 MiB, and a fold of any number of
# primes allocates nothing more per block.  Folding 2^20 primes at
# s = 2+10i, fastest of 8 in-process runs on a 2-core Xeon with 2 MiB of L2
# per core, for blocks of 2^14 .. 2^20:
#   product         57  60  60  61  54  73  76 ms
#   sum             64  60  57  66  70  96  99 ms
#   dirichlet_partial(2^21)
#                   42  43  43  35  51  54  49 ms
# Blocks of 2^14 to 2^17 are about equally fast and larger ones slower;
# 2^16 sits in that range.  Its pairwise sums are also shallower, so the
# rounding model charges fewer roundings than at 2^20 (`_pairwise_depth`).
# The cost: a fold over more blocks carries its running value across more
# of them, one rounding each, which `_rounding_of` charges per block.  It
# shows where the finite identity already loses digits: at i = 10^5,
# s = 0.511591-4.12509i (|product| about 1e7), `identity_residual`
# relative to the product rises from 7.85e-10 to 1.81e-9.  Every other
# crosscheck identity point of bench seeds 1-200 stays within 0.46*i*eps
# at both sizes.
_CHUNK = 1 << 16

_local = threading.local()


def _rows(m: int) -> list[np.ndarray]:
    """This thread's block workspace: four complex rows of at least m
    entries, then their float64 views, each twice as long.

    The rows are made on a thread's first block and grow to the largest
    block it has asked for, so repeated folds allocate no block memory and
    take no page faults, and threads never share a row.  A row is live only
    inside one `_blocks`/`_fold` pass, one `in_exclusion_set` scan or one
    `oracle` partition chunk, none of which runs inside another on one
    thread."""
    rows = getattr(_local, "rows", None)
    if rows is None or len(rows[0]) < m:
        rows = [np.empty(m, dtype=complex) for _ in range(4)]
        rows += [row.view(np.float64) for row in rows]
        _local.rows = rows
    return rows


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("tolerance must be a finite value > 0")


class NonConvergentError(ValueError):
    """The requested limit does not exist for Re(s) <= 1."""

    def __init__(self, what: str, s: complex):
        self.s = complex(s)
        super().__init__(f"{what} requires Re(s) > 1, got Re(s) = {self.s.real}")


@dataclass(frozen=True)
class TruncationSpec:
    """How far finite computations may run and how tight their tails must be.

    Sizes stop at their limits: a prime index whose `prime_ceiling` passes
    MAX_PRIME_LIMIT, or a cutoff below 2 or past MAX_PARTITION_CUTOFF (the
    cutoff sizes `oracle.compare`'s partition table over [2, N]), is refused
    before any sieve or table is built."""

    prime_index_i: int = 20
    dirichlet_cutoff_N: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.prime_index_i < 1:
            raise ValueError("prime_index_i must be >= 1")
        if primes.prime_ceiling(self.prime_index_i) > MAX_PRIME_LIMIT:
            raise ValueError(f"prime_index_i = {self.prime_index_i} may need a sieve past "
                             f"the limit {MAX_PRIME_LIMIT}")
        if self.dirichlet_cutoff_N < 2:
            raise ValueError("dirichlet_cutoff_N must be >= 2")
        if self.dirichlet_cutoff_N > MAX_PARTITION_CUTOFF:
            raise ValueError(f"dirichlet_cutoff_N must be <= {MAX_PARTITION_CUTOFF}")
        _check_tolerance(self.tolerance)


@dataclass(frozen=True)
class EvaluationResult:
    """A computed value, the method that produced it, the truncation spent,
    and a certified upper bound on the distance to the method's limit."""

    value: complex
    method: str
    terms_used: int
    tail_error_bound: float


# ----------------------------------------------------------------------
# vectorised powers, the prime block iterator and its fold

def _power_terms(n, z: complex, out=None) -> np.ndarray:
    """n^{-z} for every n in a nonempty int64 or float64 array (or list) of
    positive integers whose largest is its first or last entry, checked
    finite, and computed without `np.errstate` where no flag can arise
    (module docstring).

    `out`, if given, is this thread's `_rows`: the powers go into row 0,
    as its float64 view for real z, and for complex z the logs into row 3's
    float64 view."""
    top = math.log(max(n[0], n[-1]))
    finite = z.real >= 0.0 and abs(z.imag) * top < 1e308
    tiny = 0.0 < z.real < 1e-40 or 0.0 < abs(z.imag) < 1e-40
    real, powers, logs = z.imag == 0.0, None, None
    if out is not None:
        powers, logs = out[4 if real else 0][: len(n)], out[7][: len(n)]
    # Outputs go by position: a ufunc parses an `out=` keyword more slowly.
    if finite and z.real * top <= 600.0 and not tiny:
        if real:
            return np.power(n, -z.real, powers)
        return np.exp(np.multiply(-z, np.log(n, logs), powers), powers)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = np.power(n, -z.real, powers) if real else np.exp(
            np.multiply(-z, np.log(n, logs), powers), powers)
    if not finite and not np.isfinite(t).all():
        bad = np.flatnonzero(~np.isfinite(t))
        raise PowerOverflowError(int(n[bad[0]]), z)
    return t


def _clear_of_singular(sigma: float, tol: float) -> bool:
    """True when Re(z) = sigma puts every computed |1 - p^{-z}| at or above
    tol, so no prime needs scanning.

    Whatever the prime, |1 - t| >= 1 - |t| = 1 - p^{-sigma} >= 1 - 2^{-sigma}
    for sigma > 0, and |1 - t| >= |t| - 1 >= 2^{|sigma|} - 1 >= 1 - 2^{-|sigma|}
    for sigma < 0.  The computed t has modulus within a few u of p^{-sigma}
    relative (the real part of -z*ln p, and exp, each round by about u), and
    1 - t and its modulus round by about u more, so the computed gap is at
    least 1 - 2^{-|sigma|} - 1e-15.  This holds when 1 - 2^{-|sigma|} >=
    2*tol: the computed gap is then at least 2*tol - 1e-15, which is tol or
    more for every tol from 1e-15 on.  (Below that no computed gap can
    resolve the test, and the answer is the exact one.)
    """
    return 1.0 - 2.0 ** -abs(sigma) >= 2.0 * tol


def _least_gap(p: np.ndarray, d: np.ndarray, out: np.ndarray) -> tuple[int, float]:
    """The prime of least |d| = |1 - p^{-z}| among `p` and that gap, with
    the gaps written into the float64 row `out`; ties go to the smallest
    prime, as `np.argmin` gives."""
    gap = np.abs(d, out)
    worst = int(np.argmin(gap))
    return int(p[worst]), float(gap[worst])


def _blocks(p_all: np.ndarray, z: complex):
    """Yield (p, t, f) with t = p^{-z} and f = 1/(1 - t) over p_all,
    ascending, in chunks of at most _CHUNK primes.

    A block raises `SingularPointError` at its prime of least |1 - t| when
    that gap is below DEFAULT_SINGULAR_TOL.  The scan is skipped when
    `_clear_of_singular` finds no gap can be, as for every certified request
    (Re z > 1, which is asked first).  `in_exclusion_set` asks the same test.
    """
    scan = z.real <= 1.0 and not _clear_of_singular(z.real, DEFAULT_SINGULAR_TOL)
    rows = _rows(min(len(p_all), _CHUNK))
    # t in row 0 (`_power_terms`), 1 - t and then f in row 1, the gaps in
    # row 2's float64 view; row 1 is a float64 view too for real z.
    factors = rows[5] if z.imag == 0.0 else rows[1]
    for a in range(0, len(p_all), _CHUNK):
        p = p_all[a : a + _CHUNK]
        t = _power_terms(p, z, rows)
        d = np.subtract(1.0, t, factors[: len(p)])
        if scan:
            prime, gap = _least_gap(p, d, rows[6][: len(p)])
            if gap < DEFAULT_SINGULAR_TOL:
                raise SingularPointError(prime, z, gap)
        yield p, t, np.divide(1.0, d, d)


def in_exclusion_set(s, i: int, tol: float = DEFAULT_SINGULAR_TOL) -> ExclusionWitness | None:
    """The singular point of the prime among the first i whose factor the
    folds refuse, or None.

    The test is `_blocks`' own: the first i primes' |1 - p^{-s}|, scanned
    in blocks of `_CHUNK` through this thread's rows, and the prime of
    least gap when that gap is below tol (ties go to the smallest prime).
    Its witness is the lattice point k = round(Im(s)*ln p/(2*pi)) of that
    prime, at Euclidean distance from s.
    With tol = DEFAULT_SINGULAR_TOL, s is a member exactly when
    `euler_partial`(i, s) raises `SingularPointError`.  An s where
    `_clear_of_singular` holds, as from |Re s| of about 2.9*tol on for small
    tol, is answered None in O(1): every gap is at least 1 - 2^{-|Re s|}.
    A phase past the double range (|Im s| near 1e308) raises the
    `PowerOverflowError` the folds raise.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    z = as_complex(s)
    if _clear_of_singular(z.real, tol):
        return None
    p_all, rows = primes.first_primes(i), _rows(min(i, _CHUNK))
    factors = rows[5] if z.imag == 0.0 else rows[1]  # as in `_blocks`
    prime, gap = 0, math.inf
    for p in (p_all[a : a + _CHUNK] for a in range(0, i, _CHUNK)):
        d = np.subtract(1.0, _power_terms(p, z, rows), factors[: len(p)])
        least = _least_gap(p, d, rows[6][: len(p)])
        if least[1] < gap:  # ties go to the earlier block
            prime, gap = least
    if not gap < tol:
        return None
    ln_p = math.log(prime)
    k = round(z.imag * ln_p / math.tau)
    return ExclusionWitness(prime, k, math.hypot(z.real, z.imag - math.tau * k / ln_p))


def _checked_fold(folded: complex, p: np.ndarray, carry: complex, f: np.ndarray,
                  z: complex, name: str) -> complex:
    """`folded` if finite; else raise `PowerOverflowError` at the first p where
    carry*f[0]*...*f[k], multiplied in that order, is not finite (the block's
    last prime if none is).  `_fold`'s one overflow locator: its message
    names the carry that left the range, `name`, not p^(-s).  It runs inside
    `_fold`'s `np.errstate`."""
    if math.isfinite(folded.real) and math.isfinite(folded.imag):
        return folded
    running = np.cumprod(np.concatenate(([carry], f)))[1:]
    bad = np.flatnonzero(~np.isfinite(running))
    at = int(p[bad[0]]) if bad.size else int(p[-1])
    error = PowerOverflowError(at, z)
    error.args = (f"{name} at prime {at} exceeds the double-precision range at s = {z}",)
    raise error


@np.errstate(all="ignore")
def _fold(blocks, z: complex, product: complex | None = None,
          total: complex | None = None) -> tuple[complex | None, complex | None]:
    """Fold the blocks into the running Euler `product`, the prime-indexed
    sum `total`, or both; a carry left None is not folded.

    The product takes each block's product of factors.  The sum takes the
    induction step S_{i+1} = f_{i+1}*(t_{i+1} + S_i), applied to a whole
    block at once: S <- (product of the block's f)*S + sum of t times the
    block's suffix products of f.  A term t*suffix that is not finite leaves
    S not finite, and `_checked_fold` names the prime-indexed sum, at the
    first prime where the carry 1 + S times the factors leaves the range,
    else at the block's last prime.  The terms can leave the range where
    the product does not: at s = 2i, `euler_partial`(1547) is about 5e225
    in modulus, and `reform_partial`(1547) raises at prime 12983.

    Folding both computes each power once and gives each carry the bits
    that folding it alone gives.  The product's errors and the blocks' are
    raised at once.  A failure of the sum is raised at once when the sum is
    folded alone, else only after the product has run over every block, so
    the pair fails as the two separate folds do, the product's first.
    Callers pass the carries by position: `np.errstate`'s wrapper forwards
    keywords as **kwargs, which costs a small fold about 4% more.
    """
    failed = None
    for p, t, f in blocks:
        if product is not None:
            product = _checked_fold(product * complex(np.multiply.reduce(f)), p, product, f, z,
                                    "the running Euler product")
        if total is not None:
            m = len(f)
            rows = _rows(m)
            # Complex even for real s: numpy sums complex arrays in another
            # order than real ones, and the real-s reports follow the former.
            # The factors go reversed into row 3, as complex: accumulate
            # would cast real ones into a new array.  The suffix products
            # stay reversed in row 2, and t*suffix goes into row 3, not over
            # t: numpy multiplies complex arrays by other loops, with other
            # bits, when they are laid out otherwise.
            np.copyto(rows[3][:m], f[::-1])
            suffix = np.multiply.accumulate(rows[3][:m], out=rows[2][:m])[::-1]
            terms = np.multiply(t, suffix, rows[3][:m])
            try:
                total = _checked_fold(complex(suffix[0]) * total + complex(terms.sum()),
                                      p, 1.0 + total, f, z, "the prime-indexed sum")
            except PowerOverflowError as error:
                if product is None:
                    raise
                failed, total = error, None
    if failed is not None:
        raise failed
    return product, total


def _dirichlet_fold(N: int, z: complex) -> list[complex]:
    """D(c), the sum of n^{-z} over n <= c, at every cut c = N >> k, in
    ascending order, from one fold from 0.

    With O(c) the odd-n part, D(c) = 2^{-z}*D(c >> 1) + O(c), so only the odd
    powers are evaluated: each cut adds the odd n in (c >> 1, c] to O.  A cut
    whose odd n fit in the head batch, one `_power_terms` call of at most
    `_CHUNK` terms (2^{-z}, then the odd powers of the lowest cuts), sums its
    own slice of it, the terms its own call would have summed, in the same
    pairwise order (a slice of at most three in plain Python, in numpy's own
    order for so few), so batching changes no bit.  A fold to at most
    2*`_CHUNK` - 2 makes that one call however many cuts it walks.  A larger
    cut takes its odd powers `_CHUNK` at a time, in windows aligned to the cut.
    """
    cuts = [N >> k for k in range(N.bit_length() - 1, -1, -1)]
    # Slot 0 of the head holds 2^{-z}, slot j the j-th odd n, so the odd
    # n <= c, (c + 1) // 2 of them, end at slot (c + 1) // 2, where the next
    # cut's begin.  The head ends at the largest cut N >> k <= 2*_CHUNK - 2.
    # For N = 1, which has no even n, slot 0 holds 1^{-z}, only ever times
    # D(0) = 0.
    n = np.arange(-1, (N >> (N // (2 * _CHUNK - 1)).bit_length()) + 1, 2, dtype=np.float64)
    n[0] = min(N, 2)
    t = _power_terms(n, z)
    two, total, odd, values, lo = complex(t[0]), 0j, 0j, [], 1
    for c in cuts:
        hi = 1 + (c + 1) // 2
        if hi <= _CHUNK:
            w, lo = t[lo:hi], hi
            if w.size > 3:
                odd += complex(w.sum())
            elif w.size:
                # numpy sums fewer than four values in order: the same bits.
                odd += functools.reduce(operator.add, w.tolist())
        else:
            # Hold one block at a time: drop the head before the windows.
            n = t = w = None
            for a in range(((c >> 1) + 1) | 1, c + 1, 2 * _CHUNK):
                n = np.arange(a, min(c + 1, a + 2 * _CHUNK), 2, dtype=np.float64)
                odd += complex(_power_terms(n, z).sum())
        total = two * total + odd
        values.append(total)
    return values


# ----------------------------------------------------------------------
# the finite objects

def euler_partial(i: int, s) -> complex:
    """Product of 1/(1 - p^{-s}) over the first i primes; 1 for i = 0."""
    if i < 0:
        raise ValueError("i must be >= 0")
    z = as_complex(s)
    return _fold(_blocks(primes.first_primes(i), z), z, 1 + 0j)[0]


def reform_partial(i: int, s) -> complex:
    """Sum over k <= i of p_k^{-s} times the product of 1/(1 - p_j^{-s}) for
    j = k..i; 0 for i = 0.

    Folded forward block by block (see `_fold`), so the cost is one factor
    evaluation per prime rather than one per (k, j) pair.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    z = as_complex(s)
    return _fold(_blocks(primes.first_primes(i), z), z, None, 0j)[1]


def _identity(i: int, s) -> tuple[complex, complex]:
    """euler_partial(i, s) and reform_partial(i, s) from one `_fold` of
    both carries, each power computed once.

    Bit-identical to the two separate calls, and fails as they do: the
    product's errors come first, and a failure of the sum alone is raised
    only after the product has run over every block.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    z = as_complex(s)
    return _fold(_blocks(primes.first_primes(i), z), z, 1 + 0j, 0j)


def identity_residual(i: int, s) -> float:
    """|product - 1 - sum| over the first i primes.

    Analytically zero everywhere off the singular lattice, so the returned
    size is pure floating-point error.
    """
    product, total = _identity(i, s)
    return abs(product - 1.0 - total)


@np.errstate(all="ignore")
def induction_step_check(i: int, s) -> float:
    """Residual of rebuilding the (i+1)-prime product from the i-prime sum.

    With t = p_{i+1}^{-s} and f = 1/(1 - t), returns
    |f*(t + sum_i) + 1 - product_{i+1}|, the intermediate identity of the
    inductive argument.  One pass of i + 1 powers: `_identity` gives
    product_i and sum_i, p_{i+1} is a one-prime block of `_blocks` (with
    its checks), and product_{i+1} is product_i times its factor, by
    `_fold`.
    """
    z = as_complex(s)
    product, total = _identity(i, z)
    block = next(_blocks(primes.first_primes(i + 1)[i:], z))
    _, t, f = block
    step = complex(f[0]) * (complex(t[0]) + total) + 1.0
    return abs(step - _fold([block], z, product)[0])


def dirichlet_partial(N: int, s) -> complex:
    """Sum of n^{-s} for n = 1..N, for Re(s) > 1.

    Evaluated through the p = 2 Euler factor: with D(x) the sum over n <= x
    and O(x) its odd-n part, D(x) = 2^{-s}*D(floor(x/2)) + O(x), because every
    even n <= x is 2m with m <= floor(x/2).  Folded up the cuts N >> k (see
    `_dirichlet_fold`), this evaluates only the ceil(N/2) odd powers plus
    2^{-s}.

    Re(s) <= 1, where the series diverges, is refused before any power.
    Above it every |n^{-s}| < 1 and |D| < zeta(Re s), so no modulus can
    overflow; a phase can (|Im s| near 1e308), and `_power_terms` then names
    the first power evaluated that is not finite.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    z = as_complex(s)
    if z.real <= 1.0:
        raise NonConvergentError("the Dirichlet partial sum", z)
    return _dirichlet_fold(N, z)[-1]


# ----------------------------------------------------------------------
# certified tails and rounding

_U = 2.0 ** -53  # unit roundoff of a double
_SQRT5 = math.sqrt(5.0)  # |fl(a*b) - a*b| <= sqrt(5)*u*|a*b| for complex a, b


def _expm1(x: float) -> float:
    # An upper bound on e^x - 1: math.expm1 raises past x = 709.78.
    return math.expm1(x) if x < 709.0 else math.inf


_HEAD = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
_HEAD_LOGS = [math.log(k) for k in _HEAD]
_LOG_8_5 = math.log(8.5)


def _zeta_head(sigma: float) -> list[float]:
    """The first eight terms of the series for zeta(sigma)."""
    return [k ** -sigma for k in _HEAD]


def _zeta_bounds(sigma: float) -> tuple[float, float, float]:
    """(lo, hi, d) with lo <= zeta(sigma) <= hi and -zeta'(sigma) <= d, for
    sigma > 1, in closed form.

    lo is the first eight terms of the series.  hi and d add, for the rest,
    the integral of n^-sigma or of n^-sigma*ln n over [8.5, inf): both are
    convex for n >= 5, and a convex f has f(n) <= the integral of f over
    [n - 1/2, n + 1/2].
    """
    head = _zeta_head(sigma)
    lo = math.fsum(head)
    c = sigma - 1.0
    rest = 8.5 ** -c
    d = math.fsum(map(operator.mul, head, _HEAD_LOGS))
    return lo, lo + rest / c, d + rest * (_LOG_8_5 / c + 1.0 / (c * c))


def _product_floor(sigma: float, zeta: tuple[float, float, float]) -> float:
    """A lower bound on the modulus of every truncated or tail Euler product
    at Re(s) = sigma > 1; `zeta` is `_zeta_bounds`(sigma).

    Each factor has |1/(1 - p^{-s})| >= 1/(1 + p^{-sigma}), which is below 1,
    so a product over any set of primes has modulus at least the product of
    1/(1 + p^{-sigma}) over all primes, zeta(2*sigma)/zeta(sigma), and
    zeta(2*sigma) is at least its first eight terms.
    """
    return math.fsum(_zeta_head(2.0 * sigma)) / zeta[1]


_FIRST_PRIME_LOGS = [math.log(p) for p in primes._FIRST_PRIMES[:8]]


def _head_range(z: complex, log_tail: Callable[[float], float]) -> tuple[float, float]:
    """(lo, hi) with lo <= |P_c| for every c >= 1 and hi >= |P_c| for every
    c >= 8, where P_c is the Euler product over the first c primes, for
    complex z with Re(z) > 1; `log_tail` is `_log_tail_of`(z) or of Re z,
    which agree below 41, where the phase form does not apply.

    |P_1| .. |P_8| are computed in real arithmetic, from |1 - p^{-z}|^2 =
    1 + a*(a - 2*cos(Im(z)*ln p)) with a = p^-Re(z), and a later P_c is P_8
    times factors whose logs sum to at most b = log_tail(19) in modulus.  The
    phase Im(z)*ln p is off by at most about 3u*|z|*ln p, so each
    squared gap, which is at least 1/4, is off by at most u*(12|z|*ln p + 20)
    relative, and each prime moves a computed modulus by half that: every
    computed |P_c| is within a relative `slack` of the exact one, and the
    range is widened by it.
    """
    slack = 8.0 * _U * (6.0 * abs(z) * _FIRST_PRIME_LOGS[-1] + 12.0)
    if not slack < 1.0:
        return 0.0, math.inf  # the phases hold no digits
    rate, tau, exp, cos = -z.real, z.imag, math.exp, math.cos
    gap = widest = 1.0  # |P_c|^-2, and its largest value so far
    for log_p in _FIRST_PRIME_LOGS:
        a = exp(rate * log_p)
        gap *= 1.0 + a * (a - 2.0 * cos(tau * log_p))
        if gap > widest:
            widest = gap
    spread = 1.0 + _expm1(log_tail(19))
    modulus = 1.0 / math.sqrt(gap)
    return (min(1.0 / math.sqrt(widest), modulus / spread) * (1.0 - slack),
            modulus * spread * (1.0 + slack))


def _integral_tail(x: float, sigma: float) -> float:
    """x^(1-sigma)/(sigma-1) >= the sum of n^-sigma over n > x, for sigma > 1."""
    return x ** (1.0 - sigma) / (sigma - 1.0)


# Rosser & Schoenfeld (Illinois J. Math. 6, 1962) on Chebyshev's function
# theta(x) = sum of ln p over primes p <= x: theta(x) < 1.01624*x for x > 0,
# theta(x) > x*(1 - 1/ln x) for x >= 41, and |theta(x) - x| < 2.05282*sqrt(x)
# for 0 < x <= 10^8.  A test checks all three at every prime up to 10^8.
_THETA_UPPER = 1.01624
_THETA_LOWER_FROM = 41
_THETA_SQRT = 2.05282
_THETA_SQRT_LIMIT = 10**8
_EDGE = 1.0 / math.log(_THETA_SQRT_LIMIT)


def _log_tail_of(z: complex) -> Callable[[float], float]:
    """x -> an upper bound on |log| of the product of 1/(1 - p^{-z}) over
    primes p > x, for Re(z) = sigma > 1 and integer x >= 2; nonincreasing
    in x.  The constants that depend on z alone are computed once.

    The log is the sum over p > x of w + r(w) with w = p^{-z}, where
    |r(w)| <= |w|^2/(2(1 - |w|)), and the sum of p^-2sigma over p > x is at
    most x^(1-2sigma)/(2sigma - 1).  Of these forms the smallest is returned:

    - every integer past x: |log(1 - w)| <= 2|w| for |w| <= 1/2, and the sum
      of n^-sigma over n > x is at most x^(1-sigma)/(sigma-1);
    - for x >= 17, partial summation against pi(t) < 1.25506*t/ln t
      (`primes.PI_UPPER`) and pi(x) > x/ln x, with |log(1 - w)| <=
      |w|/(1 - |w|): x^(1-sigma)/ln x*(1.25506*sigma/(sigma-1) - 1)/(1 - x^-sigma);
    - the theta form, for x >= 41: with L = ln x, the sum of p^-sigma over
      p > x is -theta(x)*x^-sigma/L plus the integral over (x, inf) of
      theta(t)*t^(-sigma-1)*(sigma/ln t + 1/ln^2 t), and theta(t) < 1.01624*t,
      theta(x) > x*(1 - 1/L) make it at most
      x^(1-sigma)/L*(1.01624*(sigma + 1/L)/(sigma-1) - 1 + 1/L);
    - the phase form, for Im z != 0 and 41 <= x < X = 10^8: write theta(t) =
      t + E(t) in the sum of p^{-z} over x < p <= X.  The part against dt,
      integrated by parts, is at most (x^(1-sigma)/L + X^(1-sigma)/ln X)/|z-1|
      + x^(1-sigma)/(|z-1|*(sigma-1)*L^2): smaller than the sum of moduli by
      about |z-1|/(sigma-1).  The part against dE, with |E(t)| < 2.05282*sqrt(t),
      is at most 2.05282*(x^(1/2-sigma)/L*(1 + (|z| + 1/L)/(sigma-1/2))
      + X^(1/2-sigma)/ln X), and the primes past X take the theta form at X.

    The first three bound the sum of the moduli, so they also bound |log| of
    the product over any set of primes past x, at any s with Re(s) = sigma.
    The phase form covers only the whole tail past x, not a stretch of it,
    and real z has none: `_log_tail_of`(Re z) is the sum-of-moduli bound
    (`tail_bound`, and `_trace`'s floor and ceiling).
    """
    sigma = z.real
    c = sigma - 1.0
    slope = primes.PI_UPPER * sigma / c - 1.0
    # The theta form is x^(1-sigma)/L*(theta_0 + theta_1/L).
    theta_0, theta_1 = _THETA_UPPER * sigma / c - 1.0, _THETA_UPPER / c + 1.0
    squares = 0.5 / (2.0 * sigma - 1.0)
    phase, limit, log, sqrt, edge = z.imag != 0.0, _THETA_SQRT_LIMIT, math.log, math.sqrt, _EDGE
    if phase:
        # x^(1-sigma)/L*(main_0 + main_1/L + (error_0 + error_1/L)/sqrt(x)),
        # plus `far`: the terms at X, and the theta form at X.
        half = sigma - 0.5
        main_0 = 1.0 / abs(z - 1.0)
        main_1 = main_0 / c
        error_0, error_1 = _THETA_SQRT * (1.0 + abs(z) / half), _THETA_SQRT / half
        far = limit ** -c * edge * (theta_0 + theta_1 * edge + main_0 + _THETA_SQRT / sqrt(limit))

    def log_tail(x: float) -> float:
        power = x ** -c
        integral = 2.0 * power / c
        if x < 17:
            return integral
        inverse_log = 1.0 / log(x)
        over_primes = power * inverse_log
        w = power / x
        bound = over_primes * slope / (1.0 - w)
        if integral < bound:
            bound = integral
        if x < _THETA_LOWER_FROM:
            return bound
        prime_powers = squares * power * w / (1.0 - w)
        theta = over_primes * (theta_0 + theta_1 * inverse_log) + prime_powers
        if theta < bound:
            bound = theta
        if phase and x < limit:
            near = over_primes * (main_0 + main_1 * inverse_log
                                  + (error_0 + error_1 * inverse_log) / sqrt(x))
            if near + far + prime_powers < bound:
                bound = near + far + prime_powers
        return bound

    return log_tail


def tail_bound(i: int, sigma: float) -> float:
    """Upper bound on the sum over primes p past the i-th of
    |log(1 - p^{-s})|, and so on |log| of the product of 1/(1 - p^{-s}) over
    any set of them, valid for any s with Re(s) = sigma > 1: `_log_tail_of`
    at real sigma, taken at x = p_i.

    The smallest of the integer-sum form, the form by partial summation
    against pi(x) (from x = 17) and the theta form (from x = 41) is
    returned; the theta form is the smallest from about x = 70 on.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    sigma = float(sigma)
    if not sigma > 1.0:
        raise ValueError("sigma must exceed 1")
    return _log_tail_of(complex(sigma))(primes.nth_prime(i))


def _dirichlet_tail_of(z: complex) -> Callable[[int], float]:
    """N -> an upper bound on |sum_{n > N} n^{-z}| for Re(z) = sigma > 1; the
    constants that depend on z alone are computed once.

    The smaller of the integral bound N^(1-sigma)/(sigma-1) and the
    second-order Euler-Maclaurin bound.  With f(x) = x^{-z},
    sum_{n > N} f(n) = N^(1-z)/(z-1) - N^{-z}/2 + z*N^(-z-1)/12 + R, where
    R = -(1/2)*integral_N^inf B2({x})*f''(x) dx and |B2({x})| <= 1/6, so
    |R| <= |z(z+1)|*N^(-sigma-1)/(12*(sigma+1)).  For real z the integral
    bound is the smaller; for |Im z| >> sigma - 1 the first term shrinks
    by (sigma-1)/|z-1|.
    """
    sigma = z.real
    c, near, size, far = sigma - 1.0, abs(z - 1.0), abs(z), 1.0 + abs(z + 1.0) / (sigma + 1.0)
    up, mid, down = 1.0 - sigma, -sigma, -sigma - 1.0

    def tail(N: int) -> float:
        power = N ** up
        euler_maclaurin = power / near + 0.5 * N ** mid + size * N ** down / 12.0 * far
        return min(power / c, euler_maclaurin)

    return tail


def _pairwise_depth(m: int) -> int:
    # Roundings one value meets in numpy's pairwise sum of m values: at most
    # 16 + 3 + 7 inside a 128-value block, one per halving above it, and
    # one per 8192-value buffer should the reduction be buffered.
    return 32 + m.bit_length() + m // 8192


def _power_sum_rounding(z: complex, depth: int, zeta: tuple[float, float, float]) -> float:
    """Bound on |computed - exact| for a sum of n^{-z} over distinct n, each
    from `_power_terms` and meeting at most `depth` additions: `_rounding_of`'s
    premises, summed against n^-sigma as in its Dirichlet route."""
    _, hi, d = zeta
    return _U * (3.0 * abs(z) * d + (6.0 + depth) * hi)


def _rounding_of(z: complex, method: str,
                 zeta: tuple[float, float, float]) -> Callable[[int, float], float]:
    """(count, magnitude) -> an a-priori bound on |computed - exact| for the
    `method` truncation at `count` terms past its start, as `_trace` (or,
    for Dirichlet, `_dirichlet_fold`) folds it; `magnitude` is |computed
    value| (unused by the Dirichlet route), and `zeta` is
    `_zeta_bounds`(Re(z)).  The parts that depend on z and the method alone
    are computed once, each expression in the order the closed form below
    is written, so a bound has the same bits however it is split.

    Closed form, to first order in u = 2^-53: the neglected terms are
    smaller by a factor of about count*u < 1e-6, and the phase error is
    covered to all orders, as |exp(i*x) - 1| <= |x|.  With sigma = Re(z),
    zeta, -zeta' and -zeta'/zeta at sigma bounded by `zeta`:

    - Each power n^{-z} = exp(-z*ln n) has relative error at most
      u*(3|z|*ln n + 6).  numpy's log is within one ulp (2u*ln n, times |z|),
      the product -z*ln n adds u*|z|*ln n, and the complex exp adds at
      most 6u.  The phase part, u*|Im z|*ln n, dominates at large |Im z|;
      using |z| also covers the error in the modulus.
    - Dirichlet: n = 2^k*m (m odd) enters as m^{-z}*(2^{-z})^k, whose
      relative error is u*(3|z|*ln n + 6 + 6k) <= u*((3|z| + 9)*ln n + 6).
      It then meets the pairwise sum of its chunk, the sequential sum of
      chunk totals into O (at most count/(2*_CHUNK) plus one per cut), and
      at each later cut one product with 2^{-z} (sqrt(5)*u) and one sum.
      Summed against n^{-sigma}: u*((3|z| + 9)*(-zeta') + (6 + path)*zeta).
    - Euler factor f = 1/(1 - t): the error of t costs
      |t|/(1 - |t|)*u*(3|z|*ln p + 6).  For complex s, 1 - t and Smith's
      division cost 3u + 4u*|t|/(1 - |t|)^2, and each complex product
      sqrt(5)*u.  For real s every step is real and sharper: d = 1 - t
      lies in (1/2, 1), where doubles are u apart, so fl(d) is within u/2
      of d; 1/fl(d) lies in [1, 2], where they are 2u apart, so the
      quotient rounds by at most u.  Hence |fl(f) - f| <= (u/2)*f^2 + u,
      which is at most 1.5u*f for 1 <= f <= 2, and a real product rounds
      by u.  Over the primes, sum ln p*p^-sigma/(1 - p^-sigma) =
      -zeta'/zeta and sum p^-sigma/(1 - p^-sigma) <= zeta - 1, so the
      factors contribute u*(3|z|*(-zeta'/zeta) + (6 + 4/(1 - 2^-sigma))*
      (zeta - 1) + (divide + multiply)*count), with (divide, multiply) =
      (3, sqrt(5)) for complex s and (1.5, 1) for real s.  The product
      adds one multiply per block and per step, and the relative error e
      of the whole is expm1 of the sum.
    - Prime-indexed sum: term k is t_k times the suffix product of the
      factors from k on, of modulus <= zeta.  Its relative error is that
      of t_k, plus that of every factor (the bound above), plus the path:
      the sequential suffix products and the fold of one block into the
      next (one multiply per factor and per block), the pairwise sum of
      its block and one sum per block.  Summed with sum_p p^-sigma <=
      ln zeta and sum_p ln p*p^-sigma <= -zeta'/zeta, plus u*magnitude for
      1 + S.

    No sum is charged Higham's gamma_count = count*u/(1 - count*u): a
    Dirichlet term meets O(log count) roundings.  The products' rounding
    does grow with count, because each of the count factors is rounded and
    multiplied in once; the error of `euler_partial` measured against
    40-digit products grows that way too.
    """
    sigma = z.real
    lo, hi, d = zeta
    phase = 3.0 * abs(z)
    depth = _pairwise_depth(_CHUNK)
    if method == METHOD_DIRICHLET:
        powers = (phase + 9.0) * d

        def dirichlet(count: int, magnitude: float) -> float:
            path = depth + count // (2 * _CHUNK) + 5 * (count.bit_length() + 1)
            return _U * (powers + (6.0 + path) * hi)

        return dirichlet
    divide, multiply = (1.5, 1.0) if z.imag == 0.0 else (3.0, _SQRT5)
    log_derivative = d / lo
    fixed = phase * log_derivative + (6.0 + 4.0 / (1.0 - 2.0 ** -sigma)) * (hi - 1.0)
    per_prime = divide + multiply
    per_block = _U * multiply

    # The walk and the bisection call these closures about 20 times per
    # request, so they spell out the blocks, the factors' part and `_expm1`
    # rather than call helpers for them.
    if method == METHOD_EULER_PRODUCT:
        def product(count: int, magnitude: float) -> float:
            x = (_U * (fixed + per_prime * count)
                 + per_block * (count // _CHUNK + 2 * (count.bit_length() + 1)))
            e = math.expm1(x) if x < 709.0 else math.inf
            return magnitude * e / (1.0 - e) if e < 1.0 else math.inf

        return product
    prime_zeta = math.log(hi)
    terms = _U * (phase * log_derivative + 6.0 * prime_zeta)

    def reformulated(count: int, magnitude: float) -> float:
        blocks = count // _CHUNK + 2 * (count.bit_length() + 1)
        path = multiply * (count + blocks) + depth + blocks
        factors = _U * (fixed + per_prime * count)
        return hi * (terms + prime_zeta * (factors + _U * path)) + _U * magnitude

    return reformulated


# Relative margin, in logs, by which `_last_ruled_out`'s lower bound must
# exceed the tolerance: far above the few ulps by which the walk's closed
# forms and the logs here round.
_RULE_OUT_MARGIN = 1e-6
_LOG_LIMIT = math.log(MAX_PRIME_LIMIT)  # and of MAX_DIRICHLET_TERMS, the same 2^30


def _last_ruled_out(z: complex, method: str, tolerance: float, magnitude: float) -> int:
    """The largest n such that the truncation `_walk_to_feasible` computes
    exceeds the tolerance at every Dirichlet count up to n, or, for a value
    of modulus `magnitude`, at every product count c with offset + c <= n
    (n is a prime index); 0 if there is none.  Closed form, in logs, so
    that sigma close to 1 cannot overflow.

    - Dirichlet: both forms of `_dirichlet_tail_of`(z)(N) are at least
      N^(1-sigma)/|z-1|, as |z-1| >= sigma-1, and that exceeds the
      tolerance for ln N < -ln(tolerance*|z-1|)/(sigma-1).  n stops at
      MAX_DIRICHLET_TERMS.
    - Products: the truncation is magnitude*expm1(log_tail(x)) >=
      magnitude*log_tail(x), with log_tail the least of the forms of
      `_log_tail_of`, so it exceeds the tolerance, T = tolerance/magnitude,
      wherever every form does.  For 2 <= x <= MAX_PRIME_LIMIT, every form
      but the phase form is at least x^(1-sigma)*K with K = min(2/(sigma-1),
      (1.01624*sigma/(sigma-1) - 1)/ln MAX_PRIME_LIMIT), which is above T for
      x < (K/T)^(1/(sigma-1)).  The phase form is at least both
      x^(1-sigma)*A and x^(1/2-sigma)*B, with A = 1/(|z-1|*ln MAX_PRIME_LIMIT)
      and B = 2.05282*|z|/((sigma-1/2)*ln MAX_PRIME_LIMIT), so it is above T
      for x below the larger of (A/T)^(1/(sigma-1)) and (B/T)^(1/(sigma-1/2)).
      The truncation exceeds the tolerance for every x < X, the least of
      MAX_PRIME_LIMIT and these thresholds.  x = `primes.prime_ceiling`(i)
      is p_i itself for i < 20, so below X for every i with p_i < X, which
      are all 19 of them from X = 71 = p_20 on.  For i >= 6 each of its
      forms is at most i*(ln i + ln ln i), which is below X for i <= X/(ln X
      + ln ln X): i is then below X, and so are ln i and ln ln i.  It holds
      with room, X - x >= i*(ln X - ln i) >= i, far above the rounding of
      the floats.
    """
    sigma = z.real
    c = sigma - 1.0
    if method == METHOD_DIRICHLET:
        log_n = (-math.log(tolerance) - math.log(abs(z - 1.0)) - _RULE_OUT_MARGIN) / c
        if log_n >= _LOG_LIMIT:
            return MAX_DIRICHLET_TERMS
        return int(math.exp(log_n)) if log_n > 0.0 else 0
    log_ratio = math.log(magnitude) - math.log(tolerance) - _RULE_OUT_MARGIN
    k = min(2.0 / c, (_THETA_UPPER * sigma / c - 1.0) / _LOG_LIMIT)
    log_x = (math.log(k) + log_ratio) / c
    if z.imag != 0.0:
        half = sigma - 0.5
        main = (log_ratio - math.log(abs(z - 1.0) * _LOG_LIMIT)) / c
        error = (log_ratio + math.log(_THETA_SQRT * abs(z) / (half * _LOG_LIMIT))) / half
        log_x = min(log_x, max(main, error))
    x = MAX_PRIME_LIMIT if log_x >= _LOG_LIMIT else math.exp(log_x)
    if x < 71.0:  # p_20
        return bisect.bisect_left(primes._FIRST_PRIMES, x)
    log_x = math.log(x)
    return max(19, int(x / (log_x + math.log(log_x))))


def _walk_to_feasible(z: complex, method: str, tolerance: float, count: int,
                      offset: int, magnitude: float,
                      rounding_bound: Callable[[int, float], float],
                      tail: Callable[[float], float]) -> int:
    """Walk the doubling counts from `count` with closed forms alone and
    return the first that may certify a value of modulus >= `magnitude`;
    refuse at the first past a limit or whose rounding alone exceeds the
    tolerance, as no count after it can certify (see `_trace`).
    `rounding_bound` and `tail` are the request's `_rounding_of` and its
    tail closure, built once for every walk of a request: `_log_tail_of`,
    taken at a prime ceiling, or for Dirichlet `_dirichlet_tail_of`, taken
    at the count.

    The walk starts past the doubling counts whose truncation
    `_last_ruled_out` proves above the tolerance, when the last of them
    passes the rounding check below: it is monotone in the count, so every
    count skipped would pass it too and then fall short, and the walk
    returns or refuses as if it had stepped through them.  Otherwise it
    steps from `count`.  The skip needs no limit check: `_last_ruled_out`
    names an n with `prime_ceiling` below MAX_PRIME_LIMIT at every index up
    to n (products), or n at most MAX_DIRICHLET_TERMS, and the last count
    skipped lies at most n past the offset.

    A refusal at the sieve limit names the count before the one it stopped
    at, which fell short (in this walk, an earlier one or a step of
    `_trace`) or lies below the first count `_trace` tries.  The count it
    stopped at is only bounded, by `primes.prime_ceiling`, so it is not
    named.
    """
    last = _last_ruled_out(z, method, tolerance, magnitude) - offset
    if last >= count:
        last = count << ((last // count).bit_length() - 1)
        if rounding_bound(last, magnitude) <= tolerance:
            count = 2 * last
    while True:
        if method == METHOD_DIRICHLET:
            if count > MAX_DIRICHLET_TERMS:
                raise RuntimeError(
                    f"certifying this tolerance needs more than {MAX_DIRICHLET_TERMS} "
                    "Dirichlet terms; relax the tolerance or pick another method"
                )
            truncation = tail(count)
        else:
            x = primes.prime_ceiling(offset + count)
            if x > MAX_PRIME_LIMIT:
                raise RuntimeError(
                    f"certifying this tolerance needs more than the first "
                    f"{offset + count // 2} primes, and going further may need a sieve past "
                    f"the limit {MAX_PRIME_LIMIT}; relax the tolerance or pick another method"
                )
            b = tail(x)
            truncation = magnitude * (math.expm1(b) if b < 709.0 else math.inf)
        rounding = rounding_bound(count, magnitude)
        if rounding > tolerance:
            raise RuntimeError(
                f"rounding alone may reach {rounding:.3e} at s = {z}, above the "
                f"tolerance {tolerance:.3e}; relax the tolerance"
            )
        if truncation + rounding <= tolerance:
            return count
        count *= 2


def _first_certifying(lo: int, hi: int, certifies: Callable[[int], bool]) -> int:
    """Bisect (lo, hi], where `certifies(hi)` holds and `certifies(lo)` does
    not (or lo lies below the counts searched), until the bracket is within
    max(1, hi >> 5), and return hi: for a `certifies` monotone in the count,
    a count within 1/32 of the first that certifies."""
    while hi - lo > max(1, hi >> 5):
        mid = (lo + hi) // 2
        if certifies(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ----------------------------------------------------------------------
# adaptive evaluation

def _trace(z: complex, method: str, tolerance: float, offset: int = 0,
           every_step: bool = True) -> list[EvaluationResult]:
    """The driver behind every product request, from one prime:
    `euler_product` and `reformulated` requests, and `correction_coefficient`
    past its offset.

    Truncates at counts of primes past the first `offset`: with `every_step`
    at 1, 2, 4, ... primes, else at a count that certifies (below).  Each
    step folds only its new primes, those at positions lo..offset+c-1
    (0-based) for a step at count c, with lo the previous step's end, into
    one running product or prime-indexed sum, so each power is computed once
    over the whole run.  Records one result per step, with terms_used = c,
    and stops once its certified bound is <= tolerance.

    One closed form, `bound`(c, M) = (M + r)*expm1(b) + r, gives each step's
    bound, at M = |value|, and the searches' test.  r = `_rounding_of`(c, M)
    bounds |value - exact truncation| for a value of modulus M, and b =
    `_log_tail_of`(s) at the c-th prime past the offset: the exact truncation
    has modulus at most M + r, and the remaining factor differs from 1 by at
    most expm1(b).  Each step reads its primes from one window, the first
    offset + `needed`, sieved after each walk: the fold takes its slice and
    b its last prime.  No count depends on the cache beyond that window.

    Before any work, `_walk_to_feasible` walks the doubling counts from 1
    with closed forms alone and stops at the first that may certify,
    `needed`.  It starts past the counts that `_last_ruled_out`, a
    closed-form lower bound on the truncation solved for the count, proves
    short, and returns and refuses as a walk from 1 would.  Every value has
    modulus at least `floor` (1 for real s, else `_product_floor`, raised to
    the floor of `_head_range` when the product starts at the first prime),
    and the n-th prime is at most `primes.prime_ceiling`(n), so a count
    certifies only if floor*expm1(b) + r(floor) <= tolerance with b taken at
    that ceiling (`_log_tail_of` is nonincreasing).  The walk refuses at the
    first count whose sieve would pass MAX_PRIME_LIMIT, or whose r(count,
    floor) alone exceeds the tolerance: r is nondecreasing in count and in
    modulus, so no later count certifies.  The loop checks neither: each
    count it reaches is at most the latest `needed`, which passed, and both
    are monotone in count.

    One failure rule: after every step that falls short, `floor` is raised
    to that step's own lower bound on every later modulus, (|value| -
    r)*exp(-b), when that is larger, with b here the sum-of-moduli bound
    `_log_tail_of`(Re s), built by the step that falls short (a request
    that certifies at its first fold never builds it): a later value
    differs from this one by the factors of a stretch of the tail, which
    the phase form does not cover.  The walk then resumes from twice the step's count, or from
    `needed` when that is larger, so `needed` is at least twice every count
    folded.  No count it passes over could certify: the counts below
    `needed` it passed before, a larger floor only makes them less
    feasible, and there |value| >= floor, p_c <= `prime_ceiling`(c) and r
    is nondecreasing in the modulus, so the loop's bound at c is at least
    the walk's closed form, which exceeds the tolerance.

    With `every_step` (`convergence_trace`, which reports the whole story)
    the loop steps through every doubling count.  Without it (`zeta_eval`,
    `correction_coefficient`) each step searches (`needed` // 2, `needed`],
    which lies past every count folded, for a count that certifies
    (`_first_certifying`, to within 1/32).  So terms_used is at most
    `convergence_trace`'s last, and the values differ from its in the last
    digits.  The search tests `bound`(c, M) with M an upper bound on every
    later modulus: zeta(sigma) from `_zeta_bounds` (|1/(1 - p^{-s})| <=
    1/(1 - p^{-sigma})), or the ceiling of `_head_range` when that is
    smaller and `needed` >= 16, so that every count searched is past the
    eighth prime; it is lowered after each step to that step's (|value| +
    r)*exp(b), b again the sum-of-moduli bound.  It searches only when the
    form holds at `needed`, and otherwise folds to `needed` as the doubling
    loop would, so no fold is taken that only the walk's necessary form
    allows.  M bounds the exact modulus, not the computed one, so a fold
    short of `needed` can still fail, and it resumes the walk as any step
    that falls short does.  `_rounding_of` charges a product for at most
    count.bit_length() + 1 windows, each a partial block and a multiply into
    the running value; the doubling counts never fold more, and a fold short
    of `needed` is taken only while one more window after it stays within
    that charge.
    """
    sigma = z.real
    zeta = _zeta_bounds(sigma)
    rounding_bound, log_tail = _rounding_of(z, method, zeta), _log_tail_of(z)
    ceiling = head_ceiling = zeta[1]
    floor = 1.0  # for real s: every factor exceeds 1, and so does every product
    if z.imag != 0.0:
        floor = _product_floor(sigma, zeta)
        if offset == 0:
            head_floor, head_ceiling = _head_range(z, log_tail)
            floor = max(floor, head_floor)
    count = 1
    needed = _walk_to_feasible(z, method, tolerance, count, offset, floor, rounding_bound, log_tail)
    if needed >= 16:
        ceiling = min(ceiling, head_ceiling)

    def bound(c: int, m: float) -> float:
        r = rounding_bound(c, m)
        b = log_tail(window.item(offset + c - 1))
        return (m + r) * (math.expm1(b) if b < 709.0 else math.inf) + r

    steps: list[EvaluationResult] = []
    running = complex(1.0) if method == METHOD_EULER_PRODUCT else complex(0.0)
    lo = offset
    while True:
        window = primes.first_primes(offset + needed)
        if not every_step:
            count = needed
            if bound(needed, ceiling) <= tolerance:
                c = _first_certifying(needed // 2, needed, lambda c: bound(c, ceiling) <= tolerance)
                if len(steps) < c.bit_length():
                    count = c
        hi = offset + count
        blocks = _blocks(window[lo:hi], z)
        if method == METHOD_EULER_PRODUCT:
            # The new primes' own product first, then into the running
            # one: that order fixes the digits euler_product reports print.
            running *= _fold(blocks, z, 1 + 0j)[0]
            value = running
        else:
            running = _fold(blocks, z, None, running)[1]
            value = 1.0 + running
        steps.append(EvaluationResult(value, method, count, bound(count, abs(value))))
        if steps[-1].tail_error_bound <= tolerance:
            return steps
        # The factors past p_hi change |log| of every later value by at
        # most the sum of their moduli, so each has modulus at least this,
        # and at most `ceiling`.
        rounding = rounding_bound(count, abs(value))
        b = _log_tail_of(complex(sigma))(window.item(hi - 1))
        floor = max(floor, (abs(value) - rounding) * math.exp(-b))
        ceiling = min(ceiling, (abs(value) + rounding) * math.exp(b))
        lo = hi
        count *= 2
        needed = _walk_to_feasible(z, method, tolerance, max(count, needed), offset, floor,
                                   rounding_bound, log_tail)


def correction_coefficient(k: int, s, spec: TruncationSpec) -> EvaluationResult:
    """Truncation of the infinite product of 1/(1 - p_j^{-s}) over j >= k.

    Grows the cutoff until the certified tail sits below spec.tolerance,
    folding to a count within 1/32 of the first that certifies (see
    `_trace`), so terms_used is at most the doubling count, from one prime,
    at which the every-step loop would stop.  The k = 1 case is the full
    Euler product, i.e. zeta(s) itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    z = as_complex(s)
    if z.real <= 1.0:
        raise NonConvergentError("the tail product", z)
    return _trace(z, METHOD_EULER_PRODUCT, spec.tolerance, offset=k - 1, every_step=False)[-1]


def _checked_trace(s, method: str, tolerance: float, every_step: bool) -> list[EvaluationResult]:
    """Check a request for zeta(s), then run it: a product request is
    `_trace`d from count 1, and a Dirichlet request is run here.

    The Dirichlet route needs none of the product driver's state.
    `_walk_to_feasible` walks its doubling counts from 16 with closed forms
    alone, to the first, `needed`, whose bound `_dirichlet_tail_of` plus
    r(count, 0), r = `_rounding_of`, may certify; that bound does not depend
    on the value, so it is each step's bound too, expression for expression,
    and `needed` certifies.  `convergence_trace` takes every doubling count
    from 16 to `needed`; `zeta_eval` takes the count within 1/32 of the first
    that certifies, bisecting that bound over (max(15, needed // 2), needed]
    (`_first_certifying`).  Each count taken is a cut N >> k of one
    `_dirichlet_fold` to the largest, which is the fold `dirichlet_partial`
    makes, so a `dirichlet` value is `dirichlet_partial`(terms_used) bit for
    bit.
    """
    z = as_complex(s)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_tolerance(tolerance)
    if z.real <= 1.0:
        raise NonConvergentError("zeta evaluation", z)
    if method != METHOD_DIRICHLET:
        return _trace(z, method, tolerance, 0, every_step)
    rounding_bound, tail = _rounding_of(z, method, _zeta_bounds(z.real)), _dirichlet_tail_of(z)
    needed = _walk_to_feasible(z, method, tolerance, 16, 0, 0.0, rounding_bound, tail)

    def bound(c: int) -> float:
        return tail(c) + rounding_bound(c, 0.0)

    if every_step:
        counts = [needed >> k for k in range((needed // 16).bit_length() - 1, -1, -1)]
    else:
        counts = [_first_certifying(max(15, needed // 2), needed, lambda c: bound(c) <= tolerance)]
    values = _dirichlet_fold(counts[-1], z)[-len(counts):]
    return [EvaluationResult(value, method, c, bound(c)) for value, c in zip(values, counts)]


def convergence_trace(s, method: str, tolerance: float) -> list[EvaluationResult]:
    """Grow a truncated evaluation of zeta(s) until its certified tail bound
    drops below `tolerance`, recording one result per truncation tried.

    Truncations double: prime counts 1, 2, 4, ... for the product methods,
    term counts 16, 32, 64, ... for the Dirichlet sum.
    """
    return _checked_trace(s, method, tolerance, True)


def zeta_eval(s, method: str = METHOD_REFORMULATED, tolerance: float = 1e-6) -> EvaluationResult:
    """Evaluate zeta(s) for Re(s) > 1 to a certified tolerance.

    `reformulated` returns 1 plus the prime-indexed sum, `euler_product` the
    plain finite product (the two agree identically, so this is a live
    cross-check), `dirichlet` the partial sum of n^{-s}.  It folds once to a
    count within 1/32 of the first that certifies (see `_trace` and
    `_checked_trace`), so terms_used is at most that of `convergence_trace`'s
    last step, which stops at a doubling count, and the value differs from
    that step's in the last digits.  A `dirichlet` value is
    `dirichlet_partial`(terms_used) bit for bit.
    """
    return _checked_trace(s, method, tolerance, False)[-1]
