"""Finite Euler products over primes, the equivalent prime-indexed sums,
plain Dirichlet partial sums, and certified evaluation of zeta(s) for
Re(s) > 1.

One vectorised n^{-s} (`_power_terms`) serves every route.  Over primes,
one block iterator (`_blocks`) yields p, t = p^{-s} and f = 1/(1 - t) chunk
by chunk, with the overflow and singular-point checks, and two reductions
consume it: the product multiplies the factors, and the prime-indexed sum
folds forward by the paper's induction step S_{i+1} = f_{i+1}*(t_{i+1} + S_i).

The Dirichlet sum D(x) = sum_{n <= x} n^{-s} uses the first Euler factor
as a finite identity: every even n <= x is 2m with m <= floor(x/2), so
D(x) = 2^{-s}*D(floor(x/2)) + O(x) with O(x) the odd-n part.  Carrying the
pair (D, O) over the cuts x = 1, 2, 4, ... (or N >> k down to N) evaluates
only the odd powers (`_dirichlet_fold`).

The three evaluation methods and the tail products share one doubling
driver (`_trace`): fold each new window of terms into a running product,
sum or Dirichlet pair, record the value together with an honest upper
bound on its distance to the limit, and stop once that bound drops below
the requested tolerance.  The product tail is certified through
|log(1-z)| <= 2|z| for |z| <= 1/2 plus the integral estimate
sum_{n > m} n^{-sigma} <= m^(1-sigma)/(sigma-1); the Dirichlet tail uses the
integral estimate directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import primes
from .kernel import (
    DEFAULT_SINGULAR_TOL,
    PowerOverflowError,
    SingularPointError,
    as_complex,
    euler_factor,
    prime_power_term,
)

METHOD_DIRICHLET = "dirichlet"
METHOD_EULER_PRODUCT = "euler_product"
METHOD_REFORMULATED = "reformulated"
METHODS = (METHOD_DIRICHLET, METHOD_EULER_PRODUCT, METHOD_REFORMULATED)

MIN_SPEC_TOLERANCE = 1e-14  # below double-precision reach
MIN_EVAL_TOLERANCE = 1e-12

# Certified runs refuse to grow past these; the honest cost of tighter
# requests (especially with Re(s) barely above 1) explodes without bound.
MAX_PRIME_LIMIT = 1 << 30
MAX_DIRICHLET_TERMS = 1 << 30

_CHUNK = 1 << 20

# n^{-z} = exp(-z*ln n) is finite when Re(-z*ln n) <= _LOG_SAFE (at most
# max_double/e) and |Im(-z*ln n)| <= _PHASE_SAFE (no overflow in the phase).
_LOG_SAFE = math.log(sys.float_info.max) - 1.0
_PHASE_SAFE = 0.5 * sys.float_info.max


class NonConvergentError(ValueError):
    """The requested limit does not exist for Re(s) <= 1."""

    def __init__(self, what: str, s: complex):
        self.s = complex(s)
        super().__init__(f"{what} requires Re(s) > 1, got Re(s) = {self.s.real}")


@dataclass(frozen=True)
class TruncationSpec:
    """How far finite computations may run and how tight their tails must be."""

    prime_index_i: int = 20
    dirichlet_cutoff_N: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.prime_index_i < 1:
            raise ValueError("prime_index_i must be >= 1")
        if self.dirichlet_cutoff_N < 1:
            raise ValueError("dirichlet_cutoff_N must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance >= MIN_SPEC_TOLERANCE):
            raise ValueError(f"tolerance must be a finite value >= {MIN_SPEC_TOLERANCE}")


@dataclass(frozen=True)
class EvaluationResult:
    """A computed value, the method that produced it, the truncation spent,
    and a certified upper bound on the distance to the method's limit."""

    value: complex
    method: str
    terms_used: int
    tail_error_bound: float


# ----------------------------------------------------------------------
# vectorised powers, the prime block iterator and its two reductions

def _power_terms(n: np.ndarray, z: complex) -> np.ndarray:
    """n^{-z} for every n in an array of positive integers, checked finite."""
    base = np.asarray(n, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if z.imag == 0.0:
            t = np.power(base, -z.real)
        else:
            t = np.exp(-z * np.log(base))
    if not np.isfinite(t).all():
        bad = np.flatnonzero(~np.isfinite(t))
        raise PowerOverflowError(int(n[bad[0]]), z)
    return t


def _blocks(p_all: np.ndarray, z: complex):
    """Yield (p, t, f) with t = p^{-z} and f = 1/(1 - t) over p_all,
    ascending, in chunks of at most _CHUNK primes."""
    for a in range(0, len(p_all), _CHUNK):
        p = p_all[a : a + _CHUNK]
        t = _power_terms(p, z)
        d = 1.0 - t
        gap = np.abs(d)
        worst = int(np.argmin(gap))
        if gap[worst] < DEFAULT_SINGULAR_TOL:
            raise SingularPointError(int(p[worst]), z, float(gap[worst]))
        # This frame lives on across the yield: hold no array beyond t and f.
        del gap
        yield p, t, np.divide(1.0, d, out=d)


def _first_bad_prime(p: np.ndarray, cumulative: np.ndarray) -> int:
    bad = np.flatnonzero(~np.isfinite(cumulative))
    return int(p[bad[0]]) if bad.size else int(p[-1])


def _finite(x: complex) -> bool:
    return math.isfinite(x.real) and math.isfinite(x.imag)


def _product(blocks, z: complex, out: complex = complex(1.0)) -> complex:
    """`out` times every factor f in the blocks, one block product at a time."""
    for p, _, f in blocks:
        with np.errstate(over="ignore", under="ignore"):
            out *= complex(f.prod())
        if not _finite(out):
            with np.errstate(over="ignore", under="ignore"):
                raise PowerOverflowError(_first_bad_prime(p, np.cumprod(f)), z)
    return out


def _sum(blocks, z: complex, total: complex = 0j) -> complex:
    """Fold the blocks into the prime-indexed sum `total`.

    The induction step S_{i+1} = f_{i+1}*(t_{i+1} + S_i), applied to a whole
    block at once: S <- (product of the block's f)*S + sum of t times the
    block's suffix products of f.
    """
    for p, t, f in blocks:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            # Complex even for real s: numpy sums complex arrays in another
            # order than real ones, and the real-s reports follow the former.
            suffix = np.cumprod(f[::-1], dtype=complex)[::-1]
            total = complex(suffix[0]) * total + complex((t * suffix).sum())
        if not (_finite(total) and np.isfinite(suffix).all()):
            raise PowerOverflowError(_first_bad_prime(p[::-1], suffix[::-1]), z)
    return total


def _dirichlet_fold(total: complex, odd: complex, lo: int, hi: int, z: complex,
                    two: complex) -> tuple[complex, complex]:
    """Advance (D(lo), O(lo)) to (D(hi), O(hi)), where D(x) is the sum of
    n^{-z} over n <= x, O(x) its odd-n part and `two` = 2^{-z}.

    `lo` must be hi >> k for some k >= 0 (0 is hi >> hi.bit_length()).  The
    cuts c = hi >> k above lo are walked in ascending order: the odd n in
    (c >> 1, c] go into O, `_CHUNK` powers at a time, and then
    D(c) = 2^{-z}*D(c >> 1) + O(c), so only the odd powers are evaluated.

    An even power is never evaluated, so when it is not finite neither O nor
    the carried D need show it (complex terms cancel).  Over a window,
    -z*ln n has its largest real part (for Re(z) < 0) and its largest
    imaginary part in modulus at n = c, so one test per window tells when
    some n^{-z} there may not be finite.  Such a window is evaluated term by
    term for the check alone, so the error names the lowest n whose n^{-z}
    is not finite, as summing every power would.
    """
    cuts = []
    while hi > lo:
        cuts.append(hi)
        hi >>= 1
    for c in reversed(cuts):
        ln_c = math.log(c)
        if -z.real * ln_c > _LOG_SAFE or abs(z.imag) * ln_c > _PHASE_SAFE:
            for a in range((c >> 1) + 1, c + 1, _CHUNK):
                _power_terms(np.arange(a, min(c + 1, a + _CHUNK), dtype=np.float64), z)
        for a in range(((c >> 1) + 1) | 1, c + 1, 2 * _CHUNK):
            n = np.arange(a, min(c + 1, a + 2 * _CHUNK), 2, dtype=np.float64)
            odd += complex(_power_terms(n, z).sum())
        total = two * total + odd
    return total, odd


def _two_power(z: complex) -> complex:
    """2^{-z}, the factor that maps D(x) to the even-n part of D(2x) and D(2x+1)."""
    return complex(_power_terms(np.array([2.0]), z)[0])


# ----------------------------------------------------------------------
# the finite objects

def euler_partial(i: int, s) -> complex:
    """Product of 1/(1 - p^{-s}) over the first i primes; 1 for i = 0."""
    if i < 0:
        raise ValueError("i must be >= 0")
    z = as_complex(s)
    return _product(_blocks(primes.first_primes(i), z), z)


def reform_partial(i: int, s) -> complex:
    """Sum over k <= i of p_k^{-s} times the product of 1/(1 - p_j^{-s}) for
    j = k..i; 0 for i = 0.

    Folded forward block by block (see `_sum`), so the cost is one factor
    evaluation per prime rather than one per (k, j) pair.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    z = as_complex(s)
    return _sum(_blocks(primes.first_primes(i), z), z)


def _identity(i: int, s) -> tuple[complex, float]:
    """euler_partial(i, s) and identity_residual(i, s) from one pass over the
    blocks, each power computed once.

    Bit-identical to the two separate calls, and fails as they do: the
    product's errors come first, and a failure of the sum alone is raised
    only after the product has run over every block.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    z = as_complex(s)
    product, total, sum_error = complex(1.0), 0j, None
    for block in _blocks(primes.first_primes(i), z):
        product = _product([block], z, product)
        if sum_error is None:
            try:
                total = _sum([block], z, total)
            except PowerOverflowError as exc:
                sum_error = exc
    if sum_error is not None:
        raise sum_error
    return product, abs(product - 1.0 - total)


def identity_residual(i: int, s) -> float:
    """|product - 1 - sum| over the first i primes.

    Analytically zero everywhere off the singular lattice, so the returned
    size is pure floating-point error.
    """
    return _identity(i, s)[1]


def induction_step_check(i: int, s) -> float:
    """Residual of rebuilding the (i+1)-prime product from the i-prime sum.

    With t = p_{i+1}^{-s} and f = 1/(1 - t), returns
    |f*(t + sum_i) + 1 - product_{i+1}|, the intermediate identity of the
    inductive argument, checked as its own regression surface.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    z = as_complex(s)
    p_next = primes.nth_prime(i + 1)
    t = prime_power_term(p_next, z)
    f = euler_factor(p_next, z)
    lhs = f * (t + reform_partial(i, z)) + 1.0
    return abs(lhs - euler_partial(i + 1, z))


def dirichlet_partial(N: int, s) -> complex:
    """Sum of n^{-s} for n = 1..N.

    Evaluated through the p = 2 Euler factor: with D(x) the sum over n <= x
    and O(x) its odd-n part, D(x) = 2^{-s}*D(floor(x/2)) + O(x), because every
    even n <= x is 2m with m <= floor(x/2).  Folded up the cuts N >> k (see
    `_dirichlet_fold`), this evaluates only the ceil(N/2) odd powers plus
    2^{-s}.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    z = as_complex(s)
    two = _two_power(z) if N >= 2 else 0j
    return _dirichlet_fold(0j, 0j, 0, N, z, two)[0]


# ----------------------------------------------------------------------
# certified tails

def tail_bound(i: int, sigma: float) -> float:
    """Upper bound on |log| of the product of 1/(1 - p^{-s}) over primes past
    the i-th, valid for any s with Re(s) = sigma > 1.

    Combines |log(1-z)| <= 2|z| for |z| <= 1/2 with
    sum_{p > p_i} p^{-sigma} <= sum_{n > p_i} n^{-sigma}
    <= p_i^(1-sigma)/(sigma-1), giving 2*p_i^(1-sigma)/(sigma-1).
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    sigma = float(sigma)
    if not sigma > 1.0:
        raise ValueError("sigma must exceed 1")
    p_i = primes.nth_prime(i)
    return 2.0 * p_i ** (1.0 - sigma) / (sigma - 1.0)


def _product_tail(value_mag: float, log_bound: float) -> float:
    # |truncated|*(e^b - 1) certifies |truncated - limit| when the log of the
    # remaining factor is at most b in absolute value.
    return value_mag * math.expm1(log_bound)


def _dirichlet_tail(N: int, sigma: float) -> float:
    return N ** (1.0 - sigma) / (sigma - 1.0)


def _ensure_feasible_count(count: int) -> None:
    if count < 6:
        return
    x = float(count)
    est = x * (math.log(x) + math.log(math.log(x)) + 2.0)
    if est > MAX_PRIME_LIMIT:
        raise RuntimeError(
            f"certifying this tolerance needs roughly the first {count} primes "
            f"(a sieve past {est:.3e}); relax the tolerance or pick another method"
        )


# ----------------------------------------------------------------------
# adaptive evaluation

def _trace(z: complex, method: str, tolerance: float, count: int,
           offset: int = 0) -> list[EvaluationResult]:
    """The doubling driver behind every adaptive evaluation.

    Truncates at `count`, 2*`count`, 4*`count`, ... terms past the first
    `offset` primes (Dirichlet runs have offset 0).  Each step folds only
    its new terms, those at positions lo..offset+count-1 (0-based) with lo
    the previous step's end, into one running product, prime-indexed sum or
    Dirichlet pair (D, O), so each power is computed once over the whole run
    (for Dirichlet runs, each odd power; the doubling cuts are the cuts
    `_dirichlet_fold` needs).
    Records one result per step, with terms_used = count, and stops once
    its certified bound is <= tolerance.

    Impossible product requests are refused before any prime is sieved.
    Each factor has |1/(1 - p^{-s})| >= 1/(1 + p^{-sigma}), so every
    truncated product and tail product, and so every value this loop
    records, has modulus at least prod_p 1/(1 + p^{-sigma}) >= 1/zeta(sigma)
    > (sigma-1)/sigma.  Half of that, `floor`, is a floor rounding cannot
    undercut.  A step ending at the prime p certifies only if
    floor*expm1(2*p^(1-sigma)/(sigma-1)) <= tolerance (see `tail_bound`),
    that is, only if p >= p_min = (L*(sigma-1)/2)^(1/(1-sigma)) with
    L = log1p(tolerance/floor).  When p_min exceeds MAX_PRIME_LIMIT, no
    step the sieve may reach can certify, so the doubling counts are walked
    with `_ensure_feasible_count` alone to the count at which the loop would
    refuse, and the same error is raised there.  Requests the floor cannot
    rule out are refused, if at all, only once the sieve would pass
    MAX_PRIME_LIMIT.
    """
    sigma = z.real
    if method == METHOD_DIRICHLET:
        # The tail alone fixes the count that meets the tolerance, so an
        # infeasible request is refused before any term is summed.
        needed = count
        while needed <= MAX_DIRICHLET_TERMS and _dirichlet_tail(needed, sigma) > tolerance:
            needed *= 2
        if needed > MAX_DIRICHLET_TERMS:
            raise RuntimeError(
                f"certifying this tolerance needs more than {MAX_DIRICHLET_TERMS} "
                "Dirichlet terms; relax the tolerance or pick another method"
            )
        two, odd = _two_power(z), 0j
    else:
        floor = 0.5 * (sigma - 1.0) / sigma
        log_p_min = math.log(0.5 * (sigma - 1.0) * math.log1p(tolerance / floor)) / (1.0 - sigma)
        if log_p_min > math.log(MAX_PRIME_LIMIT):
            # No step the sieve may reach can certify (see above).
            needed = count
            while True:
                _ensure_feasible_count(offset + needed)
                needed *= 2
    steps: list[EvaluationResult] = []
    running = complex(1.0) if method == METHOD_EULER_PRODUCT else complex(0.0)
    lo = offset
    while True:
        hi = offset + count
        if method == METHOD_DIRICHLET:
            running, odd = _dirichlet_fold(running, odd, lo, hi, z, two)
            value = running
            bound = _dirichlet_tail(hi, sigma)
        else:
            _ensure_feasible_count(hi)
            blocks = _blocks(primes.first_primes(hi)[lo:], z)
            if method == METHOD_EULER_PRODUCT:
                # The new primes' own product first, then into the running
                # one: that order fixes the digits euler_product reports print.
                running *= _product(blocks, z)
                value = running
            else:
                running = _sum(blocks, z, running)
                value = 1.0 + running
            bound = _product_tail(abs(value), tail_bound(hi, sigma))
        steps.append(EvaluationResult(value, method, count, float(bound)))
        if bound <= tolerance:
            return steps
        lo, count = hi, 2 * count


def correction_coefficient(k: int, s, spec: TruncationSpec) -> EvaluationResult:
    """Truncation of the infinite product of 1/(1 - p_j^{-s}) over j >= k.

    Grows the cutoff until the certified tail sits below spec.tolerance.
    The k = 1 case is the full Euler product, i.e. zeta(s) itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    z = as_complex(s)
    if z.real <= 1.0:
        raise NonConvergentError("the tail product", z)
    return _trace(z, METHOD_EULER_PRODUCT, spec.tolerance, count=16, offset=k - 1)[-1]


def convergence_trace(s, method: str, tolerance: float) -> list[EvaluationResult]:
    """Grow a truncated evaluation of zeta(s) until its certified tail bound
    drops below `tolerance`, recording one result per truncation tried.

    Truncations double: prime counts 1, 2, 4, ... for the product methods,
    term counts 16, 32, 64, ... for the Dirichlet sum.
    """
    z = as_complex(s)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not (math.isfinite(tolerance) and tolerance >= MIN_EVAL_TOLERANCE):
        raise ValueError(f"tolerance must be a finite value >= {MIN_EVAL_TOLERANCE}")
    if z.real <= 1.0:
        raise NonConvergentError("zeta evaluation", z)
    return _trace(z, method, tolerance, count=16 if method == METHOD_DIRICHLET else 1)


def zeta_eval(s, method: str = METHOD_REFORMULATED, tolerance: float = 1e-6) -> EvaluationResult:
    """Evaluate zeta(s) for Re(s) > 1 to a certified tolerance.

    `reformulated` returns 1 plus the prime-indexed sum, `euler_product` the
    plain finite product (the two agree identically, so this is a live
    cross-check), `dirichlet` the partial sum of n^{-s}.
    """
    return convergence_trace(s, method, tolerance)[-1]
