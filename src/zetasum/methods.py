"""Finite Euler products over primes, the equivalent prime-indexed sums,
plain Dirichlet partial sums, and certified evaluation of zeta(s) for
Re(s) > 1.

One vectorised n^{-s} (`_power_terms`) serves every route.  Over primes,
one block iterator (`_blocks`) yields p, t = p^{-s} and f = 1/(1 - t) chunk
by chunk, with the overflow and singular-point checks, and two reductions
consume it: the product multiplies the factors, and the prime-indexed sum
folds forward by the paper's induction step S_{i+1} = f_{i+1}*(t_{i+1} + S_i).
`_identity` runs both in one pass.  `oracle`'s sums take their powers from
`_power_terms` too.  `kernel`'s scalar powers are the reference the tests
compare against; the library calls them only for single powers, in
`oracle`'s coefficient checks and the `exclusion` report
(`kernel.prime_power_term`).  Every fold works in cache-sized blocks of
`_CHUNK` terms and holds one block at a time, so its memory does not grow
with the number of terms.

The Dirichlet sum D(x) = sum_{n <= x} n^{-s} uses the first Euler factor
as a finite identity: every even n <= x is 2m with m <= floor(x/2), so
D(x) = 2^{-s}*D(floor(x/2)) + O(x) with O(x) the odd-n part.  One fold from
0 up the cuts x = N >> k evaluates only the odd powers and returns D at
every cut (`_dirichlet_fold`).  The lowest cuts' odd powers and 2^{-s} come
from one call, the head batch of at most one block, so a request's fixed
cost is paid once, not once per cut.

Each certified request computes what depends on s and the method alone
once: `_zeta_bounds`, and the constants of the closed forms for rounding
(`_rounding_of`) and for the product tail (`_log_tail_of`), which
`_walk_to_feasible` then evaluates at every doubling count.

The three evaluation methods and the tail products share one doubling
driver (`_trace`): record the value at each doubling count together with
an honest upper bound on its distance to the limit, and stop once that
bound drops below the requested tolerance.  The products fold each new
window of primes into a running product or sum; a Dirichlet request is one
fold, whose cuts are its doubling counts.  Every bound is truncation plus
rounding.  The product tail is a sum over primes only, bounded by partial
summation against Rosser & Schoenfeld's bounds on pi(x) and combined with
|log(1-z)| <= |z|/(1-|z|) (`tail_bound`).  The Dirichlet tail is the
smaller of the integral bound and a second-order Euler-Maclaurin bound
(`_dirichlet_tail`).  Rounding is one closed form per step (`_rounding_of`):
the error of each power, mostly in its phase, plus the roundings a term
meets on its way through the fold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import primes
from .kernel import (
    DEFAULT_SINGULAR_TOL,
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

# Terms per block in every vectorised fold, and integers per block in
# `oracle`'s partition.  A block of 2^16 primes keeps its powers and factors
# in 2 MiB, about one core's L2 cache; a fold's tracemalloc peak is then
# 2.5 MiB (product) or 4 MiB (sum), whatever the number of primes.  Folding
# 2^20 primes at s = 2+10i, fastest of 8 in-process runs on a 2-core Xeon
# with 2 MiB of L2 per core, for blocks of 2^14 .. 2^20:
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

# n^{-z} = exp(-z*ln n) is finite when Re(-z*ln n) <= _LOG_SAFE (at most
# max_double/e) and |Im(-z*ln n)| <= _PHASE_SAFE (no overflow in the phase).
_LOG_SAFE = math.log(sys.float_info.max) - 1.0
_PHASE_SAFE = 0.5 * sys.float_info.max


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
    """How far finite computations may run and how tight their tails must be."""

    prime_index_i: int = 20
    dirichlet_cutoff_N: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.prime_index_i < 1:
            raise ValueError("prime_index_i must be >= 1")
        if self.dirichlet_cutoff_N < 1:
            raise ValueError("dirichlet_cutoff_N must be >= 1")
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
        # This frame lives on across the yield: hold no array beyond t and f,
        # and none of them once the consumer asks for the next block.
        del gap
        yield p, t, np.divide(1.0, d, out=d)
        del t, d


def _finite(x: complex) -> bool:
    return math.isfinite(x.real) and math.isfinite(x.imag)


def _overflow(what: str, n: int, z: complex) -> PowerOverflowError:
    # Named for the running aggregate `what` that left the range, not n^(-s).
    error = PowerOverflowError(n, z)
    error.args = (f"{what} exceeds the double-precision range at s = {z}",)
    return error


def _checked_fold(folded: complex, p: np.ndarray, carry: complex, f: np.ndarray,
                  z: complex) -> complex:
    """`folded` if finite; else raise at the first p where carry*f[0]*...*f[k],
    multiplied in that order, is not finite (the block's last prime if none is)."""
    if _finite(folded):
        return folded
    with np.errstate(all="ignore"):
        running = np.cumprod(np.concatenate(([carry], f)))[1:]
    bad = np.flatnonzero(~np.isfinite(running))
    at = int(p[bad[0]]) if bad.size else int(p[-1])
    raise _overflow(f"the running Euler product at prime {at}", at, z)


def _product(blocks, z: complex, out: complex = complex(1.0)) -> complex:
    """`out` times every factor f in the blocks, one block product at a time."""
    for p, _, f in blocks:
        with np.errstate(all="ignore"):
            out = _checked_fold(out * complex(f.prod()), p, out, f, z)
        # Free this block before `blocks` builds the next: one block's memory.
        del p, _, f
    return out


def _sum(blocks, z: complex, total: complex = 0j) -> complex:
    """Fold the blocks into the prime-indexed sum `total`.

    The induction step S_{i+1} = f_{i+1}*(t_{i+1} + S_i), applied to a whole
    block at once: S <- (product of the block's f)*S + sum of t times the
    block's suffix products of f.  A suffix product that is not finite leaves
    S not finite, located from the carry 1 + S, the running Euler product.
    """
    for p, t, f in blocks:
        with np.errstate(all="ignore"):
            # Complex even for real s: numpy sums complex arrays in another
            # order than real ones, and the real-s reports follow the former.
            suffix = np.cumprod(f[::-1], dtype=complex)[::-1]
            total = _checked_fold(complex(suffix[0]) * total + complex((t * suffix).sum()),
                                  p, 1.0 + total, f, z)
        del p, t, f, suffix  # as in `_product`
    return total


def _dirichlet_fold(N: int, z: complex) -> list[complex]:
    """D(c), the sum of n^{-z} over n <= c, at every cut c = N >> k, in
    ascending order, from one fold from 0.

    With O(c) the odd-n part, D(c) = 2^{-z}*D(c >> 1) + O(c), so only the odd
    powers are evaluated: each cut adds the odd n in (c >> 1, c] to O.  A cut
    whose odd n fit in the head batch, one `_power_terms` call of at most
    `_CHUNK` terms (2^{-z}, then the odd powers of the lowest cuts), sums its
    own slice of it, the terms its own call would have summed, in the same
    pairwise order, so batching changes no bit.  A fold to at most
    2*`_CHUNK` - 2 makes that one call however many cuts it walks.  A larger
    cut takes its odd powers `_CHUNK` at a time, in windows aligned to the cut.

    An even power is never evaluated, so when it is not finite neither O nor
    D need show it (complex terms cancel).  Over a window, -z*ln n has its
    largest real part (for Re(z) < 0) and its largest imaginary part in
    modulus at n = c, so one test per window tells when some n^{-z} there
    may not be finite.  Such a window is evaluated term by term for the check
    alone, so the error names the lowest n whose n^{-z} is not finite, as
    summing every power would.  Every window is tested before any is summed;
    a window that passes its test holds only finite powers, so no sum could
    have raised first.  When every power is finite but D or O is not, the
    error names `N`.
    """
    cuts = [N >> k for k in range(N.bit_length() - 1, -1, -1)]
    for c in cuts:
        ln_c = math.log(c)
        if -z.real * ln_c > _LOG_SAFE or abs(z.imag) * ln_c > _PHASE_SAFE:
            for a in range((c >> 1) + 1, c + 1, _CHUNK):
                _power_terms(np.arange(a, min(c + 1, a + _CHUNK), dtype=np.float64), z)
    # Slot 0 of the head holds 2^{-z}, slot j the j-th odd n, so the odd
    # n <= c, (c + 1) // 2 of them, end at slot (c + 1) // 2.  For N = 1,
    # which has no even n, slot 0 holds 1^{-z}, only ever times D(0) = 0.
    head = [c for c in cuts if (c + 1) // 2 < _CHUNK]
    n = np.arange(-1, head[-1] + 1, 2, dtype=np.float64)
    n[0] = min(N, 2)
    t = _power_terms(n, z)
    two, total, odd, values = complex(t[0]), 0j, 0j, []
    with np.errstate(over="ignore", invalid="ignore"):
        for c in cuts:
            if (c + 1) // 2 < _CHUNK:
                w = t[1 + ((c >> 1) + 1) // 2 : 1 + (c + 1) // 2]
                if w.size:
                    odd += complex(w.sum())
            else:
                # Hold one block at a time: drop the head before the windows.
                n = t = w = None
                for a in range(((c >> 1) + 1) | 1, c + 1, 2 * _CHUNK):
                    n = np.arange(a, min(c + 1, a + 2 * _CHUNK), 2, dtype=np.float64)
                    odd += complex(_power_terms(n, z).sum())
            total = two * total + odd
            values.append(total)
    if not (_finite(total) and _finite(odd)):
        raise _overflow(f"the partial sum at cutoff {N}", N, z)
    return values


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


def _identity(i: int, s) -> tuple[complex, complex]:
    """euler_partial(i, s) and reform_partial(i, s) from one pass over the
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
        del block  # as in `_product`
    if sum_error is not None:
        raise sum_error
    return product, total


def identity_residual(i: int, s) -> float:
    """|product - 1 - sum| over the first i primes.

    Analytically zero everywhere off the singular lattice, so the returned
    size is pure floating-point error.
    """
    product, total = _identity(i, s)
    return abs(product - 1.0 - total)


def induction_step_check(i: int, s) -> float:
    """Residual of rebuilding the (i+1)-prime product from the i-prime sum.

    With t = p_{i+1}^{-s} and f = 1/(1 - t), returns
    |f*(t + sum_i) + 1 - product_{i+1}|, the intermediate identity of the
    inductive argument.  One pass of i + 1 powers: `_identity` gives
    product_i and sum_i, p_{i+1} is a one-prime block of `_blocks` (with
    its checks), and product_{i+1} is product_i times its factor.
    """
    z = as_complex(s)
    product, total = _identity(i, z)
    block = next(_blocks(primes.first_primes(i + 1)[i:], z))
    _, t, f = block
    step = complex(f[0]) * (complex(t[0]) + total) + 1.0
    return abs(step - _product([block], z, product))


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
    return _dirichlet_fold(N, as_complex(s))[-1]


# ----------------------------------------------------------------------
# certified tails and rounding

_U = 2.0 ** -53  # unit roundoff of a double
_SQRT5 = math.sqrt(5.0)  # |fl(a*b) - a*b| <= sqrt(5)*u*|a*b| for complex a, b


def _expm1(x: float) -> float:
    # An upper bound on e^x - 1: math.expm1 raises past x = 709.78.
    return math.expm1(x) if x < 709.0 else math.inf


def _zeta_bounds(sigma: float) -> tuple[float, float, float]:
    """(lo, hi, d) with lo <= zeta(sigma) <= hi and -zeta'(sigma) <= d, for
    sigma > 1, in closed form.

    lo is the first eight terms of the series.  hi and d add, for the rest,
    the integral of n^-sigma or of n^-sigma*ln n over [8.5, inf): both are
    convex for n >= 5, and a convex f has f(n) <= the integral of f over
    [n - 1/2, n + 1/2].
    """
    head = [k ** -sigma for k in range(1, 9)]
    lo = math.fsum(head)
    c = sigma - 1.0
    rest = 8.5 ** -c
    d = math.fsum(h * math.log(k) for k, h in enumerate(head, 1))
    return lo, lo + rest / c, d + rest * (math.log(8.5) / c + 1.0 / (c * c))


def _product_floor(sigma: float, zeta: tuple[float, float, float]) -> float:
    """A lower bound on the modulus of every truncated or tail Euler product
    at Re(s) = sigma > 1; `zeta` is `_zeta_bounds`(sigma).

    Each factor has |1/(1 - p^{-s})| >= 1/(1 + p^{-sigma}), which is below 1,
    so a product over any set of primes has modulus at least the product of
    1/(1 + p^{-sigma}) over all primes, zeta(2*sigma)/zeta(sigma).
    """
    return _zeta_bounds(2.0 * sigma)[0] / zeta[1]


def _integral_tail(x: float, sigma: float) -> float:
    """x^(1-sigma)/(sigma-1) >= the sum of n^-sigma over n > x, for sigma > 1."""
    return x ** (1.0 - sigma) / (sigma - 1.0)


def _log_tail_of(sigma: float) -> Callable[[float], float]:
    """x -> an upper bound on the sum of |log(1 - p^{-s})| over primes p > x,
    for Re(s) = sigma > 1 and x >= 2; nonincreasing in x (see `tail_bound`).
    The constants that depend on sigma alone are computed once."""
    slope = primes.PI_UPPER * sigma / (sigma - 1.0) - 1.0

    def log_tail(x: float) -> float:
        bound = 2.0 * _integral_tail(x, sigma)
        if x >= 17:
            over_primes = x ** (1.0 - sigma) / math.log(x) * slope
            bound = min(bound, over_primes / (1.0 - x ** -sigma))
        return bound

    return log_tail


def tail_bound(i: int, sigma: float) -> float:
    """Upper bound on |log| of the product of 1/(1 - p^{-s}) over primes past
    the i-th, valid for any s with Re(s) = sigma > 1.

    With z = p^{-s}, |log(1 - z)| = |sum_k z^k/k| <= |z|/(1 - |z|), so the
    bound is sum_{p > x} p^{-sigma}/(1 - x^{-sigma}) with x = p_i, and the
    sum over primes is bounded in one of two ways:

    - by the sum over all integers past x, <= x^(1-sigma)/(sigma-1); with
      |log(1 - z)| <= 2|z| for |z| <= 1/2 this gives 2*x^(1-sigma)/(sigma-1),
      the only bound used for x < 17;
    - for x >= 17, by partial summation against pi:
      sum_{p > x} p^{-sigma} = -pi(x)*x^{-sigma} + sigma * integral_x^inf
      pi(t)*t^(-sigma-1) dt, and with pi(x) > x/ln x for x >= 17 and
      pi(t) < 1.25506*t/ln t (Rosser & Schoenfeld, Illinois J. Math. 6,
      1962; `primes.PI_UPPER`) and 1/ln t <= 1/ln x this is at most
      x^(1-sigma)/ln x * (1.25506*sigma/(sigma-1) - 1).

    The smaller of the two is returned; past x = 17 the second is smaller
    by a factor of about ln x.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    sigma = float(sigma)
    if not sigma > 1.0:
        raise ValueError("sigma must exceed 1")
    return _log_tail_of(sigma)(primes.nth_prime(i))


def _dirichlet_tail(N: int, z: complex) -> float:
    """Upper bound on |sum_{n > N} n^{-z}| for Re(z) = sigma > 1.

    The smaller of the integral bound N^(1-sigma)/(sigma-1) and the
    second-order Euler-Maclaurin bound.  With f(x) = x^{-z},
    sum_{n > N} f(n) = N^(1-z)/(z-1) - N^{-z}/2 + z*N^(-z-1)/12 + R, where
    R = -(1/2)*integral_N^inf B2({x})*f''(x) dx and |B2({x})| <= 1/6, so
    |R| <= |z(z+1)|*N^(-sigma-1)/(12*(sigma+1)).  For real z the integral
    bound is the smaller; for |Im z| >> sigma - 1 the first term shrinks
    by (sigma-1)/|z-1|.
    """
    sigma = z.real
    euler_maclaurin = (N ** (1.0 - sigma) / abs(z - 1.0) + 0.5 * N ** -sigma
                       + abs(z) * N ** (-sigma - 1.0) / 12.0 * (1.0 + abs(z + 1.0) / (sigma + 1.0)))
    return min(_integral_tail(N, sigma), euler_maclaurin)


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
    `method` truncation at `count` terms past its start, as `_trace` folds
    it; `magnitude` is |computed value| (unused by the Dirichlet route), and
    `zeta` is `_zeta_bounds`(Re(z)).  The parts that depend on z and the
    method alone are computed once, each expression in the order the closed
    form below is written, so a bound has the same bits however it is split.

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

    def blocks_and_factors(count: int) -> tuple[int, float]:
        blocks = count // _CHUNK + 2 * (count.bit_length() + 1)
        return blocks, _U * (fixed + per_prime * count)

    if method == METHOD_EULER_PRODUCT:
        def product(count: int, magnitude: float) -> float:
            blocks, factors = blocks_and_factors(count)
            e = _expm1(factors + per_block * blocks)
            return magnitude * e / (1.0 - e) if e < 1.0 else math.inf

        return product
    prime_zeta = math.log(hi)
    terms = _U * (phase * log_derivative + 6.0 * prime_zeta)

    def reformulated(count: int, magnitude: float) -> float:
        blocks, factors = blocks_and_factors(count)
        path = multiply * (count + blocks) + depth + blocks
        return hi * (terms + prime_zeta * (factors + _U * path)) + _U * magnitude

    return reformulated


def _walk_to_feasible(z: complex, method: str, tolerance: float, count: int,
                      offset: int, magnitude: float,
                      rounding_bound: Callable[[int, float], float],
                      log_tail: Callable[[float], float]) -> int:
    """Walk the doubling counts from `count` with closed forms alone and
    return the first that may certify a value of modulus >= `magnitude`;
    refuse at the first past a limit or whose rounding alone exceeds the
    tolerance, as no count after it can certify (see `_trace`).
    `rounding_bound` and `log_tail` are the request's `_rounding_of` and
    `_log_tail_of`, built once for every walk of a request.

    A refusal at the sieve limit names the count before the one it stopped
    at, which fell short (in this walk, an earlier one or a step of
    `_trace`) or lies below the first count `_trace` tries.  The count it
    stopped at is only bounded, by `primes.prime_ceiling`, so it is not
    named.
    """
    while True:
        if method == METHOD_DIRICHLET:
            if count > MAX_DIRICHLET_TERMS:
                raise RuntimeError(
                    f"certifying this tolerance needs more than {MAX_DIRICHLET_TERMS} "
                    "Dirichlet terms; relax the tolerance or pick another method"
                )
            truncation = _dirichlet_tail(count, z)
        else:
            x = primes.prime_ceiling(offset + count)
            if x > MAX_PRIME_LIMIT:
                raise RuntimeError(
                    f"certifying this tolerance needs more than the first "
                    f"{offset + count // 2} primes, and going further may need a sieve past "
                    f"the limit {MAX_PRIME_LIMIT}; relax the tolerance or pick another method"
                )
            truncation = magnitude * _expm1(log_tail(x))
        rounding = rounding_bound(count, magnitude)
        if rounding > tolerance:
            raise RuntimeError(
                f"rounding alone may reach {rounding:.3e} at s = {z}, above the "
                f"tolerance {tolerance:.3e}; relax the tolerance"
            )
        if truncation + rounding <= tolerance:
            return count
        count *= 2


# ----------------------------------------------------------------------
# adaptive evaluation

def _trace(z: complex, method: str, tolerance: float, count: int,
           offset: int = 0, every_step: bool = True) -> list[EvaluationResult]:
    """The doubling driver behind every adaptive evaluation.

    Truncates at `count`, 2*`count`, 4*`count`, ... terms past the first
    `offset` primes (Dirichlet runs have offset 0).  For the products each
    step folds only its new primes, those at positions lo..offset+count-1
    (0-based) with lo the previous step's end, into one running product or
    prime-indexed sum, so each power is computed once over the whole run.
    Records one result per step, with terms_used = count, and stops once
    its certified bound is <= tolerance.  A Dirichlet run is one
    `_dirichlet_fold` to the count the walk returns (see below).

    Each step's bound is truncation plus rounding.  Rounding is
    r = `_rounding_of`, which bounds |value - exact truncation|.  Truncation is
    `_dirichlet_tail` for Dirichlet runs.  For products it is
    (|value| + r)*expm1(b), with b = `tail_bound` at the step's last prime:
    the exact truncation has modulus at most |value| + r, and the remaining
    factor differs from 1 by at most expm1(b).

    Before any work, `_walk_to_feasible` walks the doubling counts with
    closed forms alone and stops at the first that may certify.  Every
    value has modulus at least `floor` (0 for Dirichlet runs, whose bound
    does not depend on the value; for products `_product_floor`, or 1 for
    real s), and the n-th prime is at most `primes.prime_ceiling`(n), so a
    product count certifies only if floor*expm1(b) + r(floor) <= tolerance
    with b taken at that ceiling (`_log_tail_of` is nonincreasing).  The walk
    refuses at the first count past MAX_DIRICHLET_TERMS, whose sieve would
    pass MAX_PRIME_LIMIT, or whose r(count, floor) alone exceeds the
    tolerance: r is nondecreasing in count and in modulus, so no later count
    certifies.  The loop checks none of the three: each count it reaches is
    at most the count the latest walk returned, which passed, and all three
    are monotone in count.  After each product step, `floor` is raised to
    that step's own lower bound on every later modulus, (|value| - r)*exp(-b),
    when that is larger, and the walk resumes at the count it stopped at: a
    larger floor only makes the counts it passed less feasible.

    With `every_step` (`convergence_trace`, which reports the whole story)
    the loop steps through every doubling count from `count`.  Without it
    (`zeta_eval`, `correction_coefficient`) each step goes straight to the
    count the walk returned, so the first window is [offset, offset + that
    count) and a run usually folds once.  No skipped count could certify:
    at every count c the walk passed over, |value| >= floor,
    p_c <= `prime_ceiling`(c) with `_log_tail_of` nonincreasing, and r is
    nondecreasing in the modulus, so the loop's bound at c is at least the
    walk's closed form there, which exceeds the tolerance.  So both modes
    answer or refuse alike, with the same terms_used.  Product values, and
    so their bounds, differ in the last digits, as fewer, wider windows
    group the fold differently; a bound within that of the tolerance, or a
    refusal after a step (whose floor comes from other steps), could differ
    too.

    A Dirichlet step's bound, `_dirichlet_tail` plus r(count, 0), is the
    walk's closed form expression for expression, so the count the walk
    returns is the first that certifies, and the doubling counts below it
    are the cuts of one fold to it.  That fold gives every step's value, so
    both modes report the same D(count) and bound, and the loop folds
    products only.
    """
    sigma = z.real
    zeta = _zeta_bounds(sigma)
    if method == METHOD_DIRICHLET:
        floor = 0.0
    else:
        # For real s every factor exceeds 1, and so does every product.
        floor = 1.0 if z.imag == 0.0 else _product_floor(sigma, zeta)
    rounding_bound, log_tail = _rounding_of(z, method, zeta), _log_tail_of(sigma)
    needed = _walk_to_feasible(z, method, tolerance, count, offset, floor, rounding_bound, log_tail)
    if method == METHOD_DIRICHLET:
        kept = (needed // count).bit_length() if every_step else 1
        values = _dirichlet_fold(needed, z)[-kept:]
        return [EvaluationResult(value, method, c, _dirichlet_tail(c, z) + rounding_bound(c, 0.0))
                for value, c in zip(values, (needed >> k for k in range(kept - 1, -1, -1)))]
    steps: list[EvaluationResult] = []
    running = complex(1.0) if method == METHOD_EULER_PRODUCT else complex(0.0)
    lo = offset
    while True:
        if not every_step:
            count = needed
        hi = offset + count
        blocks = _blocks(primes.first_primes(hi)[lo:], z)
        if method == METHOD_EULER_PRODUCT:
            # The new primes' own product first, then into the running
            # one: that order fixes the digits euler_product reports print.
            running *= _product(blocks, z)
            value = running
        else:
            running = _sum(blocks, z, running)
            value = 1.0 + running
        rounding = rounding_bound(count, abs(value))
        b = log_tail(primes.nth_prime(hi))
        bound = (abs(value) + rounding) * _expm1(b) + rounding
        steps.append(EvaluationResult(value, method, count, float(bound)))
        if bound <= tolerance:
            return steps
        lo, count = hi, 2 * count
        # The factors past p_hi change |log| of every later value by at
        # most b, so each has modulus at least this.
        floor = max(floor, (abs(value) - rounding) * math.exp(-b))
        needed = _walk_to_feasible(z, method, tolerance, max(count, needed), offset, floor,
                                   rounding_bound, log_tail)


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
    return _trace(z, METHOD_EULER_PRODUCT, spec.tolerance, count=16, offset=k - 1,
                  every_step=False)[-1]


def _checked_trace(s, method: str, tolerance: float, every_step: bool) -> list[EvaluationResult]:
    """Check a request for zeta(s), then `_trace` it from the method's first count."""
    z = as_complex(s)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_tolerance(tolerance)
    if z.real <= 1.0:
        raise NonConvergentError("zeta evaluation", z)
    return _trace(z, method, tolerance, count=16 if method == METHOD_DIRICHLET else 1,
                  every_step=every_step)


def convergence_trace(s, method: str, tolerance: float) -> list[EvaluationResult]:
    """Grow a truncated evaluation of zeta(s) until its certified tail bound
    drops below `tolerance`, recording one result per truncation tried.

    Truncations double: prime counts 1, 2, 4, ... for the product methods,
    term counts 16, 32, 64, ... for the Dirichlet sum.
    """
    return _checked_trace(s, method, tolerance, every_step=True)


def zeta_eval(s, method: str = METHOD_REFORMULATED, tolerance: float = 1e-6) -> EvaluationResult:
    """Evaluate zeta(s) for Re(s) > 1 to a certified tolerance.

    `reformulated` returns 1 plus the prime-indexed sum, `euler_product` the
    plain finite product (the two agree identically, so this is a live
    cross-check), `dirichlet` the partial sum of n^{-s}.  It folds only the
    counts that may certify (see `_trace`), so terms_used is that of
    `convergence_trace`'s last step, and a product value may differ from
    its value by rounding, as it is folded in fewer, wider windows.
    """
    return _checked_trace(s, method, tolerance, every_step=False)[-1]
