"""Prime generation, p-adic valuations, integer factoring, prime log-sums.

Primes come from one sieve over a numpy bool array, dropped before the
larger tuple of primes is built; SIEVE_LIMIT_MAX caps it, and the value
passes over n = 1 .. N (polyring._horner_values) too.  ``_prime_array``
keeps them as int64 arrays too (the last 8 limits), which ``_mod_primes``
reduces an integer by.

Everything here is exact integer arithmetic except the two floating
log-sums, which accumulate in ascending prime order (error budget ~1e-9
relative per 1e6 terms, so far below the 1e-4 tolerances used by tests).

Factoring strategy: trial division by the primes p <= min(isqrt(n), 1e5)
in one numpy pass (``_mod_primes``: n mod p for every p at once, by Horner
over n's 32-bit limbs in int64), so a leftover below 1e10 is prime by the
bound alone; then Brent-cycle Pollard rho on what is left, each factor's
primality decided by Miller-Rabin (deterministic below 3.317e24) or, above
that bound, by the BPSW probable-prime test, which is not a proof.  Inputs
are capped at |m| < 2**128; sequence values at desk scale stay well below.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ResourceLimitError, UnsupportedSizeError

# Hard cap on sieve size; a limit above this raises instead of swapping.
SIEVE_LIMIT_MAX = 1 << 27

FACTOR_INPUT_MAX = 1 << 128

_TRIAL_DIVISION_BOUND = 100_000

# Miller-Rabin with these fixed bases is a proven primality test for all
# n < 3.317e24 (Sorenson-Webster), which covers the 64-bit range with room.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class PrimeTable:
    """Immutable sorted run of all primes <= limit; safe to share."""

    limit: int
    primes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __contains__(self, n: int) -> bool:
        i = bisect_right(self.primes, n) - 1
        return i >= 0 and self.primes[i] == n

    def upto(self, n: int) -> tuple[int, ...]:
        """Primes <= n (requires n <= limit)."""
        if n > self.limit:
            raise ValueError(f"table only covers primes <= {self.limit}")
        return self.primes[: bisect_right(self.primes, n)]


@dataclass(frozen=True)
class Factorization:
    """|value| = prod p**e with primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def product(self) -> int:
        return reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.factors, 1)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors of |value|, sorted."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


_shared_table: PrimeTable | None = None


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit.  Results are cached and shared (immutable)."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_LIMIT_MAX:
        raise ResourceLimitError(f"sieve limit {limit} exceeds budget {SIEVE_LIMIT_MAX}")
    global _shared_table
    if _shared_table is not None and _shared_table.limit >= limit:
        return PrimeTable(limit, _shared_table.upto(limit))
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags)
    del flags
    table = PrimeTable(limit, tuple(map(int, primes)))
    _shared_table = table
    return table


@functools.lru_cache(maxsize=8)
def _prime_array(limit: int) -> np.ndarray:
    """The primes <= limit as a read-only int64 array (empty below 2)."""
    primes = np.array(sieve_primes(limit).primes if limit >= 2 else (), dtype=np.int64)
    primes.flags.writeable = False
    return primes


def _mod_primes(c: int, primes: np.ndarray) -> np.ndarray:
    """c mod p (Python's sign) for each p of the int64 array primes, every
    p < 2**31, also for c outside int64: Horner over |c|'s 32-bit limbs, from
    the top, in int64, where r * 2**32 + limb < p * 2**32 <= 2**63."""
    if -(2**63) <= c < 2**63:
        return np.int64(c) % primes
    m = abs(c)
    limbs = np.frombuffer(m.to_bytes(-(-m.bit_length() // 32) * 4, "big"), ">u4").tolist()
    r = np.zeros(len(primes), dtype=np.int64)
    for limb in limbs:
        r = ((r << 32) + limb) % primes
    return r if c > 0 else -r % primes


def nu(p: int, m: int) -> int:
    """p-adic valuation: the largest k with p**k | m.  Requires m != 0."""
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    m = abs(m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    # True when 'a' certifies compositeness.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # Selfridge parameter choice; n odd, not a perfect square.
    D = 5
    while _jacobi(D, n) != -1:
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas sequence by binary ladder on index d (P = 1).
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic below 3.317e24 (fixed Miller-Rabin bases, a proof).
    Above that bound it is the BPSW probable-prime test (MR base set +
    strong Lucas): no counterexample is known, but it is not a proof."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if _mr_witness(n, a, d, s):
            return False
    if n < _MR_PROVEN_BOUND:
        return True
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_lucas_prp(n)


def _rho_brent(n: int, rng: random.Random) -> int:
    # Nontrivial factor of odd composite n.
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(m: int) -> Factorization:
    """Complete factorization of |m|.  A prime factor below 3.317e24 is
    proven prime; above that bound it passed the BPSW probable-prime test,
    which is not a proof (see is_prime)."""
    if m == 0:
        raise ValueError("cannot factor 0")
    if abs(m) >= FACTOR_INPUT_MAX:
        raise UnsupportedSizeError(f"|m| >= 2**128 unsupported (got {abs(m).bit_length()} bits)")
    n = abs(m)
    counts: dict[int, int] = {}
    if n > 1:
        # One pass finds every prime p <= min(isqrt(n), bound) dividing n.
        primes = _prime_array(_TRIAL_DIVISION_BOUND)
        primes = primes[: np.searchsorted(primes, math.isqrt(n), "right")]
        for p in primes[_mod_primes(n, primes) == 0].tolist():
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts[p] = e
        # n has no prime factor up to min(isqrt(|m|), bound), so n and each
        # piece of it are prime when below the square of the trial bound.
        known_prime = _TRIAL_DIVISION_BOUND * _TRIAL_DIVISION_BOUND
        if n > 1:
            if n < known_prime or is_prime(n):
                counts[n] = counts.get(n, 0) + 1
            else:
                stack = [n]
                rng = random.Random(n ^ 0x9E3779B97F4A7C15)
                while stack:
                    x = stack.pop()
                    if x < known_prime or is_prime(x):
                        counts[x] = counts.get(x, 0) + 1
                        continue
                    d = _rho_brent(x, rng)
                    stack.append(d)
                    stack.append(x // d)
    return Factorization(m, tuple(sorted(counts.items())))


def _plain_sum(xs: Iterable[float]) -> float:
    """The float sum of xs (an array or any iterable) from 0.0, strictly left
    to right as a loop adds: np.sum pairs terms up, and from Python 3.12 on
    the built-in sum() compensates float rounding."""
    terms = xs if isinstance(xs, np.ndarray) else np.fromiter(xs, float)
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def mertens_sum(N: int) -> float:
    """sum over primes p <= N of ln(p)/p, ascending."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    return _plain_sum(math.log(p) / p for p in sieve_primes(N))


def divisor_logsum(k: int) -> float:
    """sum of ln(p)/p over the distinct prime divisors of k (|k| > 1)."""
    if abs(k) <= 1:
        raise ValueError(f"|k| must be > 1, got {k}")
    return _plain_sum(math.log(p) / p for p in factor(k).primes())


def divisor_logsum_table(limit: int) -> np.ndarray:
    """divisor_logsum(k) for every 0 <= k <= limit in one sieve pass.

    Entries 0 and 1 are 0.0 (divisor_logsum is undefined there).  Used for
    range-exhaustive bound checks; spot-agreement with divisor_logsum is
    part of the test suite.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    out = np.zeros(limit + 1, dtype=np.float64)
    for p in sieve_primes(limit):
        out[p::p] += math.log(p) / p
    return out
