"""Exact integer-polynomial arithmetic for the shift family f_a = f0 - a.

Covers discriminants via the subresultant form of Res(f, f') (for a shift
family, D(a) = disc(f0 - a) is interpolated once from d subresultant values
and then evaluated), and exact irreducibility over Q (complete for degree
<= 10).  The subresultant sequence runs on plain coefficient lists, and its
pseudo-remainder _prem is the one the Kronecker stage reads.  One exact
integer interpolation, _interpolate, serves both D(a) and stage 3 below.

Irreducibility pipeline (all stages exact; no probabilistic answers), one
path, _verdicts, for a range of shifts f0 - a of any integer family after
the degree and primitivity checks (shift a is primitive iff
gcd(c_1, ..., c_d, c_0 - a) = 1, periodic in a); degree 1 is irreducible:
  stage 0  Capelli's criterion for a monic binomial x^d + c: the few
           reducible shifts it names are listed, not tested one by one
  stage 1  rational roots: a root u/v of f0 - a has v | lc and lies within
           Fujiwara's root bound, so one scan of v^d f0(u/v) over that
           bound finds every shift with one, or, when the scan is longer,
           a divisor test per shift; this settles degree <= 3 outright
  stage 2  factor-degree patterns modulo primes where f0 - a keeps its
           degree and a squarefree image (p not dividing lc*D(a)): one numpy
           pass per pattern prime over the shifts still undecided, each
           keeping its own count of primes used and candidate bits; an
           irreducible image, or incompatible subset sums, certify
           irreducibility, and D(a) = 0, so f0 - a is reducible, once the
           squared product of the primes it could not use exceeds Hadamard's
           bound on (lc*D(a))^2 = Res(f0 - a, f0')^2 over the range
  stage 3  Kronecker interpolation search over the surviving factor
           degrees, pruned with a Mignotte coefficient bound: a candidate
           is the integer interpolant of divisors of f at k + 1 nodes, and
           a zero pseudo-remainder decides that it divides f over Q

irreducible_shifts runs it over a window, reading the subset sums of the
pattern of f0 - a mod p at a mod p from rows kept per family (the last 8),
each entry built the first time a window meets its residue; a row reads 0
where that pattern is None, that is where p | lc*D(a).  Every shift of a
family reaches its verdict this way, the ensembles' windows and draws and
decomp's report alike (the report asks for the window [a, a + 1)), so
repeated shifts of one family reuse its rows.  is_irreducible_over_Q is the
one-off path: the same pipeline with f its own family at shift 0 and
pattern rows that are not kept.  No verdict computes a discriminant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import ntkernel
from .errors import InternalConsistencyError, ResourceLimitError


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients ascending (c0 ... cd)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def __call__(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def content(self) -> int:
        return math.gcd(*self.coeffs)  # 0 for the zero polynomial

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Ascending comma-separated coefficients, e.g. "0,2,0,1" = x^3+2x."""
        try:
            return cls(tuple(int(t.strip()) for t in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad polynomial text {text!r}: {exc}") from None

    def format(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


@dataclass(frozen=True)
class ShiftedPoly:
    """f_a(x) = f0(x) - a."""

    base: IntPoly
    shift: int

    def __call__(self, n: int) -> int:
        return self.base(n) - self.shift

    def to_poly(self) -> IntPoly:
        c = list(self.base.coeffs) or [0]
        c[0] -= self.shift
        return IntPoly(tuple(c))


PolyLike = Union[IntPoly, ShiftedPoly]


def as_poly(f: PolyLike) -> IntPoly:
    return f.to_poly() if isinstance(f, ShiftedPoly) else f


def _coeff_bound(coeffs: tuple[int, ...], N: int) -> int:
    # B = sum |c_i| N**i bounds |f(n)| and every Horner partial sum, |n| <= N
    return sum(abs(c) * N**i for i, c in enumerate(coeffs))


def _horner_values(coeffs: tuple[int, ...], N: int, dtype: type) -> np.ndarray:
    """[f(1), ..., f(N)] by one Horner pass over the array 1..N, in dtype:
    np.int64 only when _coeff_bound(coeffs, N) fits it, else object.  N is
    held to the sieve's budget, ntkernel.SIEVE_LIMIT_MAX, before anything is
    allocated."""
    if N > ntkernel.SIEVE_LIMIT_MAX:
        raise ResourceLimitError(f"N = {N} values exceed budget {ntkernel.SIEVE_LIMIT_MAX}")
    n = np.arange(1, N + 1, dtype=dtype)
    values = np.zeros_like(n)
    for c in reversed(coeffs):
        values = values * n + c
    return values


def _horner_mod(coeffs: Sequence[int], xs: np.ndarray, p: int) -> np.ndarray:
    """f(x) mod p for every x of the int64 array xs (entries in [0, p)), by
    one Horner pass over the coefficients reduced mod p: every acc * x + c is
    below p**2, so int64 holds it for p < 2**31."""
    acc = np.zeros(xs.shape, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c % p) % p
    return acc


def _prem(A: Sequence[int], B: Sequence[int]) -> list[int]:
    # Pseudo-remainder of ascending coefficient lists, A and B without
    # trailing zeros and B nonzero: lc(B)^(deg A - deg B + 1) * A = Q*B + R
    # with deg R < deg B.  R comes back trimmed, [] when it is zero.
    dB = len(B) - 1
    lcB = B[-1]
    low = B[:-1]
    R = list(A)
    e = len(R) - dB  # deg A - deg B + 1
    while len(R) > dB:
        # R <- lcB * R - lc(R) x^(deg R - deg B) B, which cancels lc(R).
        c = R.pop()
        R = [lcB * x for x in R]
        off = len(R) - dB
        for j, y in enumerate(low):
            R[off + j] -= c * y
        while R and not R[-1]:
            R.pop()
        e -= 1
    if e > 0:
        k = lcB**e
        R = [k * x for x in R]
    return R


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) by the subresultant polynomial remainder sequence, run on
    plain coefficient lists."""
    A, B = f.coeffs, g.coeffs
    if not A or not B:
        return 0
    s = 1
    if len(A) < len(B):
        if len(A) % 2 == 0 and len(B) % 2 == 0:  # both degrees odd
            s = -1
        A, B = B, A
    dA, dB = len(A) - 1, len(B) - 1
    if dA == 0:
        return 1
    ca, cb = math.gcd(*A), math.gcd(*B)
    A, B = [c // ca for c in A], [c // cb for c in B]
    t = ca**dB * cb**dA
    if dB == 0:
        return s * t * B[0] ** dA
    g_, h = 1, 1
    while True:
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        if not R:
            return 0  # nontrivial gcd
        q = g_ * h**delta
        A, B = B, [c // q for c in R]
        dA, dB = dB, len(B) - 1
        g_ = A[-1]
        h = h if delta == 0 else g_**delta // h ** (delta - 1)
        if dB == 0:
            break
    return s * t * (B[0] ** dA // h ** (dA - 1))


def discriminant(f: PolyLike) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f), exactly."""
    f = as_poly(f)
    d = f.degree
    if d < 2:
        raise ValueError(f"discriminant needs degree >= 2, got {d}")
    res = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // f.lc


class _DiscFamily:
    """D(a) = disc(f0 - a) for one family.  D has integer coefficients and
    degree <= d - 1 in a (a enters only the constant term of f0 - a).  The
    first d distinct shifts asked about are computed by subresultants and
    kept as nodes; D is then interpolated from them (self.poly), and every
    shift after that is one Horner evaluation of it."""

    def __init__(self, f0: IntPoly):
        self.f0 = f0
        self.nodes: dict[int, int] = {}
        self.poly: IntPoly | None = None

    def __call__(self, a: int) -> int:
        if self.poly is not None:
            return self.poly(a)
        D = self.nodes.get(a)
        if D is None:
            D = discriminant(ShiftedPoly(self.f0, a).to_poly())
            self.nodes[a] = D
            if len(self.nodes) == self.f0.degree:
                self.poly = _interpolate(list(self.nodes.items()))
                if self.poly is None:
                    raise InternalConsistencyError("discriminant is not an integer polynomial in a")
        return D

    def fill(self) -> IntPoly:
        """D, interpolated from the nodes computed so far, completed from
        a = 0, 1, ...  D is unique, so the nodes do not change it."""
        for a in itertools.count():
            if self.poly is not None:
                return self.poly
            self(a)


def _interpolate(points: list[tuple[int, int]]) -> IntPoly | None:
    # The polynomial through the points (distinct integer x), or None when
    # its coefficients are not all integers.  Divided differences of an
    # integer polynomial at integer nodes are integers, so an inexact
    # division shows a non-integer coefficient, and exact ones leave an
    # integer Newton form, expanded here into ascending coefficients.
    xs = [x for x, _ in points]
    dd = [y for _, y in points]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - j])
            if r:
                return None
            dd[i] = q
    # dd[0] + (x - xs[0])(dd[1] + (x - xs[1])(...)), inside out
    coeffs = [dd[-1]]
    for x, c in zip(reversed(xs[:-1]), reversed(dd[:-1])):
        coeffs = [u - x * w for u, w in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += c
    return IntPoly(tuple(coeffs))


@lru_cache(maxsize=8)
def _disc_family(f0_coeffs: tuple[int, ...]) -> _DiscFamily:
    return _DiscFamily(IntPoly(f0_coeffs))


def _family_discriminant(f0: IntPoly, a: int) -> int:
    """disc(f0 - a), read from the family's discriminant polynomial; raises
    discriminant's ValueError when deg f0 < 2."""
    return _disc_family(f0.coeffs)(a)


def is_primitive(f: IntPoly) -> bool:
    """True iff no prime divides all coefficients."""
    if f.is_zero:
        raise ValueError("primitivity of the zero polynomial is undefined")
    return f.content() == 1


# ---------------------------------------------------------------------------
# Irreducibility over Q
# ---------------------------------------------------------------------------


def _integer_nth_root(n: int, k: int) -> int:
    # floor(n ** (1/k)) for n >= 0, by integer Newton iteration
    if n < 0:
        raise ValueError
    if n in (0, 1) or k == 1:
        return n
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _binomial_shifts(f0: IntPoly, lo: int, hi: int) -> bytes:
    # Byte i is 1 iff f0 - (lo + i) is irreducible over Q, for a in [lo, hi)
    # and f0 = x^d + c, d >= 2.  By Capelli, x^d - m (m = a - c) is
    # irreducible iff m is no t-th power for any prime t | d and, when 4 | d,
    # m != -4 b^4; the few reducible m are listed instead of testing each.
    d, c = f0.degree, f0.coeffs[0]
    u, v = lo - c, hi - c  # m ranges over [u, v)
    reducible = set()
    for t in set(ntkernel.factor(d).primes()):
        reducible.update(_powers_in(t, max(u, 0), v))
        if t % 2:
            reducible.update(-m for m in _powers_in(t, max(1 - v, 0), 1 - u))
    if d % 4 == 0:
        reducible.update(-4 * s for s in _powers_in(4, max(-v // 4 + 1, 0), -u // 4 + 1))
    out = bytearray(b"\x01" * max(hi - lo, 0))
    for m in reducible:
        out[m + c - lo] = 0
    return bytes(out)


def _powers_in(t: int, u: int, v: int) -> list[int]:
    # Every b**t in [u, v), for 0 <= u and integers b >= 0.
    if u >= v:
        return []
    return [b**t for b in range(_ceil_root(u, t), _integer_nth_root(v - 1, t) + 1)]


def _has_rational_root(f: IntPoly) -> bool:
    # f primitive with f(0) != 0.
    c0 = abs(f.coeffs[0])
    lc = abs(f.lc)
    denoms = ntkernel.factor(lc).divisors() if lc > 1 else [1]
    d = f.degree
    for u in ntkernel.factor(c0).divisors():
        for v in denoms:
            if math.gcd(u, v) != 1:
                continue
            # v^d * f(±u/v) as an exact integer
            for uu in (u, -u):
                if sum(c * uu**i * v ** (d - i) for i, c in enumerate(f.coeffs)) == 0:
                    return True
    return False


def _pm_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pm_trim(out)


def _pm_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # b monic
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db:
        c = a[-1]
        if c:
            off = len(a) - 1 - db
            for j, y in enumerate(b):
                a[off + j] = (a[off + j] - c * y) % p
        a.pop()
    return _pm_trim(a)


def _pm_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _pm_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _pm_trim(list(a)), _pm_trim(list(b))
    while b:
        r = _pm_rem(a, _pm_monic(b, p), p)
        a, b = b, r
    return _pm_monic(a, p) if a else a


def _pm_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    # mod monic, deg >= 1
    result = [1]
    base = _pm_rem(list(base), mod, p)
    while e:
        if e & 1:
            result = _pm_rem(_pm_mul(result, base, p), mod, p)
        e >>= 1
        if e:
            base = _pm_rem(_pm_mul(base, base, p), mod, p)
    return result


def _degree_pattern_mod_p(f: IntPoly, p: int) -> list[int] | None:
    """Multiset of irreducible-factor degrees of f mod p, or None when the
    reduction is unusable (degree drop or non-squarefree image)."""
    fb = _pm_trim([c % p for c in f.coeffs])
    if len(fb) - 1 != f.degree:
        return None
    fb = _pm_monic(fb, p)
    deriv = _pm_trim([i * c % p for i, c in enumerate(fb)][1:])
    if not deriv or len(_pm_gcd(fb, deriv, p)) != 1:
        return None
    pattern = []
    v = fb
    h = [0, 1]  # x
    i = 0
    while len(v) - 1 >= 2 * (i + 1):
        i += 1
        h = _pm_powmod(h, p, v, p)
        delta = _pm_trim([(x - y) % p for x, y in itertools.zip_longest(h, [0, 1], fillvalue=0)])
        g = _pm_gcd(delta, v, p)
        if len(g) > 1:
            deg_g = len(g) - 1
            pattern.extend([i] * (deg_g // i))
            v = _pm_quo(v, g, p)
            h = _pm_rem(h, v, p) if len(v) > 1 else []
    if len(v) - 1 > 0:
        pattern.append(len(v) - 1)
    return sorted(pattern)


def _pm_quo(a: list[int], b: list[int], p: int) -> list[int]:
    # exact quotient, b monic divides a
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + db]
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _pm_trim(q)


def _subset_sums(pattern: list[int]) -> int:
    # Bit k is set iff some sub-multiset of the pattern sums to k.
    bits = 1
    for deg in pattern:
        bits |= bits << deg
    return bits


_PATTERN_PRIME_COUNT = 20
# The primes the pattern stage walks, sliced from the sieve once, not per call.
_PATTERN_PRIMES = ntkernel.sieve_primes(5000).primes


def _kronecker_has_factor_of_degree(f: IntPoly, k: int) -> bool:
    # Complete search for a degree-<=k factor (k >= 2 here; linear factors
    # were excluded by the rational-root stage).
    xs = []
    x = 0
    while len(xs) < k + 1:
        if f(x) != 0:
            xs.append(x)
        x = -x if x > 0 else -x + 1
    norm2 = math.sqrt(sum(c * c for c in f.coeffs))
    height = math.comb(k, k // 2) * norm2 * abs(f.lc)  # Mignotte factor bound
    divisor_lists = []
    for i, xi in enumerate(xs):
        cap = height * sum(abs(xi) ** j for j in range(k + 1))
        divs = [d for d in ntkernel.factor(f(xi)).divisors() if d <= cap]
        signed = divs if i == 0 else [s * d for d in divs for s in (1, -1)]
        divisor_lists.append(signed)
    # A factor over Z has lc(g) | lc(f) (Gauss), and a candidate that divides
    # f over Q has one such factor, its primitive part, among the candidates.
    for combo in itertools.product(*divisor_lists):
        g = _interpolate(list(zip(xs, combo)))
        if g is None or not 0 < g.degree <= k or f.lc % g.lc:
            continue
        if not _prem(f.coeffs, g.coeffs):
            return True
    return False


def is_irreducible_over_Q(f: IntPoly) -> bool:
    """Exact irreducibility over the rationals (complete for degree <= 10)."""
    # f is its own family at shift 0; its pattern rows are not kept.
    return bool(_verdicts(f, 0, 1, {})[0])


def _all_candidates(d: int) -> int:
    # Bits 2 .. d // 2: every factor degree stage 2 has yet to rule out.
    return (1 << (d // 2 + 1)) - 4


def _no_factor_among(f: IntPoly, candidates: int) -> bool:
    # Stage 3: f has no factor of any degree k whose bit is set.
    survivors = [k for k in range(2, f.degree // 2 + 1) if candidates >> k & 1]
    return not any(_kronecker_has_factor_of_degree(f, k) for k in survivors)


# A divisor test factors the constant term, which costs about as much as
# this many evaluations of f0 (measured on monic families: the break-even
# is 40-56 a shift for one shift, 48-56 for windows of 2 and 8); stage 1
# scans when cheaper.
_ROOT_SCAN_PER_SHIFT = 56


def irreducible_shifts(f0: IntPoly, lo: int, hi: int) -> bytes:
    """Byte i is 1 iff f0 - (lo + i) is irreducible over Q, for a in [lo, hi):
    the verdicts of is_irreducible_over_Q, read from family-level facts.
    Raises its ValueError when deg f0 < 1 or a shift in range is not
    primitive."""
    return _verdicts(f0, lo, hi, _family_pattern_rows(f0.coeffs))


def _verdicts(f0: IntPoly, lo: int, hi: int, rows: dict[int, np.ndarray]) -> bytes:
    # The pipeline for the shifts a in [lo, hi) of f0, stages 2 and 3 over
    # the pattern rows given.  Shift a is primitive iff gcd(g, c0 - a) = 1,
    # g the gcd of c_1 .. c_d; that has period g in a, so the first g
    # shifts of the range settle it for all.
    d, c = f0.degree, f0.coeffs
    if d < 1:
        raise ValueError("irreducibility needs degree >= 1")
    g = math.gcd(*c[1:])
    if any(math.gcd(g, c[0] - a) > 1 for a in range(lo, min(hi, lo + g))):
        raise ValueError("irreducibility test requires a primitive polynomial")
    if d == 1:
        return b"\x01" * max(hi - lo, 0)
    if f0.is_monic and not any(c[1:d]):
        return _binomial_shifts(f0, lo, hi)
    out = np.ones(max(hi - lo, 0), np.uint8)
    out[[a - lo for a in _rational_root_shifts(f0, lo, hi)]] = 0
    offsets = np.flatnonzero(out)
    if d >= 4 and offsets.size:  # a reducible quadratic or cubic has a rational root
        out[offsets] = _shift_patterns_then_kronecker(f0, lo, hi, offsets, rows)
    return out.tobytes()


def _shift_patterns_then_kronecker(
    f0: IntPoly, lo: int, hi: int, offsets: np.ndarray, rows: dict[int, np.ndarray]
) -> np.ndarray:
    # Stages 2 and 3 for the shifts a = lo + i, i in offsets, of f0 (degree
    # >= 4) with no rational root, over the pattern rows given: one numpy
    # pass per prime over the shifts still undecided, each keeping its own
    # used count and candidate bits.  A row reads 0 where the pattern is
    # None, that is where p | lc or the image is not squarefree, so at such
    # a prime p | lc * D(a).  A shift no prime could use has every prime so
    # far dividing lc * D(a); once their product squared exceeds Hadamard's
    # bound on (lc * D(a))**2 over the range, D(a) = 0 exactly: the shift is
    # reducible, and its candidates read -1.
    d = f0.degree
    bound = _hadamard_root(f0, lo, hi)
    candidates = np.full(len(offsets), _all_candidates(d), _pattern_dtype(d))
    used = np.zeros(len(offsets), np.int64)
    live = np.arange(len(offsets))
    product = 1
    for p in _PATTERN_PRIMES:
        if not live.size:
            break
        bits = _pattern_bits(f0, rows, p, (lo % p + offsets[live]) % p)
        usable = bits != 0
        hit = live[usable]
        used[hit] += 1
        candidates[hit] &= bits[usable]
        product *= p
        if product > bound:
            candidates[live[used[live] == 0]] = -1
        live = live[(used[live] < _PATTERN_PRIME_COUNT) & (candidates[live] > 0)]
    verdicts = (candidates == 0).astype(np.uint8)
    # Survivors of every prime go to the Kronecker search, which is complete.
    for i in np.flatnonzero(candidates > 0).tolist():
        f = ShiftedPoly(f0, lo + int(offsets[i])).to_poly()
        verdicts[i] = _no_factor_among(f, int(candidates[i]))
    return verdicts


def _hadamard_root(f0: IntPoly, lo: int, hi: int) -> int:
    # isqrt of Hadamard's bound on the Sylvester matrix of (f0 - a, f0'),
    # whose determinant Res(f0 - a, f0') is +-lc * D(a): the product of the
    # squared norms of its d - 1 rows of f0 - a and d rows of f0' bounds
    # (lc * D(a))**2 for every a in [lo, hi).
    c, d = f0.coeffs, f0.degree
    c0 = max(abs(c[0] - lo), abs(c[0] - hi + 1))
    norm_f = c0 * c0 + sum(x * x for x in c[1:])
    norm_g = sum((i * x) ** 2 for i, x in enumerate(c))
    return math.isqrt(norm_f ** (d - 1) * norm_g**d)


def _pattern_dtype(d: int) -> type:
    # Subset-sum bits 0 .. d // 2 fit int64 up to degree 125.
    return np.int64 if d // 2 < 63 else object


@lru_cache(maxsize=8)
def _family_pattern_rows(f0_coeffs: tuple[int, ...]) -> dict[int, np.ndarray]:
    # One family's pattern rows, filled as residues are met: rows[p][r] holds
    # the subset sums of the factor-degree pattern of f0 - r mod p, bits
    # 0 .. d // 2, with 0 where the pattern is None and -1 until built.  An
    # irreducible image [d] reads 1 and so clears every candidate bit, which
    # certifies the shift.
    return {}


def _pattern_bits(f0: IntPoly, rows: dict[int, np.ndarray], p: int, r: np.ndarray) -> np.ndarray:
    # The row of p gathered at the residues r, after building its entries at
    # the residues it has not met.  A bool mask marks them (np.unique would
    # import numpy.ma).
    row = rows.get(p)
    if row is None:
        row = rows[p] = np.full(p, -1, _pattern_dtype(f0.degree))
    new = np.zeros(p, bool)
    new[r] = True
    new &= row < 0
    low_bits = (1 << (f0.degree // 2 + 1)) - 1
    for s in np.flatnonzero(new).tolist():
        pattern = _degree_pattern_mod_p(ShiftedPoly(f0, s).to_poly(), p)
        row[s] = 0 if pattern is None else _subset_sums(pattern) & low_bits
    return row[r]


def _rational_root_shifts(f0: IntPoly, lo: int, hi: int) -> set[int]:
    # The a in [lo, hi) at which f0 - a has a rational root: u/v in lowest
    # terms, v | lc, with f0(u/v) = a.  Every root of every such shift lies
    # within Fujiwara's bound 2 max(|c_(d-i)/lc|^(1/i), |(c_0 - a)/lc|^(1/d)),
    # at most B below, read from the raw |c_i| since |lc| >= 1, so the
    # values v^d f0(u/v), |u| <= B v, hold them all; a scan longer than the
    # divisor tests it replaces gives way to them.  lc is factored only when
    # its own row, v = |lc|, fits that budget.
    c, d = f0.coeffs, f0.degree
    reach = abs(c[0]) + max(abs(lo), abs(hi - 1))
    B = 2 * max([_ceil_root(abs(c[d - i]), i) for i in range(1, d)] + [_ceil_root(reach, d)])
    budget, lc = _ROOT_SCAN_PER_SHIFT * (hi - lo), abs(c[d])
    denoms = ntkernel.factor(lc).divisors() if 2 * B * lc < budget else [lc]
    if sum(2 * B * v + 1 for v in denoms) > budget:
        shifts = range(lo, hi)
        return {a for a in shifts if a == c[0] or _has_rational_root(ShiftedPoly(f0, a).to_poly())}
    found = set()
    for v in denoms:
        scaled = IntPoly(tuple(x * v ** (d - i) for i, x in enumerate(c)))  # v^d f0(x / v)
        vd = v**d
        found.update(w // vd for w in map(scaled, range(-B * v, B * v + 1)) if w % vd == 0)
    return {a for a in found if lo <= a < hi}


def _ceil_root(n: int, k: int) -> int:
    # ceil(n ** (1/k)) for n >= 0
    r = _integer_nth_root(n, k)
    return r if r**k == n else r + 1
