"""Roots of f_a modulo p and p^k, root counts rho/sigma, Hensel lifting,
and complete exponential sums with the Weil bound.

Root finding mod p is brute force below 2**14 (polyring._horner_mod over
every residue); for larger p it extracts the linear part of f via
gcd(x^p - x, f) and splits it with equal-degree splitting, so cost is
O(d^2 log p) per prime instead of O(p).  Its draws are seeded by the str
"p:coeffs", which Python hashes with SHA-512 under any PYTHONHASHSEED, and
whatever it draws, it returns the complete sorted root set: no output
depends on a seed.  weil_sums gives every S(t, p) from one FFT of the
residue counts of f0 mod p (``_residue_counts``).

A family's ``RootTable`` keeps its rows mod p < 2**14 (f0(x) mod p, and the
C_N and D_N term rows), and finds every root mod p <= N of a shift in one scan.
Its rho and term rows serve every prime up to ntkernel.SIEVE_LIMIT_MAX: from
2**14 on they are built from the residue counts on each call and not kept,
and this module alone decides which rows are kept.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import ntkernel
from .errors import DegenerateReductionError, InternalConsistencyError, ResourceLimitError
from .ntkernel import _mod_primes, is_prime, sieve_primes
from .polyring import (
    IntPoly,
    PolyLike,
    ShiftedPoly,
    _coeff_bound,
    _disc_family,
    _horner_mod,
    _horner_values,
    _pm_gcd,
    _pm_monic,
    _pm_powmod,
    _pm_quo,
    _pm_trim,
    as_poly,
)

BRUTE_FORCE_LIMIT = 1 << 14


@dataclass(frozen=True)
class RootSetModPk:
    """Complete duplicate-free set of roots of f mod p**k."""

    p: int
    k: int
    roots: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def count(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class SigmaValue:
    """sigma(a; p) = rho(a; p) - 1, the mean-zero root-count fluctuation."""

    a: int
    p: int
    sigma: int


def _cz_roots(coeffs: list[int], p: int) -> list[int]:
    # p odd prime; coeffs mod p, not all zero.
    f = _pm_trim(list(coeffs))
    if len(f) <= 1:
        return []
    f = _pm_monic(f, p)
    xp = _pm_powmod([0, 1], p, f, p)
    x_diff = [(x - y) % p for x, y in itertools.zip_longest(xp, [0, 1], fillvalue=0)]
    lin = _pm_gcd(_pm_trim(x_diff), f, p)
    if not lin or len(lin) == 1:
        return []
    rng = random.Random(f"{p}:{coeffs}")
    roots: list[int] = []
    stack = [lin]
    while stack:
        h = stack.pop()
        deg = len(h) - 1
        if deg == 0:
            continue
        if deg == 1:
            roots.append(-h[0] % p)
            continue
        while True:
            delta = rng.randrange(p)
            w = _pm_powmod([delta, 1], (p - 1) // 2, h, p)
            w = _pm_trim([(w[0] - 1) % p] + w[1:]) if w else [p - 1]
            u = _pm_gcd(w, h, p)
            if 0 < len(u) - 1 < deg:
                stack.append(u)
                stack.append(_pm_quo(h, u, p))
                break
    return roots


def roots_mod_p(f: PolyLike, p: int) -> RootSetModPk:
    """All roots of f mod p, p prime.  Degenerate images (f == 0 mod p)
    raise with rho = p attached."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    coeffs = [c % p for c in as_poly(f).coeffs]
    if not any(coeffs):
        raise DegenerateReductionError(p, rho=p)
    if p < BRUTE_FORCE_LIMIT:
        roots = np.flatnonzero(_horner_mod(coeffs, np.arange(p, dtype=np.int64), p) == 0).tolist()
    else:
        roots = _cz_roots(coeffs, p)
    return RootSetModPk(p, 1, tuple(sorted(roots)))


def sigma(f0: IntPoly, a: int, p: int) -> SigmaValue:
    """sigma(a; p) = rho(a; p) - 1; always in [-1, d-1] for monic f0."""
    if not f0.is_monic:
        raise ValueError("sigma requires a monic base polynomial")
    r = roots_mod_p(ShiftedPoly(f0, a), p).count
    s = r - 1
    if not -1 <= s <= f0.degree - 1:
        raise InternalConsistencyError(f"sigma {s} outside [-1, d-1]")
    return SigmaValue(a, p, s)


def _lifted_levels(poly: IntPoly, p: int, roots: tuple[int, ...]) -> Iterator[list[int]]:
    """The roots of poly mod p, p**2, p**3, ..., one level per step, lifted
    from the caller's roots mod p.  A simple root has one lift; a singular
    root lifts to all p classes above it when it survives to the next
    level, and to none otherwise."""
    level = list(roots)
    deriv = poly.derivative()
    pj = p
    while True:
        yield level
        nxt = []
        for r in level:
            fr = poly(r)
            fpr = deriv(r) % p
            if fpr:
                t = (-(fr // pj) * pow(fpr, p - 2, p)) % p
                nxt.append(r + pj * t)
            elif fr % (pj * p) == 0:
                nxt.extend(r + pj * t for t in range(p))
        level = nxt
        pj *= p


def roots_mod_pk(f: PolyLike, p: int, k: int) -> RootSetModPk:
    """Roots of f mod p**k by level lifting; singular roots (p | disc) are
    handled by branching, so this works at discriminant primes too.  The
    lifting inverts f'(r) mod p, so p must be prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    poly = as_poly(f)
    pk = p**k
    if not any(c % pk for c in poly.coeffs):
        raise DegenerateReductionError(p, rho=pk, message=f"polynomial vanishes mod {p}**{k}")
    levels = _lifted_levels(poly, p, roots_mod_p(poly, p).roots)
    level = next(itertools.islice(levels, k - 1, None))
    return RootSetModPk(p, k, tuple(sorted(level)))


# ---------------------------------------------------------------------------
# Exponential sums
# ---------------------------------------------------------------------------


def _residue_counts(coeffs: tuple[int, ...], p: int) -> np.ndarray:
    """#{x mod p : f(x) = c mod p} for every c in 0 .. p-1, p prime, f the
    polynomial of coeffs: one bincount of f(0 .. p-1) mod p, in O(p) memory.
    p is held to the sieve's budget, ntkernel.SIEVE_LIMIT_MAX, before
    anything is allocated (the budget is below 2**31, where _horner_mod's
    int64 products hold)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > ntkernel.SIEVE_LIMIT_MAX:
        raise ResourceLimitError(f"p = {p} residues exceed budget {ntkernel.SIEVE_LIMIT_MAX}")
    return np.bincount(_horner_mod(coeffs, np.arange(p, dtype=np.int64), p), minlength=p)


def weil_sums(f0: IntPoly, p: int) -> np.ndarray:
    """S(t, p) = sum over x mod p of exp(2 pi i t f0(x) / p) for every t in
    0 .. p-1, p prime, f0 monic: one FFT of the counts #{x : f0(x) = c mod p}
    (``_residue_counts``, which checks p), as S(t) = sum_c counts[c] e(tc/p)."""
    if not f0.is_monic:
        raise ValueError("weil sums require a monic polynomial")
    return np.fft.ifft(_residue_counts(f0.coeffs, p)) * p


def weil_sum(f0: IntPoly, b: int, p: int) -> complex:
    """S(b, p) = sum over x mod p of exp(2 pi i b f0(x) / p), p prime: entry
    b of weil_sums."""
    if not 0 <= b < p:
        raise ValueError(f"need 0 <= b < p, got b={b}")
    return complex(weil_sums(f0, p)[b])


def weil_bound(d: int, p: int) -> float:
    """(d-1) sqrt(p): valid for primitive f0 of degree d at primes p > d."""
    return (d - 1) * math.sqrt(p)


def sigma_via_expsum(f0: IntPoly, a: int, p: int) -> float:
    """sigma(a; p) recovered from the exponential-sum identity
    (1/p) * sum_{t != 0} e(-at/p) * S(t, p); the imaginary part must vanish."""
    s_t = weil_sums(f0, p)
    ts = np.arange(1, p, dtype=np.int64)
    omega = np.exp(-2j * np.pi * ((a % p) * ts % p) / p)
    val = complex(np.dot(omega, s_t[1:])) / p
    if abs(val.imag) > 1e-6:
        raise InternalConsistencyError(f"imaginary part {val.imag} too large")
    return val.real


# ---------------------------------------------------------------------------
# Shared per-residue caches (root lookups depend only on a mod p)
# ---------------------------------------------------------------------------


class RootTable:
    """One family's residues f0(x) mod p, serving the roots of every shift
    a mod p, and every root mod p <= N of one shift in one scan.

    The residue row is one int16 array, 2 bytes a residue: f0(x) mod p for
    x = 0 .. p-1, concatenated over the primes p < BRUTE_FORCE_LIMIT in
    ascending order, so the roots of f0 - a mod p are the x of p's segment
    whose entry is a mod p, and a shift that makes f0 - a vanish mod p reads
    all p residues.  The row grows to the largest bound asked, at least
    doubling the bound it covers, so the primes are never added one at a
    time.  Each growth evaluates f0 afresh: while sum |c_i| (K-1)**i fits
    int64, K the next power of two >= its largest prime, it takes the exact
    values f0(0 .. K-1) (``polyring._horner_values``) at the concatenated x
    mod the repeated p, and past that bound it runs Horner mod p over the
    same arrays.  Either pass goes in chunks of about ``_CHUNK`` residues.
    The values are not kept: the bound at least doubles at each growth, so
    a kept array would seldom cover a later one.

    It keeps four methods.  ``roots_upto`` compares the row with a mod p
    once for every prime <= N; ``roots`` and ``rho_row`` read one segment.
    Primes >= BRUTE_FORCE_LIMIT go to ``roots_mod_p`` (``_large_roots``) for
    roots, and to a transient row of residue counts for ``rho_row``.
    ``term_row`` keeps one more row per prime below the limit, the one-byte
    C_N and D_N index, so every row a shift reads at a mod p is kept here.

    A family's shared table is ``_family_root_table(f0.coeffs)``; ``decomp``,
    ``valengine`` and ``ensemble`` read it, and ``decomp``'s report reads
    its caller's table instead when that belongs to f0."""

    def __init__(self, f0: IntPoly):
        self.f0 = f0
        self._row = np.zeros(0, dtype=np.int16)
        # The primes of the row and where their segments start (one more
        # entry: the row's length).
        self._primes = np.zeros(0, dtype=np.int64)
        self._starts = np.zeros(1, dtype=np.int64)
        self._top = 1  # every prime <= _top has its segment
        self._term_rows: dict[int, np.ndarray] = {}

    def _grow(self, n: int) -> None:
        # Extend the row to every prime <= min(n, BRUTE_FORCE_LIMIT - 1).
        n = min(n, BRUTE_FORCE_LIMIT - 1)
        if n <= self._top:
            return
        self._top = min(max(n, 2 * self._top), BRUTE_FORCE_LIMIT - 1)
        new = sieve_primes(self._top).primes[len(self._primes) :]
        if not new:
            return
        K = 1 << (new[-1] - 1).bit_length()
        coeffs = self.f0.coeffs
        exact = _coeff_bound(coeffs, K - 1) <= np.iinfo(np.int64).max
        if exact:
            values = np.concatenate(([self.f0(0)], _horner_values(coeffs, K - 1, np.int64)))
        row = np.empty(len(self._row) + sum(new), dtype=np.int16)
        row[: len(self._row)] = self._row
        at = len(self._row)
        for run in _runs(new):
            ps = np.array(run, dtype=np.int64)
            mods = np.repeat(ps, ps)
            if exact:
                res = np.concatenate([values[:p] for p in run]) % mods
            else:
                x = np.concatenate([np.arange(p, dtype=np.int64) for p in run])
                res = np.zeros(len(x), dtype=np.int64)
                for c in reversed(coeffs):
                    res = (res * x + np.repeat(_mod_primes(c, ps), ps)) % mods
            row[at : at + len(res)] = res
            at += len(res)
        self._row = row
        added = np.array(new, dtype=np.int64)  # each prime's segment has p entries
        self._starts = np.concatenate((self._starts, self._starts[-1] + np.cumsum(added)))
        self._primes = np.concatenate((self._primes, added))

    def _segment(self, p: int) -> np.ndarray:
        # f0(x) mod p for x = 0 .. p-1, p a prime below BRUTE_FORCE_LIMIT.
        self._grow(p)
        i = int(np.searchsorted(self._primes, p))
        if i == len(self._primes) or self._primes[i] != p:
            raise ValueError(f"p must be prime, got {p}")
        return self._row[self._starts[i] : self._starts[i + 1]]

    def roots_upto(self, a: int, N: int) -> tuple[np.ndarray, np.ndarray]:
        """Every (p, r) with p <= N prime and f0(r) = a (mod p), 0 <= r < p,
        as two int64 arrays sorted by p and then by r: one comparison of the
        row with a mod p below BRUTE_FORCE_LIMIT, one ``roots_mod_p`` call
        per prime above it."""
        self._grow(N)
        k = int(np.searchsorted(self._primes, N, "right"))
        primes, starts = self._primes[:k], self._starts[: k + 1]
        wanted = np.repeat(_mod_primes(a, primes).astype(np.int16), primes)
        hits = np.flatnonzero(self._row[: starts[-1]] == wanted)
        at = np.searchsorted(starts, hits, "right") - 1
        ps, rs = primes[at], hits - starts[at]
        if N >= BRUTE_FORCE_LIMIT:
            fa = ShiftedPoly(self.f0, a).to_poly()
            big = [(p, r) for p in sieve_primes(N).primes[k:] for r in _large_roots(fa, p)]
            if big:
                bp, br = np.array(big, dtype=np.int64).T
                ps, rs = np.concatenate((ps, bp)), np.concatenate((rs, br))
        return ps, rs

    def roots(self, a: int, p: int) -> tuple[int, ...]:
        if p >= BRUTE_FORCE_LIMIT:
            return _large_roots(ShiftedPoly(self.f0, a).to_poly(), p)
        return tuple(np.flatnonzero(self._segment(p) == a % p).tolist())

    def rho_row(self, p: int) -> np.ndarray:
        """rho(a; p) for a = 0 .. p-1, p prime, so a whole array of shifts
        reads rho at a mod p in one gather: the bincount of p's kept segment
        below BRUTE_FORCE_LIMIT, and from there on a transient row, the
        residue counts of f0 mod p (``_residue_counts``, which holds p to
        ntkernel.SIEVE_LIMIT_MAX).  A transient row costs one Horner pass
        over the p residues, and a term row built on it peaks near 40 bytes
        a residue.  On a 2-vCPU host, a column record of x^4 + x at
        N = 24000 builds the rows of its 768 primes from the limit on in
        about 0.8 s, whether it holds 1 shift or 200.  A root search per
        shift and prime (``roots_mod_p``) takes 0.19 s there for one shift,
        0.62 s for four and 28 s for 200, so a batch of about five shifts or
        fewer is slower this way (at N = 17000, of about three or fewer)."""
        if p < BRUTE_FORCE_LIMIT:
            return np.bincount(self._segment(p), minlength=p)
        return _residue_counts(self.f0.coeffs, p)

    def term_row(self, p: int) -> np.ndarray:
        """The family's read-only term row at a prime p: for each residue
        r = 0 .. p-1, rho(r; p) + 1 from ``rho_row``, or 0 where p | D(r), so
        a shift a reads its C_N and D_N terms, and whether p divides D(a), at
        a mod p (``decomp._term_index``).  Where p does not divide D(r),
        rho(r; p) <= d, so the entries fit the smallest unsigned dtype
        holding d + 1: one byte a residue up to degree 254.  A row below
        BRUTE_FORCE_LIMIT is kept with the table once built; the rows of
        every p <= N take about 0.28 MB at N = 2000 and about 14.6 MB (14.6M
        residues) once N >= BRUTE_FORCE_LIMIT, beside the residue row's 2
        bytes a residue.  From the limit on the row is built on every call
        and not kept, like the rho row it reads."""
        row = self._term_rows.get(p)
        if row is None:
            rho = self.rho_row(p)
            D = _disc_family(self.f0.coeffs).fill().coeffs
            disc = _horner_mod(D, np.arange(p, dtype=np.int64), p) == 0
            row = np.where(disc, 0, rho + 1).astype(np.min_scalar_type(len(self.f0.coeffs)))
            row.flags.writeable = False
            if p < BRUTE_FORCE_LIMIT:
                self._term_rows[p] = row
        return row


# The residues one growth step computes at a time, so its int64
# temporaries stay near 0.5 MB however far the row grows.
_CHUNK = 1 << 16


def _runs(primes: tuple[int, ...]) -> Iterator[list[int]]:
    # The primes in consecutive runs of about _CHUNK residues each.
    run: list[int] = []
    size = 0
    for p in primes:
        run.append(p)
        size += p
        if size >= _CHUNK:
            yield run
            run, size = [], 0
    if run:
        yield run


def _large_roots(fa: IntPoly, p: int) -> tuple[int, ...]:
    # The roots of fa mod p >= BRUTE_FORCE_LIMIT; every residue where fa
    # vanishes mod p.
    try:
        return roots_mod_p(fa, p).roots
    except DegenerateReductionError:
        return tuple(range(p))


@functools.lru_cache(maxsize=8)
def _family_root_table(f0_coeffs: tuple[int, ...]) -> RootTable:
    # One RootTable per family, shared by every caller without a table.
    return RootTable(IntPoly(f0_coeffs))
