"""Roots of f_a modulo p and p^k, root counts rho/sigma, Hensel lifting,
and complete exponential sums with the Weil bound.

Root finding mod p is brute force below 2**14 (polyring._horner_mod over
every residue); for larger p it extracts the linear part of f via
gcd(x^p - x, f) and splits it with equal-degree splitting, so cost is
O(d^2 log p) per prime instead of O(p).  Its draws are seeded by the str
"p:coeffs", which Python hashes with SHA-512 under any PYTHONHASHSEED, and
whatever it draws, it returns the complete sorted root set: no output
depends on a seed.  weil_sums gives every S(t, p) from one FFT.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReductionError, InternalConsistencyError
from .ntkernel import is_prime
from .polyring import (
    IntPoly,
    PolyLike,
    ShiftedPoly,
    _coeff_bound,
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


def weil_sums(f0: IntPoly, p: int) -> np.ndarray:
    """S(t, p) = sum over x mod p of exp(2 pi i t f0(x) / p) for every t in
    0 .. p-1, p prime, f0 monic: one FFT of the counts #{x : f0(x) = c mod p},
    as S(t) = sum_c counts[c] e(tc/p), in O(p) memory."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not f0.is_monic:
        raise ValueError("weil sums require a monic polynomial")
    counts = np.bincount(_horner_mod(f0.coeffs, np.arange(p, dtype=np.int64), p), minlength=p)
    return np.fft.ifft(counts) * p


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
# Shared per-residue caches (sigma and root lookups depend only on a mod p)
# ---------------------------------------------------------------------------


class RootTable:
    """Lazy per-prime preimage map f0(x) mod p -> x; serves roots, rho and
    sigma for every shift a at lookup cost.

    Each prime p < BRUTE_FORCE_LIMIT gets two compact ``array("i")`` rows in
    CSR (compressed sparse row) form: ``xs`` holds 0 .. p-1 stably sorted by
    f0(x) mod p, and ``start[v]:start[v + 1]`` is the slice of ``xs`` with
    f0(x) = v mod p, ascending.  That is 8 bytes per residue; the build is
    O(p) per prime (a bincount and a radix argsort), paid once per (f0, p).
    A row's residues are the table's exact int64 values f0(0 .. K-1) mod p,
    K the next power of two >= p: ``polyring._horner_values`` evaluates
    them when a prime first needs a longer array, while sum |c_i| (K-1)**i
    fits int64; past that bound a row takes Horner mod p
    (``polyring._horner_mod``).  ``rho`` and ``sigma`` read the row length and
    build no tuple.  Primes >= BRUTE_FORCE_LIMIT fall through to direct
    root extraction.

    A family's shared table is ``_family_root_table(f0.coeffs)``; ``decomp``,
    ``valengine`` and ``ensemble`` read it unless a caller passes its own
    (``_root_table_for``)."""

    def __init__(self, f0: IntPoly):
        self.f0 = f0
        self._tables: dict[int, tuple[array, array]] = {}
        self._values = np.zeros(0, dtype=np.int64)

    def _rows(self, p: int) -> tuple[array, array]:
        rows = self._tables.get(p)
        if rows is None:
            rows = self._tables[p] = _preimage_rows(self._residues(p), p)
        return rows

    def _residues(self, p: int) -> np.ndarray:
        # f0(x) mod p for x = 0 .. p-1.  The exact array holds fewer than 2p
        # entries for the largest p built, and _coeff_bound(f0, K - 1)
        # bounds every Horner partial sum over it.
        if p > len(self._values):
            K = 1 << (p - 1).bit_length()
            coeffs = self.f0.coeffs
            if _coeff_bound(coeffs, K - 1) > np.iinfo(np.int64).max:
                return _horner_mod(coeffs, np.arange(p, dtype=np.int64), p)
            self._values = np.concatenate(([self.f0(0)], _horner_values(coeffs, K - 1, np.int64)))
        return self._values[:p] % p

    def roots(self, a: int, p: int) -> tuple[int, ...]:
        if p >= BRUTE_FORCE_LIMIT:
            return roots_mod_p(ShiftedPoly(self.f0, a), p).roots
        start, xs = self._rows(p)
        v = a % p
        return tuple(xs[start[v] : start[v + 1]])

    def rho(self, a: int, p: int) -> int:
        # The hot lookup: a built prime costs one dict probe and two reads.
        rows = self._tables.get(p)
        if rows is None:
            if p >= BRUTE_FORCE_LIMIT:
                return roots_mod_p(ShiftedPoly(self.f0, a), p).count
            rows = self._rows(p)
        start = rows[0]
        v = a % p
        return start[v + 1] - start[v]

    def sigma(self, a: int, p: int) -> int:
        return self.rho(a, p) - 1

    def start_row(self, p: int) -> np.ndarray:
        """The ``start`` row of p < BRUTE_FORCE_LIMIT as a numpy view, no
        copy: rho(a; p) = row[a % p + 1] - row[a % p], for a whole array of
        shifts in one gather."""
        return np.frombuffer(self._rows(p)[0], dtype=np.intc)


def _preimage_rows(vals: np.ndarray, p: int) -> tuple[array, array]:
    # (start, xs) of RootTable for p < BRUTE_FORCE_LIMIT from vals = f0(x)
    # mod p, x = 0 .. p-1.  They fit int16, where numpy's stable argsort is
    # a radix sort.  The cumsum runs in the int64 of the counts: cast into
    # an intc output inside it, it takes twice as long.
    start = np.zeros(p + 1, dtype=np.intc)
    start[1:] = np.bincount(vals, minlength=p).cumsum()
    xs = np.argsort(vals.astype(np.int16), kind="stable").astype(np.intc)
    return array("i", start.tobytes()), array("i", xs.tobytes())


@functools.lru_cache(maxsize=8)
def _family_root_table(f0_coeffs: tuple[int, ...]) -> RootTable:
    # One RootTable per family, shared by every caller without a table.
    return RootTable(IntPoly(f0_coeffs))


def _root_table_for(f0: IntPoly, table: RootTable | None) -> RootTable:
    """table when it belongs to f0, else the family's shared table."""
    if table is not None and table.f0 == f0:
        return table
    return _family_root_table(f0.coeffs)
