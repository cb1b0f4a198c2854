"""Exact valuation ledgers for the sequence f_a(1), ..., f_a(N).

alpha_p = total p-adic valuation of the product of the values;
beta_p  = maximum valuation among the values (the exponent of p in the lcm).

Small primes (p <= B, default B = N) are handled by root-sieving: the n
with p | f_a(n) lie in the residue classes of the roots of f_a mod p, so
only those positions are ever divided.  Whatever is left of each value
afterwards is a cofactor with all prime factors > B and is finished off by
exact factoring.  Any vanishing value f_a(n) = 0 is a hard error: every
quantity here is undefined at such n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

from . import ntkernel
from .errors import ZeroValueError
from .modroots import DEFAULT_SEED, RootTable, roots_mod_p, roots_mod_pk
from .polyring import ShiftedPoly, discriminant

KIND_ALPHA = "alpha"
KIND_BETA = "beta"


@dataclass
class ValuationLedger:
    """Map prime -> positive exponent, plus the defining metadata."""

    kind: str
    f0_coeffs: tuple[int, ...]
    shift: int
    N: int
    entries: dict[int, int]

    def logsum(self, lo: int | None = None, hi: int | None = None) -> float:
        """sum of e_p * ln p over primes in (lo, hi], ascending."""
        total = 0.0
        for p in sorted(self.entries):
            if lo is not None and p <= lo:
                continue
            if hi is not None and p > hi:
                continue
            total += self.entries[p] * math.log(p)
        return total

    def product(self) -> int:
        out = 1
        for p in sorted(self.entries):
            out *= p ** self.entries[p]
        return out

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "f0": list(self.f0_coeffs),
            "a": self.shift,
            "N": self.N,
            "entries": {str(p): self.entries[p] for p in sorted(self.entries)},
        }
        return json.dumps(payload, sort_keys=True)


def _value_extent(f: ShiftedPoly, N: int) -> int:
    """Exact max |f(n)| on [1, N]; raises ZeroValueError on a vanishing value."""
    max_abs, zero_at = _extent_cached(f.base.coeffs, f.shift, N)
    if zero_at:
        raise ZeroValueError(zero_at)
    return max_abs


@lru_cache(maxsize=64)
def _extent_cached(f0_coeffs: tuple[int, ...], shift: int, N: int) -> tuple[int, int]:
    # (max |f(n)|, first n with f(n) = 0 or 0).  The zero is returned rather
    # than raised because lru_cache does not keep exceptions.
    from .polyring import IntPoly

    f = ShiftedPoly(IntPoly(f0_coeffs), shift)
    max_abs = 0
    for n in range(1, N + 1):
        v = f(n)
        if v == 0:
            return 0, n
        if abs(v) > max_abs:
            max_abs = abs(v)
    return max_abs, 0


def _count_in_class(N: int, r: int, m: int) -> int:
    # |{1 <= n <= N : n == r (mod m)}| for 0 <= r < m
    if r == 0:
        return N // m
    if r > N:
        return 0
    return (N - r) // m + 1


def alpha_p(f: ShiftedPoly, N: int, p: int, seed: int = DEFAULT_SEED) -> int:
    """alpha_p(a; N) = sum over n <= N of nu_p(f_a(n)), via the root sieve:
    level-k roots of f mod p**k each contribute their lattice count."""
    max_abs = _value_extent(f, N)
    total = 0
    pk = p
    k = 1
    while pk <= max_abs:
        level = roots_mod_pk(f, p, k, seed)
        if not level.roots:
            break
        total += sum(_count_in_class(N, r, pk) for r in level.roots)
        pk *= p
        k += 1
    return total


def beta_p(f: ShiftedPoly, N: int, p: int, seed: int = DEFAULT_SEED) -> int:
    """beta_p(N) = max over n <= N of nu_p(f_a(n))."""
    max_abs = _value_extent(f, N)
    best = 0
    pk = p
    k = 1
    while pk <= max_abs:
        level = roots_mod_pk(f, p, k, seed)
        if not level.roots:
            break
        if any(_count_in_class(N, r, pk) for r in level.roots):
            best = k
        pk *= p
        k += 1
    return best


def count_k1(f: ShiftedPoly, N: int, p: int, seed: int = DEFAULT_SEED) -> int:
    """|{n <= N : p | f_a(n)}| (the k = 1 event count of the Bad split)."""
    if p > _value_extent(f, N):
        return 0
    level = roots_mod_p(f, p, seed)
    return sum(_count_in_class(N, r, p) for r in level.roots)


def build_ledgers(
    f: ShiftedPoly,
    N: int,
    B: int | None = None,
    root_table: RootTable | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[ValuationLedger, ValuationLedger, list[int]]:
    """Complete (alpha, beta) ledgers over all primes, plus the cofactor list
    (one per n: the part of |f(n)| left after removing primes <= B)."""
    if B is None:
        B = N
    if B < 1:
        raise ValueError(f"prime threshold B must be >= 1, got {B}")
    values = []
    for n in range(1, N + 1):
        v = f(n)
        if v == 0:
            raise ZeroValueError(n)
        values.append(abs(v))
    alpha: dict[int, int] = {}
    beta: dict[int, int] = {}
    if root_table is not None and root_table.f0 != f.base:
        root_table = None
    if B >= 2:
        for p in ntkernel.sieve_primes(B):
            if root_table is not None:
                roots = root_table.roots(f.shift, p)
            else:
                roots = roots_mod_p(f, p, seed).roots
            tot = 0
            mx = 0
            for r in roots:
                start = r if r >= 1 else p
                for n in range(start, N + 1, p):
                    v = values[n - 1]
                    e = 0
                    while v % p == 0:
                        v //= p
                        e += 1
                    values[n - 1] = v
                    tot += e
                    if e > mx:
                        mx = e
            if tot:
                alpha[p] = tot
                beta[p] = mx
    cofactors = list(values)
    for v in cofactors:
        if v > 1:
            for q, e in ntkernel.factor(v).factors:
                alpha[q] = alpha.get(q, 0) + e
                if e > beta.get(q, 0):
                    beta[q] = e
    meta = (f.base.coeffs, f.shift, N)
    return (
        ValuationLedger(KIND_ALPHA, *meta, alpha),
        ValuationLedger(KIND_BETA, *meta, beta),
        cofactors,
    )


def log_P(f: ShiftedPoly, N: int) -> float:
    """log P_a(N) = sum over n <= N of ln |f_a(n)|, ascending."""
    total = 0.0
    for n in range(1, N + 1):
        v = f(n)
        if v == 0:
            raise ZeroValueError(n)
        total += math.log(abs(v))
    return total


def alpha_approx_residual(f: ShiftedPoly, N: int, p: int, seed: int = DEFAULT_SEED) -> float:
    """alpha_p(N) - N * rho(a; p) / (p - 1); small when Hensel lifting is
    clean, i.e. requires p to not divide disc(f_a)."""
    if discriminant(f.to_poly()) % p == 0:
        raise ValueError(f"p = {p} divides the discriminant")
    r = roots_mod_p(f, p, seed).count
    return alpha_p(f, N, p, seed) - N * r / (p - 1)
