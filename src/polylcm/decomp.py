"""Exact L_a(N) by two independent engines and its term decomposition.

log L splits exactly (an identity of the prime ledgers) as

    log L = log P + sum_{p<=N} beta_p log p
            - Bad_N - sum_{p<=N, p not| D} alpha_p log p - Delta_N

with Bad_N the discriminant-prime contribution, Delta_N the large-prime
overcount, and C_N the Hensel-predicted density sum.  Every report checks
the identity to 1e-6 relative; up to CROSS_CHECK_LIMIT the big-integer
lcm engine (a balanced pairwise math.lcm tree over the values) is also run
and compared bit-for-bit against the ledger product.  The report evaluates
each value once and hands that list to the ledgers and the log P sum; the
lcm engine keeps its own evaluation.  Every term reads only the prime-keyed
part of the ledgers (log L above the limit adds the logs of the unshared
cofactors), so the unshared large cofactors are never factored.
Discriminant primes <= N are found by divisibility tests, not by factoring D.
Bad_N has one path (``_bad_split``), shared by ``bad_N`` and the report: one
lifting pass per discriminant prime from the family's roots mod p.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import ntkernel, valengine
from .errors import InternalConsistencyError, IrreducibilityRequiredError, ZeroValueError
from .modroots import RootTable, _family_root_table, _root_table_for
from .polyring import IntPoly, ShiftedPoly, _family_discriminant, is_irreducible_over_Q
from .valengine import ValuationLedger, _level_hits, build_ledgers

# Up to this N the lcm tree also runs and must equal the ledger product;
# above it only the ledger engine runs, and log L is read from the beta
# ledger: its prime-keyed log-sum plus the logs of the unshared cofactors,
# which are never factored.  The value may be raised, never lowered.
CROSS_CHECK_LIMIT = 2000

IDENTITY_RTOL = 1e-6

CSV_HEADER = "a,N,log_L,log_P,bad,b1,b2,delta,c_N,e_N,d_N,residual,irreducible"


def lcm_bigint(f: ShiftedPoly, N: int) -> int:
    """Exact L_a(N) by a balanced pairwise lcm tree; the oracle engine."""
    layer = []
    for n in range(1, N + 1):
        v = f(n)
        if v == 0:
            raise ZeroValueError(n)
        layer.append(abs(v))
    while len(layer) > 1:
        layer = [math.lcm(*layer[i : i + 2]) for i in range(0, len(layer), 2)]
    return layer[0] if layer else 1


class BadSplit(NamedTuple):
    total: float
    b1: float
    b2: float


def _disc_primes(D: int, N: int) -> list[int]:
    if D == 0:
        raise ValueError("discriminant is zero (multiple root); Bad/C/E/D undefined")
    if abs(D) == 1 or N < 2:
        return []
    return [p for p in ntkernel.sieve_primes(N) if D % p == 0]


def bad_N(f0: IntPoly, a: int, N: int) -> BadSplit:
    """Bad_N(a) = sum over p <= N, p | D(a) of alpha_p log p, split into the
    k = 1 part (B1) and the k >= 2 remainder (B2)."""
    disc_primes = _disc_primes(_family_discriminant(f0, a), N)
    return _bad_split(_family_root_table(f0.coeffs), a, N, disc_primes)


def _bad_split(table: RootTable, a: int, N: int, disc_primes: list[int]) -> BadSplit:
    # Bad_N of table.f0 - a over its ascending discriminant primes <= N.  One
    # lifting pass per prime from the table's roots mod p: alpha_p is the
    # sum of the level hits, and the k = 1 count is the first of them.
    fa = ShiftedPoly(table.f0, a).to_poly()
    total = b1 = 0.0
    for p in disc_primes:
        hits = list(_level_hits(fa, N, p, table.roots(a, p)))
        total += sum(hits) * math.log(p)
        b1 += (hits[0] if hits else 0) * math.log(p)
    return BadSplit(total, b1, total - b1)


def delta_N(f0: IntPoly, a: int, N: int) -> float:
    """Delta_N(a) = sum over p > N of (alpha_p - beta_p) log p."""
    table = _family_root_table(f0.coeffs)
    alpha, beta, _ = build_ledgers(ShiftedPoly(f0, a), N, root_table=table)
    return _delta_from_ledgers(alpha, beta, N)


def _delta_from_ledgers(alpha: ValuationLedger, beta: ValuationLedger, N: int) -> float:
    # A prime with alpha_p != beta_p divides two values, so it lies in a
    # shared cofactor and is in the prime-keyed part.
    total = 0.0
    for p in sorted(alpha.factored):
        if p > N:
            diff = alpha.factored[p] - beta.factored.get(p, 0)
            if diff:
                total += diff * math.log(p)
    return total


def _density_sums(table: RootTable, a: int, N: int, D: int) -> tuple[float, float, float]:
    # (C_N, E_N, D_N) in one ascending pass over the primes p <= N.
    cn = en = dn = 0.0
    if N >= 2:
        for p in ntkernel.sieve_primes(N):
            log_p = math.log(p)
            if D % p == 0:
                en += log_p / p
                continue
            r = table.rho(a, p)
            if r:
                cn += r * log_p / (p - 1)
            if r != 1:
                dn += (r - 1) * log_p / p
    return cn, en, dn


def _density_sums_for(f0: IntPoly, a: int, N: int) -> tuple[float, float, float]:
    D = _family_discriminant(f0, a)
    if D == 0:
        raise ValueError("discriminant is zero")
    return _density_sums(_family_root_table(f0.coeffs), a, N, D)


def c_N(f0: IntPoly, a: int, N: int) -> float:
    """C_N(a) = sum over p <= N, p not dividing D(a), of rho(a;p) log p/(p-1)."""
    return _density_sums_for(f0, a, N)[0]


def e_N_d_N(f0: IntPoly, a: int, N: int) -> tuple[float, float]:
    """E_N = sum over discriminant primes <= N of log p/p;
    D_N = sum over the other primes <= N of sigma(a;p) log p/p."""
    return _density_sums_for(f0, a, N)[1:]


@dataclass
class DecompositionReport:
    f0: IntPoly
    a: int
    N: int
    log_L: float
    log_P: float
    bad: float
    delta: float
    c_N: float
    e_N: float
    d_N: float
    b1: float
    b2: float
    beta_small_logsum: float
    alpha_small_nondisc_logsum: float
    residual: float
    irreducible: bool

    def identity_gap(self) -> float:
        rhs = (
            self.log_P
            + self.beta_small_logsum
            - self.bad
            - self.alpha_small_nondisc_logsum
            - self.delta
        )
        return abs(self.log_L - rhs)

    def identity_ok(self, rtol: float = IDENTITY_RTOL) -> bool:
        return self.identity_gap() <= rtol * max(1.0, abs(self.log_L))

    def to_dict(self) -> dict:
        return {
            "f0": list(self.f0.coeffs),
            "a": self.a,
            "N": self.N,
            "log_L": self.log_L,
            "log_P": self.log_P,
            "bad": self.bad,
            "delta": self.delta,
            "c_N": self.c_N,
            "e_N": self.e_N,
            "d_N": self.d_N,
            "b1": self.b1,
            "b2": self.b2,
            "beta_small_logsum": self.beta_small_logsum,
            "alpha_small_nondisc_logsum": self.alpha_small_nondisc_logsum,
            "residual": self.residual,
            "irreducible": self.irreducible,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def csv_row(self) -> str:
        cells = [
            self.a,
            self.N,
            self.log_L,
            self.log_P,
            self.bad,
            self.b1,
            self.b2,
            self.delta,
            self.c_N,
            self.e_N,
            self.d_N,
            self.residual,
            int(self.irreducible),
        ]
        return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cells)


def decomposition_report(
    f0: IntPoly,
    a: int,
    N: int,
    allow_reducible: bool = False,
    root_table: RootTable | None = None,
) -> DecompositionReport:
    """All decomposition terms for one (f0, a, N), each by its own path,
    with the exact ledger identity enforced.  The roots come from
    root_table when it belongs to f0, else from the family's shared table."""
    f = ShiftedPoly(f0, a)
    fa = f.to_poly()
    family_disc = functools.partial(_family_discriminant, f0, a)
    irreducible = is_irreducible_over_Q(fa, _disc=family_disc)
    if not irreducible and not allow_reducible:
        raise IrreducibilityRequiredError(f"f0 - ({a}) is reducible over Q")
    D = family_disc()
    if D == 0:
        raise ValueError("discriminant is zero; decomposition terms undefined")

    table = _root_table_for(f0, root_table)
    values = valengine._abs_values(f, N)
    alpha, beta, _ = build_ledgers(f, N, root_table=table, _values=values)
    if N <= CROSS_CHECK_LIMIT:
        L = lcm_bigint(f, N)
        if beta.product() != L:
            raise InternalConsistencyError("ledger product != lcm tree")
        log_L = math.log(L)
    else:
        # Unshared cofactors enter by their logs, unfactored.
        log_L = sum(e * math.log(p) for p, e in sorted(beta.factored.items()))
        log_L += sum(math.log(c) for c in beta.rest)

    log_p = valengine._log_sum(values)
    bad, b1, b2 = _bad_split(table, a, N, _disc_primes(D, N))
    delta = _delta_from_ledgers(alpha, beta, N)
    beta_small = beta.logsum(hi=N)
    alpha_small_nondisc = sum(e * math.log(p) for p, e in alpha.upto(N).items() if D % p)

    cn, en, dn = _density_sums(table, a, N, D)

    d = f0.degree
    residual = log_L - (d * N * math.log(N) - bad - delta - N * cn) if N >= 2 else log_L

    report = DecompositionReport(
        f0=f0,
        a=a,
        N=N,
        log_L=log_L,
        log_P=log_p,
        bad=bad,
        delta=delta,
        c_N=cn,
        e_N=en,
        d_N=dn,
        b1=b1,
        b2=b2,
        beta_small_logsum=beta_small,
        alpha_small_nondisc_logsum=alpha_small_nondisc,
        residual=residual,
        irreducible=irreducible,
    )
    if not report.identity_ok():
        raise InternalConsistencyError(
            f"decomposition identity violated by {report.identity_gap():.3e}"
        )
    return report
