"""Exact L_a(N) by two independent engines and its term decomposition.

log L splits exactly (an identity of the prime ledgers) as

    log L = log P + sum_{p<=N} beta_p log p
            - Bad_N - sum_{p<=N, p not| D} alpha_p log p - Delta_N

with Bad_N the discriminant-prime contribution, Delta_N the large-prime
overcount, and C_N the Hensel-predicted density sum.  Every report checks
the identity to 1e-6 relative; up to CROSS_CHECK_LIMIT the big-integer
lcm engine (a balanced pairwise math.lcm tree over the values) is also run
and compared bit-for-bit against the ledger product.  The report evaluates
each value once, by the ledger engine's numpy Horner pass
(``valengine._abs_value_array``), and hands that array to the ledgers and
the log P sum; the lcm engine evaluates the values again in plain ints of
its own (Horner at n = 1..d+1, then d running sums over their forward
differences), so a fault in the int64 pass fails the gate.  Float sums are
added one term at a time (``ntkernel._plain_sum``), so their bits do not
depend on the interpreter's sum().  A ledger holds only its prime-keyed
part and the unshared parts of the cofactors above N; every term reads the
prime-keyed part (log L above the limit adds the logs of the unshared
parts), so the unshared parts are never factored.
Discriminant primes <= N come from one divisibility mask of D over the
primes <= N (``_disc_mask``), not from factoring D; in a report the same
mask feeds Bad_N's primes, the small-prime log-sums and C_N, E_N and D_N,
each the plain sum of the scalar terms in ascending p.
For one shift, Bad_N has one path (``_bad_split``), shared by ``bad_N`` and
the report: one lifting pass per discriminant prime from the roots mod p its
caller reads from the family's ``RootTable``; the report takes those of a
prime >= BRUTE_FORCE_LIMIT from its root scan, so none is searched twice.

The single-shift terms (``c_N``, ``e_N_d_N``, ``bad_N``, the report) loop
over the primes <= N for one shift and raise ZeroValueError at the first
n <= N with f_a(n) = 0 from the report's evaluator
(``valengine._abs_value_array``), after the ValueError where D(a) = 0.
A report scans the family's ``RootTable`` once
(``RootTable.roots_upto``): the same (p, root) pairs feed the ledger sieve
and C_N, E_N and D_N, where rho(a; p) is the number of roots at p; ``c_N``
and ``e_N_d_N`` scan once each.  The ensembles' batch path takes a whole
list of shifts and builds one column record of it (``_columns``): the
columns of the batched ensemble statistics bad, b2, cn and dn, from one
pass per prime p <= N (``_column_record``).  Each pass reads one index
per shift (``_term_index``): rho(a; p) + 1, or 0 where p | D(a), which
picks the shift's C_N and D_N terms from two lookups per prime built for
each record (``_term_lookups``) and whose zeros are Bad_N's shifts at p.
At every prime the index is read at a mod p from the family's term row of
p (``RootTable.term_row``, which states the row's format and cost, and
which keeps the rows below BRUTE_FORCE_LIMIT and builds those above it
afresh from a transient rho row), so no shift's roots are searched.
Bad_N is counted instead of lifted: f0(1..N) is evaluated once by the
ledger engine's evaluator, and at each discriminant prime p the level hits
#{n <= N : f0(n) = a (mod p**k)} of all its shifts come at once from the
residues of those values: from a count row of p**k entries read at
a mod p**k while p**k <= _LEVEL_TABLE_LIMIT, from the sorted residues above
it.  Its passes over every prime <= N pay off over an ensemble, not for one
shift (x^3 at N = 2000: 3.2 ms as a batch of one, 0.06 ms by lifting), so
single shifts keep lifting.  The record is a
single-entry cache keyed by (f0, shifts, N), the shifts as the bytes of
their int64 array (a tuple only when one does not fit int64), with
read-only columns, so the cn, dn, bad and b2 statistics of one window share
one pass.  Each entry has its single-shift value's bits: a term is built
with the same float operations and added in the same ascending order of p,
and B2 = Bad_N - B1 is one subtraction, as in ``BadSplit``, made when the
record is built.  The batch serves irreducible shifts (D(a) != 0, no
integer zero), as the ensembles admit them; the first shift in order that
c_N would reject raises what c_N raises.  A report's JSON and CSV read its
dataclass fields by name.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import ntkernel, valengine
from .errors import InternalConsistencyError, IrreducibilityRequiredError, ZeroValueError
from .modroots import BRUTE_FORCE_LIMIT, RootTable, _family_root_table
from .polyring import (
    IntPoly,
    ShiftedPoly,
    _coeff_bound,
    _family_discriminant,
    _horner_values,
    irreducible_shifts,
)
from .valengine import ValuationLedger, _level_hits, build_ledgers

# Up to this N the lcm tree also runs and must equal the ledger product;
# above it only the ledger engine runs, and log L is read from the beta
# ledger: its prime-keyed log-sum plus the logs of the unshared cofactor
# parts, which are never factored.  The value may be raised, never lowered.
CROSS_CHECK_LIMIT = 2000

IDENTITY_RTOL = 1e-6

CSV_HEADER = "a,N,log_L,log_P,bad,b1,b2,delta,c_N,e_N,d_N,residual,irreducible"


def lcm_bigint(f: ShiftedPoly, N: int) -> int:
    """Exact L_a(N) by a balanced pairwise lcm tree; the oracle engine.  It
    evaluates the values in plain ints, sharing no code with the ledger
    engine's evaluator: f(1..d+1) by Horner, then f(1..N) from their forward
    differences by d running sums (the d-th difference is constant)."""
    coeffs = f.to_poly().coeffs[::-1]
    d = len(coeffs) - 1
    head = []
    for n in range(1, min(N, d + 1) + 1):
        v = 0
        for c in coeffs:
            v = v * n + c
        head.append(v)
    layer = head
    if N > d + 1:
        diffs = [head[0]]  # diffs[k] is the k-th forward difference at n = 1
        for _ in range(d):
            head = list(map(operator.sub, head[1:], head))
            diffs.append(head[0])
        layer = [diffs[d]] * (N - d)
        for start in reversed(diffs[:d]):
            layer = itertools.accumulate(layer, initial=start)
        layer = list(layer)
    if 0 in layer:
        raise ZeroValueError(layer.index(0) + 1)
    layer = list(map(abs, layer))
    while len(layer) > 1:
        pairs = list(map(math.lcm, layer[::2], layer[1::2]))
        layer = pairs + layer[-1:] if len(layer) % 2 else pairs
    return layer[0] if layer else 1


class BadSplit(NamedTuple):
    total: float
    b1: float
    b2: float


def _disc_mask(D: int, N: int) -> np.ndarray:
    # p | D at each prime p <= N, ascending (ntkernel._prime_array(N)).
    if D == 0:
        raise ValueError("discriminant is zero (multiple root); Bad/C/E/D undefined")
    return ntkernel._mod_primes(D, ntkernel._prime_array(N)) == 0


def _disc_primes(D: int, N: int) -> list[int]:
    return ntkernel._prime_array(N)[_disc_mask(D, N)].tolist()


def bad_N(f0: IntPoly, a: int, N: int) -> BadSplit:
    """Bad_N(a) = sum over p <= N, p | D(a) of alpha_p log p, split into the
    k = 1 part (B1) and the k >= 2 remainder (B2).  Raises ZeroValueError at
    the first n <= N with f_a(n) = 0."""
    disc_primes = _disc_primes(_family_discriminant(f0, a), N)
    f = ShiftedPoly(f0, a)
    valengine._abs_value_array(f, N)  # raises at the first zero
    roots = _family_root_table(f0.coeffs).roots
    return _bad_split(f.to_poly(), N, [(p, roots(a, p)) for p in disc_primes])


def _bad_split(fa: IntPoly, N: int, disc_roots: list[tuple[int, tuple[int, ...]]]) -> BadSplit:
    # Bad_N of fa from (p, the roots of fa mod p) at its ascending
    # discriminant primes p <= N.  One lifting pass per prime: alpha_p is
    # the sum of the level hits, and the k = 1 count is the first of them.
    total = b1 = 0.0
    for p, roots in disc_roots:
        hits = list(_level_hits(fa, N, p, roots))
        total += sum(hits) * math.log(p)
        b1 += (hits[0] if hits else 0) * math.log(p)
    return BadSplit(total, b1, total - b1)


def delta_N(f0: IntPoly, a: int, N: int) -> float:
    """Delta_N(a) = sum over p > N of (alpha_p - beta_p) log p."""
    alpha, beta, _ = build_ledgers(ShiftedPoly(f0, a), N)
    return _delta_from_ledgers(alpha, beta, N)


def _delta_from_ledgers(alpha: ValuationLedger, beta: ValuationLedger, N: int) -> float:
    # A prime with alpha_p != beta_p divides two values, so it is a shared
    # prime and is in the prime-keyed part.
    total = 0.0
    for p in sorted(p for p in alpha.factored if p > N):
        diff = alpha.factored[p] - beta.factored.get(p, 0)
        if diff:
            total += diff * math.log(p)
    return total


def _prime_logs(N: int) -> np.ndarray:
    # math.log(p) at each prime p <= N, ascending: the scalar terms' logs.
    return np.fromiter(map(math.log, ntkernel._prime_array(N).tolist()), float)


def _density_terms(rho, log_p, p) -> tuple[np.ndarray, np.ndarray]:
    # The scalar loop's C_N and D_N terms at a prime p not dividing D(a), with
    # rho(a; p) roots and log_p = math.log(p), elementwise; a term the loop
    # skips (rho = 0 for C_N, rho = 1 for D_N) comes out +0.0.
    return rho * log_p / (p - 1), (rho - 1) * log_p / p


def _density_sums(
    primes: np.ndarray, log_p: np.ndarray, disc: np.ndarray, root_primes: np.ndarray
) -> tuple[float, float, float]:
    # (C_N, E_N, D_N) over the ascending primes p <= N, with log_p their
    # _prime_logs(N), disc their _disc_mask(D, N) and rho(a; p) the number of
    # times p occurs in the shift's root scan (sorted by p).  Each is the
    # plain sum of the scalar terms in ascending p: E_N's log_p / p where
    # p | D, C_N's and D_N's _density_terms elsewhere, a skipped term adding +0.0.
    p = primes.astype(float)
    rho = np.searchsorted(root_primes, primes, "right") - np.searchsorted(root_primes, primes)
    cn, dn = (np.where(disc, 0.0, terms) for terms in _density_terms(rho, log_p, p))
    en = np.where(disc, log_p / p, 0.0)
    return ntkernel._plain_sum(cn), ntkernel._plain_sum(en), ntkernel._plain_sum(dn)


def _density_sums_for(f0: IntPoly, a: int, N: int) -> tuple[float, float, float]:
    D = _family_discriminant(f0, a)
    if D == 0:
        raise ValueError("discriminant is zero")
    valengine._abs_value_array(ShiftedPoly(f0, a), N)  # raises at the first zero
    root_primes = _family_root_table(f0.coeffs).roots_upto(a, N)[0]
    primes = ntkernel._prime_array(N)
    return _density_sums(primes, _prime_logs(N), _disc_mask(D, N), root_primes)


def c_N(f0: IntPoly, a: int, N: int) -> float:
    """C_N(a) = sum over p <= N, p not dividing D(a), of rho(a;p) log p/(p-1).
    Raises ZeroValueError at the first n <= N with f_a(n) = 0."""
    return _density_sums_for(f0, a, N)[0]


def e_N_d_N(f0: IntPoly, a: int, N: int) -> tuple[float, float]:
    """E_N = sum over discriminant primes <= N of log p/p;
    D_N = sum over the other primes <= N of sigma(a;p) log p/p.
    Raises ZeroValueError at the first n <= N with f_a(n) = 0."""
    return _density_sums_for(f0, a, N)[1:]


def _term_lookups(primes: Sequence[int], d: int) -> tuple[np.ndarray, np.ndarray]:
    # The C_N and D_N terms of a degree-d family, one row per prime and one
    # column per term-row entry: +0.0 at entry 0, and at entry rho + 1 the
    # _density_terms of rho roots, so every gathered term keeps its bits.
    p = np.array(primes, dtype=np.float64)[:, None]
    log_p = np.array([math.log(q) for q in primes])[:, None]
    cn, dn = _density_terms(np.arange(d + 1, dtype=np.float64), log_p, p)
    zero = np.zeros((len(primes), 1))
    return np.hstack((zero, cn)), np.hstack((zero, dn))


def _term_index(f0_coeffs: tuple[int, ...], shifts: np.ndarray, p: int) -> np.ndarray:
    # Each shift's term-row entry at p as intp: rho(a; p) + 1, or 0 where
    # p | D(a), the shifts an int64 or object array, read at a mod p from
    # the family RootTable's term_row(p) at every prime.
    v = (shifts % p).astype(np.int64, copy=False)
    return _family_root_table(f0_coeffs).term_row(p)[v].astype(np.intp)


class Columns(NamedTuple):
    """The batched statistics of one list of shifts, one read-only float64
    entry per shift, each field named as the ensemble statistic that reads
    it: Bad_N, its k >= 2 part B2 = Bad_N - B1, C_N and D_N."""

    bad: np.ndarray
    b2: np.ndarray
    cn: np.ndarray
    dn: np.ndarray


def _columns(f0: IntPoly, shifts: Sequence[int] | np.ndarray, N: int) -> Columns:
    """The column record of (f0, shifts, N), built by one pass over the
    primes p <= N (_column_record) and kept until another is asked for, so
    the statistics of one window share it.  The shifts, an int64 array or a
    list of ints, are keyed by their int64 bytes, and by a tuple only when
    one does not fit int64 (random mode takes any T)."""
    try:
        key = np.asarray(shifts, dtype=np.int64).tobytes()
    except OverflowError:
        key = tuple(map(int, shifts))
    return _column_record(f0.coeffs, key, N)


# _column_record counts a Bad_N level whose modulus p**k is at most this
# from a residue-count table (one bincount of f0(1..N) mod p**k, read at
# a mod p**k) and sorts the residues above it.  Warm records of x^4 + x and
# 2x^3 + x + 1 (T = 1100, N = 50; fastest of 20 builds, median of 15
# rounds) took 1.13 and 1.49 ms with every level sorted, 0.94 and 1.07 ms
# at 4096, no less at 16384, and more at 65536, a 512 KB table a level.
_LEVEL_TABLE_LIMIT = 4096


@functools.lru_cache(maxsize=1)
def _column_record(
    f0_coeffs: tuple[int, ...], shifts_key: bytes | tuple[int, ...], N: int
) -> Columns:
    """Bad_N, B2, C_N and D_N for every a in the shifts (the int64 bytes
    or the tuple of _columns' key), in one pass per prime p <= N over all
    shifts at once.

    Each entry has the bits of its single-shift value: every term is built
    with the scalar loops' float operations (r * log_p / (p - 1),
    (r - 1) * log_p / p, hsum * log_p and hits_1 * log_p, with
    log_p = math.log(p)), and each column takes its terms in ascending p by
    elementwise addition, a skipped term adding +0.0; b2 is bad - b1.  The
    C_N and D_N terms are read from the record's lookups (_term_lookups) at
    each shift's entry (_term_index), which is 0 exactly where p | D(a).
    Below BRUTE_FORCE_LIMIT a prime whose term row is kept costs
    O(len(shifts)) beside its Bad_N levels; from the limit on each record
    builds the prime's row over its p residues again.

    Bad_N is counted from the family's values instead of lifted: at each
    discriminant prime p of a and k = 1, 2, ..., the level hits

        hits_k(a) = #{n <= N : f0(n) = a (mod p**k)}

    are read for all shifts still live, and a shift leaves at its first
    level without hits.  A level p**k <= _LEVEL_TABLE_LIMIT reads the count
    row np.bincount(f0(1..N) mod p**k, minlength=p**k) at a mod p**k (on
    the object path both residues are cast to int64 first); a higher one
    takes two searchsorted calls in the sorted row of f0(1..N) mod p**k.
    Both give the same integers.  The values and shifts are int64 while the
    bound B = sum |c_i| N**i + max |a| fits, else Python ints
    (dtype=object).  |f0(n) - a| <= B, so above B a level is hit only where
    f0(n) = a, and the levels stop there.

    The first shift in order that the single-shift terms reject raises what
    c_N raises for it: ValueError where D(a) = 0, else ZeroValueError at its
    first zero n <= N.  The zeros are the shifts found by searchsorted in
    the sorted f0(1..N); D(a) = 0 is confirmed exactly for the shifts whose
    index is 0 at every prime p <= N (every shift when N < 2)."""
    if isinstance(shifts_key, bytes):
        shifts = np.frombuffer(shifts_key, dtype=np.int64)
    else:
        shifts = np.array(shifts_key, dtype=object)
    n = len(shifts)
    cn, dn, bad, b1 = (np.zeros(n) for _ in range(4))
    suspect = np.zeros(n, dtype=bool)  # a zero n <= N, or D(a) = 0 after the pass
    if n:
        bound = _coeff_bound(f0_coeffs, N) + max(-int(shifts.min()), int(shifts.max()))
        dtype = np.int64 if bound <= np.iinfo(np.int64).max else object
        values = _horner_values(f0_coeffs, N, dtype)
        a = shifts.astype(dtype, copy=False)
        if N >= 1:
            ranked = np.sort(values)
            suspect = ranked[np.searchsorted(ranked[:-1], a)] == a
    multiple_root = np.arange(n)  # the shifts whose index is 0 at every prime so far
    primes = ntkernel.sieve_primes(N).primes if n and N >= 2 else ()
    for p, cn_at, dn_at in zip(primes, *_term_lookups(primes, len(f0_coeffs) - 1)):
        log_p = math.log(p)
        at = _term_index(f0_coeffs, shifts, p)
        cn += cn_at[at]
        dn += dn_at[at]
        live = np.flatnonzero(at == 0)
        multiple_root = multiple_root[at[multiple_root] == 0]
        hsum = np.zeros(n, dtype=np.int64)
        pk = p
        while live.size and pk <= bound:
            res = a[live] % pk
            if pk <= _LEVEL_TABLE_LIMIT:
                counts = np.bincount((values % pk).astype(np.int64, copy=False), minlength=pk)
                hits = counts[res.astype(np.int64, copy=False)]
            else:
                row = np.sort(values % pk)
                hits = np.searchsorted(row, res, "right") - np.searchsorted(row, res, "left")
            if pk == p:
                b1[live] += hits * log_p
            hsum[live] += hits
            live = live[hits > 0]
            pk *= p
        bad += hsum * log_p
    suspect[multiple_root] = True
    for i in np.flatnonzero(suspect).tolist():
        if _family_discriminant(IntPoly(f0_coeffs), int(shifts[i])) == 0:
            raise ValueError("discriminant is zero")
        zeros = np.flatnonzero(values == a[i])
        if zeros.size:
            raise ZeroValueError(int(zeros[0]) + 1)
    record = Columns(bad=bad, b2=bad - b1, cn=cn, dn=dn)
    for column in record:
        column.flags.writeable = False
    return record


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
        # The JSON keys are the field names; f0 goes as its coefficient list.
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"f0": list(self.f0.coeffs)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def csv_row(self) -> str:
        # The cells of the fields CSV_HEADER names, in its order; a bool as 0/1.
        cells = (getattr(self, name) for name in CSV_HEADER.split(","))
        return ",".join(repr(c) if isinstance(c, float) else str(int(c)) for c in cells)


def decomposition_report(
    f0: IntPoly,
    a: int,
    N: int,
    allow_reducible: bool = False,
    root_table: RootTable | None = None,
) -> DecompositionReport:
    """All decomposition terms for one (f0, a, N), each by its own path,
    with the exact ledger identity enforced.  A report reads its family's
    kept rows: the roots come from root_table when it belongs to f0, else
    from the family's shared table, and the verdict on f0 - a is
    ``irreducible_shifts`` at the one shift a, over the family's kept
    pattern rows, so repeated shifts of one family reuse them
    (``is_irreducible_over_Q`` is the one-off path, whose rows are not
    kept)."""
    f = ShiftedPoly(f0, a)
    fa = f.to_poly()
    irreducible = bool(irreducible_shifts(f0, a, a + 1)[0])
    if not irreducible and not allow_reducible:
        raise IrreducibilityRequiredError(f"f0 - ({a}) is reducible over Q")
    D = _family_discriminant(f0, a)
    if D == 0:
        raise ValueError("discriminant is zero; decomposition terms undefined")

    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    table = root_table
    if table is None or table.f0 != f0:
        table = _family_root_table(f0.coeffs)
    values = valengine._abs_value_array(f, N)
    scan = table.roots_upto(a, N)
    alpha, beta, _ = build_ledgers(f, N, _values=values, _roots=scan)
    if N <= CROSS_CHECK_LIMIT:
        L = lcm_bigint(f, N)
        if beta.product() != L:
            raise InternalConsistencyError("ledger product != lcm tree")
        log_L = math.log(L)
    else:
        # Unshared cofactor parts enter by their logs, unfactored.
        log_L = ntkernel._plain_sum(e * math.log(p) for p, e in sorted(beta.factored.items()))
        log_L += ntkernel._plain_sum(map(math.log, beta.rest))

    log_p = ntkernel._plain_sum(map(math.log, values.tolist()))
    # One divisibility mask of D over the primes p <= N serves Bad_N, the
    # small-prime sums and C_N, E_N, D_N.
    primes = ntkernel._prime_array(N)
    disc = _disc_mask(D, N)
    prime_logs = _prime_logs(N)
    # A discriminant prime's roots: a segment read of the table below the
    # limit, from there on the scan's, which a second roots_mod_p would repeat.
    disc_roots = [
        (p, table.roots(a, p) if p < BRUTE_FORCE_LIMIT else tuple(scan[1][scan[0] == p].tolist()))
        for p in primes[disc].tolist()
    ]
    bad, b1, b2 = _bad_split(fa, N, disc_roots)
    delta = _delta_from_ledgers(alpha, beta, N)
    # Both ledgers key the same primes; the sums take every p <= N ascending,
    # a prime that divides no value adding 0 * log p = +0.0.
    ps = primes.tolist()
    beta_e = np.fromiter(map(beta.factored.get, ps, itertools.repeat(0)), float, len(ps))
    alpha_e = np.fromiter(map(alpha.factored.get, ps, itertools.repeat(0)), float, len(ps))
    beta_small = ntkernel._plain_sum(beta_e * prime_logs)
    alpha_small_nondisc = ntkernel._plain_sum(np.where(disc, 0.0, alpha_e * prime_logs))

    cn, en, dn = _density_sums(primes, prime_logs, disc, scan[0])

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
