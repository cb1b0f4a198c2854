"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and shares no code with the package:
trial-division primes/factoring, Sylvester-matrix resultants by Bareiss
elimination, exhaustive root enumeration, direct valuation loops, a pure
Kronecker irreducibility decision, chain and balanced-tree lcms,
pairwise-gcd batch GCDs, and the paper's divided difference G(m, n), its
zero-free threshold C1 and a Delta_N built from pairwise gcd(f(m), G(m, n)),
plus a second Delta_N from the quotient of the cofactor product by their lcm.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple


def trial_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def trial_factor(m: int, bound: int | None = None) -> list[tuple[int, int]]:
    m = abs(m)
    out = []
    p = 2
    while p * p <= m and (bound is None or p <= bound):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def eval_poly(coeffs, n):
    return sum(c * n**i for i, c in enumerate(coeffs))


def weil_sum_direct(coeffs, b: int, p: int) -> complex:
    """S(b, p) = sum over x mod p of exp(2 pi i b f(x) / p), term by term."""
    table = [cmath.exp(2j * math.pi * t / p) for t in range(p)]
    total = 0j
    for x in range(p):
        total += table[b * eval_poly(coeffs, x) % p]
    return total


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) as the Bareiss determinant of the Sylvester matrix."""
    fd = list(f)
    gd = list(g)
    while fd and fd[-1] == 0:
        fd.pop()
    while gd and gd[-1] == 0:
        gd.pop()
    if not fd or not gd:
        return 0
    m, n = len(fd) - 1, len(gd) - 1
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return fd[0] ** n
    if n == 0:
        return gd[0] ** m
    size = m + n
    rows = []
    frev = fd[::-1]
    grev = gd[::-1]
    for i in range(n):
        rows.append([0] * i + frev + [0] * (size - i - m - 1))
    for i in range(m):
        rows.append([0] * i + grev + [0] * (size - i - n - 1))
    return _bareiss_det(rows)


def _bareiss_det(mat: list[list[int]]) -> int:
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def disc_via_sylvester(coeffs: list[int]) -> int:
    d = len(coeffs) - 1
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    res = sylvester_resultant(coeffs, deriv)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // coeffs[-1]


def brute_roots_mod(coeffs, modulus: int) -> list[int]:
    return [x for x in range(modulus) if eval_poly(coeffs, x) % modulus == 0]


def residue_counts(coeffs, p: int) -> list[int]:
    """#{x mod p : f(x) = c mod p} for c = 0 .. p-1, one evaluation per x:
    the number of roots of f - c mod p."""
    counts = [0] * p
    for x in range(p):
        counts[eval_poly(coeffs, x) % p] += 1
    return counts


def alpha_direct(values: list[int], p: int) -> int:
    total = 0
    for v in values:
        v = abs(v)
        while v % p == 0:
            v //= p
            total += 1
    return total


def beta_direct(values: list[int], p: int) -> int:
    best = 0
    for v in values:
        v = abs(v)
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        best = max(best, e)
    return best


def q_gcd_degree(f: list[int], g: list[int]) -> int:
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]

    def trim(x):
        while x and x[-1] == 0:
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while b:
        # a mod b
        r = a[:]
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            off = len(r) - len(b)
            for j, y in enumerate(b):
                r[off + j] -= c * y
            r.pop()
            trim(r)
        a, b = b, trim(r)
    return len(a) - 1


def _divisors_of(m: int) -> list[int]:
    divs = [1]
    for p, e in trial_factor(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _poly_divides_q(g: list[int], f: list[int]) -> bool:
    rem = [Fraction(c) for c in f]
    gq = [Fraction(c) for c in g]
    while len(rem) >= len(gq):
        c = rem[-1] / gq[-1]
        off = len(rem) - len(gq)
        for j, y in enumerate(gq):
            rem[off + j] -= c * y
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return not rem


def kronecker_irreducible(coeffs: list[int]) -> bool:
    """Pure Kronecker decision: interpolate every divisor tuple at k+1
    points for each candidate factor degree k <= d//2."""
    d = len(coeffs) - 1
    if d <= 0:
        raise ValueError("need degree >= 1")
    if d == 1:
        return True
    if coeffs[0] == 0:
        return False
    for k in range(1, d // 2 + 1):
        xs = []
        x = 0
        while len(xs) < k + 1:
            if eval_poly(coeffs, x) != 0:
                xs.append(x)
            x = -x if x > 0 else -x + 1
        choice_lists = []
        for i, xi in enumerate(xs):
            divs = _divisors_of(eval_poly(coeffs, xi))
            signed = divs if i == 0 else [s * dd for dd in divs for s in (1, -1)]
            choice_lists.append(signed)
        # Lagrange basis over one common denominator L: the polynomial
        # through (xs, combo) is sum_i combo[i] * basis[i] / L.
        numerators, dens = [], []
        for i, xi in enumerate(xs):
            num = [1]
            den = 1
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                num = [
                    (num[t - 1] if t else 0) - xj * (num[t] if t < len(num) else 0)
                    for t in range(len(num) + 1)
                ]
                den *= xi - xj
            numerators.append(num)
            dens.append(den)
        L = math.lcm(*dens)
        basis = [[c * (L // den) for c in num] for num, den in zip(numerators, dens)]
        columns = list(zip(*basis))  # columns[t][i]: x^t coefficient of basis i
        for combo in itertools.product(*choice_lists):
            g = []
            for column in columns:
                c = sum(map(operator.mul, combo, column))
                if c % L:
                    break  # not an integer polynomial
                g.append(c // L)
            else:
                while g and g[-1] == 0:
                    g.pop()
                if len(g) > 1 and _poly_divides_q(g, coeffs):
                    return False
    return True


def lcm_chain(values: list[int]) -> int:
    L = 1
    for v in values:
        L = math.lcm(L, abs(v))
    return L


def lcm_tree(values: list[int]) -> int:
    # Balanced pairwise lcm: operands of similar size, so large N stays cheap.
    layer = [abs(v) for v in values] or [1]
    while len(layer) > 1:
        layer = [math.lcm(*layer[i : i + 2]) for i in range(0, len(layer), 2)]
    return layer[0]


def shared_cofactors(values: list[int]) -> list[bool]:
    """For each value: does it share a factor > 1 with another entry of the
    list?  Pairwise gcds, O(n^2)."""
    return [
        any(math.gcd(v, w) > 1 for j, w in enumerate(values) if j != i)
        for i, v in enumerate(values)
    ]


def shared_gcds(values: list[int]) -> list[int]:
    """gcd(c_i, prod_{j != i} c_j) for each (nonzero) entry, the product of
    the others taken as P // c_i with P the product of all."""
    P = math.prod(values)
    return [math.gcd(v, P // v) for v in values]


def divided_difference(coeffs, m: int, n: int) -> int:
    """G(m, n) = (f0(m) - f0(n)) / (m - n) for f0 given by its coefficients."""
    if m == n:
        raise ValueError("divided difference needs m != n")
    q, r = divmod(eval_poly(coeffs, m) - eval_poly(coeffs, n), m - n)
    assert r == 0, "divided difference not integral"
    return q


class FindC1Result(NamedTuple):
    scan_bound: int
    analytic_bound: int


def find_C1(coeffs, scan_limit: int) -> FindC1Result:
    """Zero-free threshold for G.

    scan_bound is the largest n <= scan_limit with G(m, n) = 0 for some
    1 <= m < n (0 if none); analytic_bound is the smallest n0 with
    n0^(d-1) > sum_j |c_j| * j * n0^(j-1) over 1 <= j < d, which suffices for
    G != 0 whenever max(m, n) exceeds it."""
    coeffs = list(coeffs)
    d = len(coeffs) - 1
    if d < 2 or coeffs[-1] != 1:
        raise ValueError("find_C1 requires a monic polynomial of degree >= 2")
    n0 = 1
    while n0 ** (d - 1) <= sum(abs(coeffs[j]) * j * n0 ** (j - 1) for j in range(1, d)):
        n0 += 1
    values = [eval_poly(coeffs, n) for n in range(scan_limit + 1)]
    scan_bound = 0
    for n in range(2, scan_limit + 1):
        for m in range(1, n):
            if values[m] == values[n]:  # G(m, n) = 0 iff f0(m) = f0(n)
                assert n <= n0, f"G({m},{n}) = 0 beyond the analytic bound {n0}"
                scan_bound = n
    return FindC1Result(scan_bound, n0)


def delta_pairwise(coeffs, a: int, N: int) -> float:
    """Delta_N(a) = sum over primes p > N of (alpha_p - beta_p) log p, for
    f = f0 - a with f0 given by its coefficients, ascending in p.

    A prime p > N dividing f(m) and f(n), m < n <= N, divides
    G(m, n) = (f(m) - f(n)) / (m - n), as p does not divide m - n; and one
    dividing f(m) and G(m, n) divides f(n).  So the primes with
    alpha_p != beta_p are the primes > N of the pairwise gcd(f(m), G(m, n)),
    found here by trial division.  O(N^2) pairs: meant for N <= 300."""
    values = [eval_poly(coeffs, n) - a for n in range(1, N + 1)]
    small = math.prod(trial_primes(N))
    candidates = set()
    for m in range(1, N + 1):
        for n in range(m + 1, N + 1):
            g = math.gcd(values[m - 1], divided_difference(coeffs, m, n))
            h = math.gcd(g, small)
            while h > 1:  # strip the primes <= N
                g //= h
                h = math.gcd(g, small)
            if g > 1:
                candidates.update(p for p, _ in trial_factor(g))
    total = 0.0
    for p in sorted(candidates):
        total += (alpha_direct(values, p) - beta_direct(values, p)) * math.log(p)
    return total


def delta_quotient(coeffs, a: int, N: int) -> float:
    """Delta_N(a) for f = f0 - a, f0 given by its coefficients, as
    log(prod(c) // lcm(c)) over the cofactors c: each |f(n)|, n <= N, with
    every prime <= N stripped by repeated gcd with their product.  The
    quotient is exactly prod over primes q > N of q**(alpha_q - beta_q)."""
    small = math.prod(trial_primes(N))
    cofactors = []
    for n in range(1, N + 1):
        c = abs(eval_poly(coeffs, n) - a)
        h = math.gcd(c, small)
        while h > 1:
            c //= h
            h = math.gcd(c, small)
        cofactors.append(c)
    q, r = divmod(math.prod(cofactors), lcm_tree(cofactors))
    assert r == 0
    return math.log(q)
