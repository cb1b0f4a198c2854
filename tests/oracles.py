"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and shares no code with the package:
trial-division primes/factoring, Sylvester-matrix resultants by Bareiss
elimination, exhaustive root enumeration, direct valuation loops, and a
pure Kronecker irreducibility decision.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


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
        for combo in itertools.product(*choice_lists):
            # Lagrange interpolation through (xs, combo)
            g = [Fraction(0)] * (k + 1)
            for i, xi in enumerate(xs):
                basis = [Fraction(1)]
                den = Fraction(1)
                for j, xj in enumerate(xs):
                    if j == i:
                        continue
                    basis = [
                        (basis[t - 1] if t else Fraction(0))
                        - xj * (basis[t] if t < len(basis) else Fraction(0))
                        for t in range(len(basis) + 1)
                    ]
                    den *= xi - xj
                for t, c in enumerate(basis):
                    g[t] += combo[i] * c / den
            while g and g[-1] == 0:
                g.pop()
            if len(g) - 1 < 1:
                continue
            if any(c.denominator != 1 for c in g):
                continue
            if _poly_divides_q([int(c) for c in g], coeffs):
                return False
    return True


def lcm_chain(values: list[int]) -> int:
    L = 1
    for v in values:
        L = math.lcm(L, abs(v))
    return L


def shared_cofactors(values: list[int]) -> list[bool]:
    """For each value: does it share a factor > 1 with another entry of the
    list?  Pairwise gcds, O(n^2)."""
    return [
        any(math.gcd(v, w) > 1 for j, w in enumerate(values) if j != i)
        for i, v in enumerate(values)
    ]
