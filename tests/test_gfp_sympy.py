"""Differential tests of the GF(p)[x] kernel against sympy's factorisation
over GF(p).  sympy is a second, independent implementation; it is used here
only, never by the package."""

import random

import pytest

from polylcm.modroots import BRUTE_FORCE_LIMIT, roots_mod_p
from polylcm.ntkernel import is_prime, sieve_primes
from polylcm.polyring import IntPoly, _degree_pattern_mod_p

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
EXAMPLES = 60


def _sympy_factors(coeffs, p):
    # [(monic factor, multiplicity)] of the ascending coefficient list mod p
    _, factors = sympy.Poly(list(reversed(coeffs)), X, modulus=p).factor_list()
    return factors


def _random_coeffs(rng, d, span):
    return tuple(rng.randint(-span, span) for _ in range(d)) + (rng.choice((1, 1, 2, -3)),)


def test_degree_pattern_matches_sympy():
    rng = random.Random(7001)
    primes = sieve_primes(200).primes
    usable = 0
    for _ in range(EXAMPLES):
        f = IntPoly(_random_coeffs(rng, rng.randint(2, 8), 40))
        p = rng.choice(primes)
        factors = _sympy_factors(f.coeffs, p)
        got = _degree_pattern_mod_p(f, p)
        if f.lc % p == 0 or any(e > 1 for _, e in factors):
            assert got is None, (f, p)
        else:
            assert got == sorted(g.degree() for g, _ in factors), (f, p)
            usable += 1
    assert usable >= EXAMPLES // 2


def test_cz_roots_match_sympy():
    rng = random.Random(7002)
    for i in range(EXAMPLES):
        p = rng.randrange(BRUTE_FORCE_LIMIT, 10**9) | 1
        while not is_prime(p):
            p += 2
        # Plant up to three roots (repeats allowed) in every other example,
        # so multi-root splitting and repeated roots are exercised.
        poly = IntPoly(_random_coeffs(rng, rng.randint(1, 4), 10**6))
        if i % 2:
            for _ in range(rng.randint(1, 3)):
                poly = poly * IntPoly((-rng.choice((1, 2, rng.randrange(p))), 1))
        expected = sorted(
            -g.all_coeffs()[1] * pow(g.all_coeffs()[0], -1, p) % p
            for g, _ in _sympy_factors(poly.coeffs, p)
            if g.degree() == 1
        )
        assert list(roots_mod_p(poly, p).roots) == expected, (poly, p)
