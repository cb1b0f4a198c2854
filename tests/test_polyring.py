import math
import random

import pytest

from polylcm import polyring
from polylcm.polyring import (
    IntPoly,
    ShiftedPoly,
    _interpolate,
    discriminant,
    is_irreducible_over_Q,
    is_primitive,
    resultant,
)

from oracles import (
    disc_via_sylvester,
    divided_difference,
    find_C1,
    kronecker_irreducible,
    q_gcd_degree,
    sylvester_resultant,
)


def _random_poly(rng, d, lo=-20, hi=20, monic=False):
    coeffs = [rng.randint(lo, hi) for _ in range(d)]
    coeffs.append(1 if monic else rng.choice([c for c in range(lo, hi + 1) if c != 0]))
    return IntPoly(tuple(coeffs))


class TestIntPoly:
    def test_eval(self, x3):
        assert x3(5) == 125
        assert ShiftedPoly(x3, 2)(3) == 25
        assert ShiftedPoly(IntPoly((0, -3, 0, 1)), 0)(2) == 2

    def test_normalization(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).is_zero
        assert IntPoly((0, 0)).degree == -1

    def test_parse_format_roundtrip(self):
        for text in ("0,2,0,1", "-9,0,0,0,1", "5", "-1,1"):
            assert IntPoly.parse(text).format() == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntPoly.parse("1,x,3")

    def test_shifted_to_poly(self, x3):
        assert ShiftedPoly(x3, 2).to_poly().coeffs == (-2, 0, 0, 1)
        assert ShiftedPoly(x3, -1).to_poly().coeffs == (1, 0, 0, 1)


class TestResultantAndDiscriminant:
    def test_known_cubic_values(self, x3):
        assert discriminant(IntPoly((-1, 0, 0, 1))) == -27  # x^3 - 1
        assert discriminant(IntPoly((-2, -3, 0, 1))) == 0  # x^3 - 3x - 2
        assert discriminant(IntPoly((1, 0, 1))) == -4  # x^2 + 1

    def test_shift_families(self, x3):
        for a in range(-100, 101):
            assert discriminant(ShiftedPoly(x3, a)) == -27 * a * a
        f = IntPoly((0, -3, 0, 1))
        for a in range(-100, 101):
            assert discriminant(ShiftedPoly(f, a)) == -27 * (a - 2) * (a + 2)

    def test_resultant_matches_sylvester_bareiss(self):
        rng = random.Random(2024)
        for _ in range(300):
            df = rng.randint(1, 6)
            dg = rng.randint(1, 6)
            f = _random_poly(rng, df, -8, 8)
            g = _random_poly(rng, dg, -8, 8)
            assert resultant(f, g) == sylvester_resultant(list(f.coeffs), list(g.coeffs))

    def test_discriminant_matches_sylvester(self):
        rng = random.Random(55)
        for _ in range(200):
            f = _random_poly(rng, rng.randint(2, 5), -12, 12)
            assert discriminant(f) == disc_via_sylvester(list(f.coeffs))

    def test_disc_zero_iff_gcd_nontrivial(self):
        rng = random.Random(77)
        seen_zero = 0
        for _ in range(1000):
            d = rng.choice((3, 4))
            f = _random_poly(rng, d, -20, 20)
            if rng.random() < 0.3:
                # plant a square factor so the zero branch is exercised
                g = _random_poly(rng, 1, -5, 5)
                h = _random_poly(rng, d - 2, -5, 5)
                f = g * g * h
                if f.degree < 2:
                    continue
            dz = discriminant(f) == 0
            gcd_deg = q_gcd_degree(list(f.coeffs), list(f.derivative().coeffs))
            assert dz == (gcd_deg > 0)
            seen_zero += dz
        assert seen_zero > 50

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            discriminant(IntPoly((1, 1)))


class TestInterpolate:
    def test_integer_polynomials_round_trip(self):
        # Any d + 1 or more distinct integer nodes give back the polynomial.
        rng = random.Random(1919)
        for _ in range(300):
            d = rng.randint(0, 6)
            f = IntPoly(tuple(rng.randint(-50, 50) for _ in range(d + 1)))
            xs = rng.sample(range(-10**6, 10**6), d + 1 + rng.randint(0, 2))
            assert _interpolate([(x, f(x)) for x in xs]) == f, (f, xs)

    def test_non_integer_interpolant_is_none(self):
        # x(x - 1)/2 is integer-valued at every integer, yet not in Z[x].
        assert _interpolate([(0, 0), (1, 0), (2, 1)]) is None


class TestPrimitivity:
    def test_examples(self):
        assert is_primitive(IntPoly((0, 2, 0, 1)))
        assert not is_primitive(IntPoly((6, 0, 0, 3)))
        assert is_primitive(IntPoly((3, 0, 2)))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_primitive(IntPoly(()))


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible_over_Q(IntPoly((-2, 0, 0, 1)))  # x^3 - 2
        assert not is_irreducible_over_Q(IntPoly((-9, 0, 0, 0, 1)))  # x^4 - 9
        assert not is_irreducible_over_Q(IntPoly((1, 0, 0, 1)))  # x^3 + 1

    def test_kronecker_only_cases(self):
        # irreducible but reducible mod every prime: pattern stage cannot
        # certify, the Kronecker stage must
        assert is_irreducible_over_Q(IntPoly((1, 0, 0, 0, 1)))  # x^4 + 1
        assert is_irreducible_over_Q(IntPoly((4, 4, 0, 0, 1)))  # x^4 + 4x + 4

    def test_binomial_criterion(self):
        assert not is_irreducible_over_Q(IntPoly((4, 0, 0, 0, 1)))  # -4*1^4
        assert not is_irreducible_over_Q(IntPoly((64, 0, 0, 0, 1)))  # -4*2^4
        assert is_irreducible_over_Q(IntPoly((2, 0, 0, 0, 1)))  # x^4 + 2
        assert not is_irreducible_over_Q(IntPoly((-64, 0, 0, 0, 0, 0, 1)))  # x^6 - 64
        assert is_irreducible_over_Q(IntPoly((-2, 0, 0, 0, 0, 0, 1)))  # x^6 - 2

    def test_quintic_with_quadratic_factor(self):
        f = IntPoly((1, 1, 1)) * IntPoly((3, 0, 1, 1))  # (x^2+x+1)(x^3+x^2+3)
        assert not is_irreducible_over_Q(f)

    def test_agreement_with_kronecker_oracle_200_random(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 200:
            d = rng.randint(2, 5)
            f = _random_poly(rng, d, -10, 10)
            if not is_primitive(f):
                continue
            assert is_irreducible_over_Q(f) == kronecker_irreducible(list(f.coeffs)), f
            checked += 1

    def test_agreement_with_sympy_factor_list(self):
        # Degree 2-10, every other polynomial a planted product of random
        # factors of degree <= 5; sympy is test-only.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(5150)
        checked = 0
        while checked < 80:
            d = rng.randint(2, 10)
            if checked % 2:
                f = IntPoly((1,))
                while f.degree < d:
                    f = f * _random_poly(rng, rng.randint(1, min(d - f.degree, 5)), -3, 3)
            else:
                f = _random_poly(rng, d, -9, 9)
            if not is_primitive(f):
                continue
            _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
            expected = len(factors) == 1 and factors[0][1] == 1
            assert is_irreducible_over_Q(f) == expected, f
            checked += 1

    def test_biquadratic_grid_against_sympy(self, monkeypatch):
        # x^4 + b x^2 + c has no rational root for c > 0 here, yet often
        # splits into two quadratics, so the Kronecker stage both finds a
        # factor and rules one out on this grid; sympy is test-only.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        search = polyring._kronecker_has_factor_of_degree
        outcomes = []

        def counted(f, k):
            outcomes.append(search(f, k))
            return outcomes[-1]

        monkeypatch.setattr(polyring, "_kronecker_has_factor_of_degree", counted)
        for b in range(-6, 7):
            for c in range(1, 13):
                f = IntPoly((c, 0, b, 0, 1))
                _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
                expected = len(factors) == 1 and factors[0][1] == 1
                assert is_irreducible_over_Q(f) == expected, f
        assert True in outcomes and False in outcomes, outcomes

    def test_irreducible_implies_nonzero_disc(self, x3):
        for a in range(-50, 51):
            fa = ShiftedPoly(x3, a).to_poly()
            if is_irreducible_over_Q(fa):
                assert discriminant(fa) != 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            is_irreducible_over_Q(IntPoly((5,)))
        with pytest.raises(ValueError):
            is_irreducible_over_Q(IntPoly((2, 0, 2)))


class TestHadamardBound:
    """The pattern walk settles a shift no prime could use once the product
    of its primes exceeds _hadamard_root, the isqrt of Hadamard's bound on
    (lc * D(a))**2; every prime with an undefined pattern divides lc * D(a)."""

    def test_bounds_lc_times_disc_of_random_polynomials(self):
        rng = random.Random(9090)
        for monic in (True, False):
            for _ in range(60):
                f = _random_poly(rng, rng.randint(4, 10), -15, 15, monic=monic)
                exact = f.lc * disc_via_sylvester(list(f.coeffs))
                assert abs(exact) <= polyring._hadamard_root(f, 0, 1), f

    def test_bounds_every_shift_of_a_window(self):
        for coeffs in ((3, -2, 0, 1, 1), (7, 1, 0, -2, 0, 3, 1), (-5, 4, 0, 1, 0, 0, 6)):
            f0 = IntPoly(coeffs)
            bound = polyring._hadamard_root(f0, -80, 41)
            for a in range(-80, 41):
                assert abs(f0.lc * polyring._family_discriminant(f0, a)) <= bound, (coeffs, a)

    def test_leading_coefficient_of_the_first_six_primes(self):
        # 30030 x^4 + x + 1 drops degree mod 2, 3, 5, 7, 11 and 13, so the
        # walk passes a product of 30030 before its first usable prime; the
        # bound covers those primes only because it bounds lc * D, not D.
        f = IntPoly((1, 1, 0, 0, 30030))
        assert f.lc == math.prod(polyring._PATTERN_PRIMES[:6])
        assert is_irreducible_over_Q(f)

    def test_no_verdict_computes_a_resultant(self, monkeypatch):
        # (2x^2 + x + 1)^2 has D = 0 and no rational root: the walk alone
        # finds it reducible once the product of its primes passes the bound.
        calls = []
        resultant = polyring.resultant
        monkeypatch.setattr(polyring, "resultant", lambda f, g: calls.append(f) or resultant(f, g))
        square = IntPoly((1, 1, 2)) * IntPoly((1, 1, 2))
        assert not is_irreducible_over_Q(square)
        assert is_irreducible_over_Q(IntPoly((3, 1, 0, -1, 0, 2, 1)))  # degree 6
        assert not is_irreducible_over_Q(square * IntPoly((5, 0, 3)))  # degree 6, D = 0
        assert calls == []


# G(m, n) and C1 are the paper's objects; the package does not use them, so
# they live in the test oracles (the Delta_N oracle reads G), checked here.
class TestDividedDifference:
    def test_examples(self, x3):
        assert divided_difference(x3.coeffs, 2, 1) == 7
        assert divided_difference(x3.coeffs, 5, 3) == 49
        assert divided_difference((0, 2, 0, 1), 2, 1) == 9

    def test_m_equals_n_rejected(self, x3):
        with pytest.raises(ValueError):
            divided_difference(x3.coeffs, 4, 4)

    def test_identity_10k_random(self):
        rng = random.Random(31337)
        for _ in range(10_000):
            f = _random_poly(rng, rng.randint(1, 5), -9, 9, monic=rng.random() < 0.5)
            m, n = rng.randint(1, 10**6), rng.randint(1, 10**6)
            if m == n:
                continue
            g = divided_difference(f.coeffs, m, n)
            assert (m - n) * g == f(m) - f(n)


class TestFindC1:
    def test_pure_cube(self, x3):
        res = find_C1(x3.coeffs, 1000)
        assert res.scan_bound == 0

    def test_x3_minus_3x(self):
        res = find_C1((0, -3, 0, 1), 1000)
        assert res.scan_bound == 0
        assert res.analytic_bound == 2

    def test_x3_plus_2x(self):
        assert find_C1((0, 2, 0, 1), 1000).scan_bound == 0

    def test_poly_with_actual_collision(self):
        # f = x^3 - 6x^2: f(2) = -16 = f(-2)... use f(1)=-5, f(2)=-16, f(3)=-27,
        # f(4)=-32, f(5)=-25, f(6)=0 is out (n>=1 scan: f(1..): collision f(2)=f(?)..)
        # x^3 - 6x^2 + 4: values 1..6: -1,-12,-23,-28,-21,4 -> no collision;
        # craft one explicitly: f = (x-1)(x-2)(x-3) = x^3-6x^2+11x-6 has
        # f(1)=f(2)=f(3)=0 -> G vanishes at pairs below the analytic bound.
        f = IntPoly((-6, 11, -6, 1))
        res = find_C1(f.coeffs, 50)
        assert res.scan_bound == 3
        assert res.analytic_bound >= 3

    def test_monic_required(self):
        with pytest.raises(ValueError):
            find_C1((0, 0, 0, 2), 10)

    def test_scan_consistent_with_direct_pairs(self, x3):
        limit = 60
        f = IntPoly((5, -4, -2, 1))
        res = find_C1(f.coeffs, limit)
        zeros = [
            (m, n)
            for n in range(2, limit + 1)
            for m in range(1, n)
            if f(m) == f(n)
        ]
        expected = max((n for _, n in zeros), default=0)
        assert res.scan_bound == expected
