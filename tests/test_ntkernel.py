import math
import random
import re
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from polylcm import ntkernel
from polylcm.errors import ResourceLimitError, UnsupportedSizeError
from polylcm.ntkernel import (
    SIEVE_LIMIT_MAX,
    Factorization,
    divisor_logsum,
    divisor_logsum_table,
    factor,
    is_prime,
    mertens_sum,
    nu,
    sieve_primes,
)

from oracles import trial_factor, trial_primes


class TestSievePrimes:
    def test_tiny(self):
        assert sieve_primes(10).primes == (2, 3, 5, 7)

    def test_hundred_matches_trial_oracle(self):
        table = sieve_primes(100)
        assert list(table) == trial_primes(100)
        assert len(table) == 25

    def test_pi_of_1e6(self):
        assert len(sieve_primes(10**6)) == 78498

    def test_segment_boundary_agrees_with_oracle(self):
        # a table well past the oracle's range, read below and at its top
        table = sieve_primes(300_000)
        oracle = trial_primes(2000)
        assert table.upto(2000) == tuple(oracle)
        assert 299993 in table  # prime near the top
        assert 299997 not in table

    def test_edges_match_trial_oracle(self, monkeypatch):
        # L = q**2 and q**2 +- 1 for the primes q <= 100, where q's crossing
        # off starts, and a seeded sample of L <= 5e4: each sieved on a fresh
        # table, then sliced from a larger cached one.
        top = 50_000
        oracle = trial_primes(top)
        rng = random.Random(2113)
        limits = [q * q + e for q in trial_primes(100) for e in (-1, 0, 1)]
        limits += [rng.randint(2, top) for _ in range(20)]
        for L in limits:
            monkeypatch.setattr(ntkernel, "_shared_table", None)
            assert list(sieve_primes(L)) == oracle[: bisect_right(oracle, L)], L
        sieve_primes(2 * top)
        for L in limits:
            assert list(sieve_primes(L)) == oracle[: bisect_right(oracle, L)], L

    def test_invariants(self):
        table = sieve_primes(500)
        assert all(is_prime(p) for p in table)
        assert all(a < b for a, b in zip(table, table.primes[1:]))

    def test_limit_too_small(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_resource_error(self):
        with pytest.raises(ResourceLimitError):
            sieve_primes(SIEVE_LIMIT_MAX + 1)

    def test_contains(self):
        table = sieve_primes(100)
        assert 97 in table and 91 not in table


class TestNu:
    def test_examples(self):
        assert nu(2, 24) == 3
        assert nu(5, 1) == 0
        assert nu(7, -343) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            nu(3, 0)

    def test_divides_exactly(self):
        rng = random.Random(1234)
        primes = sieve_primes(100).primes
        for _ in range(1000):
            p = rng.choice(primes)
            m = rng.randrange(1, 1 << 40)
            if rng.random() < 0.5:
                m = -m
            k = nu(p, m)
            assert m % p**k == 0
            assert m % p ** (k + 1) != 0


class TestFactor:
    def test_examples(self):
        assert factor(252).factors == ((2, 2), (3, 2), (7, 1))
        assert factor(217).factors == ((7, 1), (31, 1))

    def test_large_prime_cross_checked_by_trial_division(self):
        n = 10**12 + 39
        f = factor(n)
        assert f.product() == n
        # trial division to 1e6 (sqrt order) decides primality here
        assert trial_factor(n, bound=10**6) == list(f.factors)

    def test_sign_and_units(self):
        assert factor(-252).factors == ((2, 2), (3, 2), (7, 1))
        assert factor(1).factors == ()
        assert factor(-1).factors == ()

    def test_errors(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(UnsupportedSizeError):
            factor(1 << 128)

    def test_reconstruction_10k_random(self):
        rng = random.Random(0xFACADE)
        for _ in range(10_000):
            m = rng.randrange(2, 1 << 64)
            f = factor(m)
            assert f.product() == m
            assert all(a < b for (a, _), (b, _) in zip(f.factors, f.factors[1:]))
            assert all(is_prime(p) for p, _ in f.factors)

    def test_listed_primes_pass_independent_trial_division(self):
        for m in (2 * 3 * 5 * 7 * 11 * 13, 2**20 - 1, 10**9 + 7, 123456789):
            for p, _ in factor(m).factors:
                assert all(p % q for q in range(2, math.isqrt(p) + 1))

    def test_divisors(self):
        assert Factorization(12, ((2, 2), (3, 1))).divisors() == [1, 2, 3, 4, 6, 12]

    def test_near_word_sizes_match_sympy(self):
        # Near both ends of the supported range, on inputs rho can finish:
        # 2**64 +- k, and a smooth part (primes below 1e5, most of them above
        # the trial-division bound) times the largest prime that keeps the
        # product below 2**64 or 2**128.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0x2_64_128)
        small = list(sympy.primerange(2, 10**5))
        cases = [(1 << 64) + k for k in range(-12, 13) if k]
        for bits in (64, 128):
            for _ in range(12):
                smooth = math.prod(rng.choice(small) for _ in range(rng.randint(1, 3)))
                cases.append(smooth * sympy.prevprime((1 << bits) // smooth))
        for m in cases:
            assert factor(m).factors == tuple(sorted(sympy.factorint(m).items())), m


class TestTrialPass:
    # factor's one numpy pass of trial division (n mod p for every prime
    # p <= min(isqrt(n), bound) by Horner over 32-bit limbs) against plain
    # Python trial division: near limb and word boundaries, on prime powers
    # and at the bound.
    @staticmethod
    def _cases():
        rng = random.Random(0x7A1)
        cases = [(1 << 128) - 1]
        for bits in (32, 64, 96):
            cases += [(1 << bits) + k for k in rng.sample(range(-(10**4), 10**4), 6) if k]
        cases += [3**80, 2**127, 99991**7, 65537**4 * 3, 10007**3 * 99991**2]
        cases += [99991, 99991**2, 99991 * 100003, 100003**2, 7 * 99989 * 99991]
        return cases

    def test_residues_match_python_mod(self):
        primes = ntkernel._prime_array(ntkernel._TRIAL_DIVISION_BOUND)
        for n in [*self._cases(), 0, 1, -(2**64 + 1), -(3**100), 2**63 - 1, -(2**63)]:
            assert ntkernel._mod_primes(n, primes).tolist() == [n % p for p in primes.tolist()], n

    def test_small_primes_match_trial_division(self):
        bound = ntkernel._TRIAL_DIVISION_BOUND
        for n in self._cases():
            f = factor(n)
            assert f.product() == n and all(is_prime(p) for p in f.primes())
            want = [(p, e) for p, e in trial_factor(n, bound) if p <= bound]
            assert [(p, e) for p, e in f.factors if p <= bound] == want, n

    def test_piece_below_bound_squared_needs_no_rho(self, monkeypatch):
        # Pieces in [9e6, 1e10) whose primes all exceed 3000: the pass to
        # min(isqrt(n), 1e5) leaves a prime, so rho is never called.
        calls = []
        rho = ntkernel._rho_brent
        monkeypatch.setattr(ntkernel, "_rho_brent", lambda n, rng: calls.append(n) or rho(n, rng))
        for q, r in ((3001, 3011), (7919, 104729), (30011, 30013), (99989, 99991)):
            assert 9 * 10**6 <= q * r < 10**10
            assert factor(q * r).factors == ((q, 1), (r, 1))
        assert calls == []


class TestIsPrime:
    def test_small(self):
        small = set(trial_primes(200))
        for n in range(200):
            assert is_prime(n) == (n in small)

    def test_large_composites_and_primes(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime((2**31 - 1) * (2**31 + 11))
        assert is_prime(2**89 - 1)  # above the fixed-base proven bound
        assert not is_prime((2**61 - 1) ** 2)

    def test_strong_pseudoprime_to_base_2(self):
        assert not is_prime(2047)  # 23 * 89


class TestPlainSum:
    def test_adds_in_order_without_compensation(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum would give 1.0
        assert ntkernel._plain_sum([1e16, 1.0, -1e16]) == 0.0
        assert ntkernel._plain_sum([1.0, 1e16, -1e16]) == 0.0
        assert ntkernel._plain_sum([1e16, -1e16, 1.0]) == 1.0
        assert ntkernel._plain_sum(iter([])) == 0.0

    def test_equals_the_python_loop_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        # Finite doubles of both signs, subnormals and -0.0 included, up to
        # 1e300: no sum of 80 of them overflows.
        doubles = st.floats(-1e300, 1e300, allow_nan=False)

        @hypothesis.settings(max_examples=300, derandomize=True, deadline=None)
        @hypothesis.given(st.lists(doubles, max_size=80))
        def check(xs):
            total = 0.0
            for x in xs:
                total += x
            for form in (xs, np.array(xs, dtype=float), (x for x in xs), iter(xs)):
                assert ntkernel._plain_sum(form).hex() == total.hex(), type(form)

        check()
        assert ntkernel._plain_sum(iter([])).hex() == (0.0).hex()
        assert ntkernel._plain_sum([-0.0]).hex() == (0.0 + -0.0).hex()

    def test_package_has_no_pairwise_or_compensated_float_reduction(self):
        # np.mean/var/std sum pairwise and math.fsum and the statistics module
        # compensate, so any of them would move output bits that
        # _plain_sum's left-to-right order fixes.
        banned = re.compile(
            r"np\.(mean|var|std)\b|\.(mean|var|std)\(|\bfsum\b"
            r"|\bimport statistics\b|\bfrom statistics\b|\bstatistics\.\w"
        )
        hits = [
            f"{path.name}:{i}: {line.strip()}"
            for path in sorted(Path(ntkernel.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)
        ]
        assert hits == []


class TestMertensSum:
    def test_examples(self):
        assert abs(mertens_sum(10) - 1.31265) < 1e-4
        assert abs(mertens_sum(2) - 0.34657) < 1e-4

    def test_against_direct_oracle(self):
        expected = sum(math.log(p) / p for p in trial_primes(500))
        assert abs(mertens_sum(500) - expected) < 1e-12

    def test_band_at_1e6(self):
        assert abs(mertens_sum(10**6) - math.log(10**6)) <= 2

    def test_band_over_decades(self):
        for e in range(1, 7):
            N = 10**e
            assert abs(mertens_sum(N) - math.log(N)) <= 2

    def test_precondition(self):
        with pytest.raises(ValueError):
            mertens_sum(1)


class TestDivisorLogsum:
    def test_examples(self):
        assert abs(divisor_logsum(12) - 0.71277) < 1e-4
        assert abs(divisor_logsum(7) - math.log(7) / 7) < 1e-12
        assert abs(divisor_logsum(108) - (math.log(2) / 2 + math.log(3) / 3)) < 1e-12

    def test_negative_and_errors(self):
        assert divisor_logsum(-12) == divisor_logsum(12)
        for k in (0, 1, -1):
            with pytest.raises(ValueError):
                divisor_logsum(k)

    def test_table_agrees_with_op(self):
        table = divisor_logsum_table(5000)
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randrange(2, 5001)
            assert abs(table[k] - divisor_logsum(k)) < 1e-9

    def test_lnln_bound_sample(self):
        rng = random.Random(11)
        for _ in range(500):
            k = rng.randrange(3, 10**6)
            assert divisor_logsum(k) <= 3 * math.log(math.log(k)) + 3


def test_prime_table_shared_cache_is_consistent():
    big = sieve_primes(10_000)
    small = sieve_primes(100)
    assert small.primes == big.upto(100)
